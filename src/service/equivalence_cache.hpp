#pragma once
// Sharded, mutex-striped cross-request equivalence cache: the concrete
// SearchCache behind the synthesis service. One entry per (canonical
// class, register width, coupling fingerprint, cost-model id, control
// budget), of one of two kinds:
//   positive entry  — the class representative that was searched, the
//                     witness of its canonical form, and the
//                     certified-optimal circuit template;
//   negative record — a one-shard A* on the representative that ran out
//                     of node budget without a wall deadline: its
//                     trajectory knobs, cost bound B and the n arcs it
//                     generated (SearchAttempt).
//
// Hit paths:
//   exact hit    — the target *is* the stored representative: the stored
//                  template is returned verbatim (bit-identical to the
//                  cold-path result that populated it).
//   rewired hit  — the target is a different member of the same class:
//                  the template is rewired through the canonical form at
//                  zero extra CNOT cost (free merges, X layers and — only
//                  where relabeling is free — a wire relabeling), so the
//                  optimality certificate transfers.
//   negative hit — an A* probe on the record's representative with the
//                  same knobs, one shard, a node budget in (0, n] and a
//                  bound at or above B: answered "budget exhausted, no
//                  circuit", which is what its search would return. Any
//                  other probe treats the record as absent.
//
// See search_cache.hpp for why positive hits are sound across differing
// search options. A certified publish replaces a record, a record never
// replaces a positive entry, and for records the last writer wins.
// Eviction is LRU per shard under capacity and byte bounds, over both
// kinds. In-flight deduplication: the first thread to miss a class becomes
// its owner, later threads block on a per-class condition variable until
// the owner publishes, then hit (or, on a record that does not cover
// them, search privately).

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/search_cache.hpp"
#include "util/thread_annotations.hpp"

namespace qsp {

struct EquivalenceCacheOptions {
  /// Mutex stripes; keys are distributed by hash.
  std::size_t num_shards = 16;
  /// Entry bound across all shards (0 = unlimited); enforced per shard as
  /// max_entries / num_shards (at least 1).
  std::size_t max_entries = 1u << 16;
  /// Approximate byte bound across all shards (0 = unlimited).
  std::size_t max_bytes = std::size_t{256} << 20;
};

struct EquivalenceCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< exact_hits + rewired_hits + negative_hits
  std::uint64_t exact_hits = 0;
  std::uint64_t rewired_hits = 0;
  /// A* probes answered by a negative record (no search ran).
  std::uint64_t negative_hits = 0;
  std::uint64_t misses = 0;        ///< lookups - hits
  /// Certified templates stored (negative records are not counted).
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Times a lookup blocked on another thread's in-flight search.
  std::uint64_t inflight_waits = 0;
  std::uint64_t entries = 0;       ///< current population, both kinds
  std::uint64_t bytes = 0;         ///< current approximate footprint
};

class EquivalenceCache final : public SearchCache {
 public:
  explicit EquivalenceCache(EquivalenceCacheOptions options = {});

  Lookup begin(const SlotState& target, const CanonicalWitness& witness,
               const CacheFingerprint& fp, double max_wait_seconds,
               bool consult_only) override;
  void end(const SlotState& target, const CanonicalWitness& witness,
           const CacheFingerprint& fp,
           const SynthesisResult* result) override;

  EquivalenceCacheStats stats() const;
  const EquivalenceCacheOptions& options() const { return options_; }

 private:
  /// Template and witness are immutable and shared: a hit copies two
  /// shared_ptrs under the shard lock and builds its circuit outside it
  /// (an eviction racing a hit just keeps the template alive until the
  /// last reader drops it).
  struct Entry {
    SlotState representative = SlotState::ground(1, 1);
    std::shared_ptr<const CanonicalWitness> witness;
    /// Null for a negative record.
    std::shared_ptr<const Circuit> circuit;
    std::int64_t cnot_cost = 0;
    /// Negative record: the exhausted attempt and the arcs it generated.
    SearchAttempt attempt;
    std::uint64_t nodes_generated = 0;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru;

    /// True for a negative record whose search ends for the `probe`
    /// attempt on `target` the way it ended: not found, budget exhausted.
    bool covers(const SlotState& target,
                const std::optional<SearchAttempt>& probe) const;
  };

  struct InFlight {
    Mutex m;
    CondVar cv;
    bool done QSP_GUARDED_BY(m) = false;
  };

  struct Shard {
    Mutex m;
    std::unordered_map<std::string, Entry> map QSP_GUARDED_BY(m);
    /// Front = most recently used key.
    std::list<std::string> lru QSP_GUARDED_BY(m);
    std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight
        QSP_GUARDED_BY(m);
    std::size_t bytes QSP_GUARDED_BY(m) = 0;
  };

  Shard& shard_for(const std::string& key);
  /// Insert `entry` under `key`, replacing a negative record there.
  void store(Shard& shard, const std::string& key, Entry entry)
      QSP_REQUIRES(shard.m);
  void evict_over_caps(Shard& shard) QSP_REQUIRES(shard.m);

  EquivalenceCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_entry_cap_ = 0;  ///< 0 = unlimited
  std::size_t shard_byte_cap_ = 0;   ///< 0 = unlimited

  mutable std::atomic<std::uint64_t> lookups_{0};
  mutable std::atomic<std::uint64_t> exact_hits_{0};
  mutable std::atomic<std::uint64_t> rewired_hits_{0};
  mutable std::atomic<std::uint64_t> negative_hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> insertions_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> inflight_waits_{0};
  mutable std::atomic<std::uint64_t> entries_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace qsp
