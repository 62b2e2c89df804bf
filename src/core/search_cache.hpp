#pragma once
// Cross-request equivalence-cache hook for the exact-search family. The
// searchers (HDA* and the beam) stay cache-agnostic: they talk
// to this abstract interface through a ScopedCacheProbe, and the concrete
// sharded LRU cache lives in src/service/equivalence_cache.hpp. Keys are
// the canonical form of the searched subproblem plus a fingerprint of
// everything else that determines the certified optimum: register width,
// the coupling graph's routed-cost surface, the cost-model id, and the
// rotation-control budget. Two kinds of fact are stored. A
// *certified-optimal* result is shared across search options: the optimal
// CNOT cost of an equivalence class on a given device is a fact about the
// class, not about the search that discovered it. A one-shard A* attempt
// that ran out of node budget is remembered too, but only as a fact about
// that search: it is replayed to a later A* on the same representative
// whose trajectory and limits provably end the same way (SearchAttempt).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/astar.hpp"
#include "core/canonical.hpp"
#include "core/slot_state.hpp"

namespace qsp {

/// One A* attempt: the options that fix its trajectory beyond the cache
/// fingerprint, and its limits. A one-shard HDA* is deterministic for a
/// fixed representative and fixed knobs, so an attempt that ran out of
/// node budget after generating n arcs, bounded by B, ends the same way
/// (not found, budget exhausted) for every node budget in (0, n] and every
/// bound at or above B: the recorded run saw min f below B at every pop
/// check, and a node budget N <= n trips at or before its abort. A wall
/// budget can only stop it sooner.
struct SearchAttempt {
  HeuristicMode heuristic = HeuristicMode::kComponent;
  bool routed_heuristic = true;
  /// The requested level; the fingerprint's coupling fixes the effective
  /// one.
  CanonicalLevel canonical = CanonicalLevel::kPU2Exact;
  std::uint64_t full_candidate_cap = 0;
  /// Arcs the attempt may generate (0 = unlimited).
  std::uint64_t node_budget = 0;
  /// True when the attempt runs under a wall deadline.
  bool wall_budget = false;
  int num_shards = 1;
  std::int64_t cost_bound = kNoCostBound;

  /// True when both attempts search the same graph in the same order.
  bool same_trajectory(const SearchAttempt& other) const {
    return heuristic == other.heuristic &&
           routed_heuristic == other.routed_heuristic &&
           canonical == other.canonical &&
           full_candidate_cap == other.full_candidate_cap;
  }
};

/// Everything besides the target's equivalence class that a cached result
/// depends on. `level` is the cache's own canonicalization policy for this
/// device (permutation-aware only where relabeling is free), independent
/// of the requesting search's canonical level.
struct CacheFingerprint {
  /// Cost-model id + register width + coupling fingerprint + control
  /// budget, pre-rendered so shards can hash/compare cheaply.
  std::string id;
  CanonicalLevel level = CanonicalLevel::kPU2Exact;
  /// The A* attempt behind the probe; empty for the beam's consult-only
  /// probes. Not part of the key: it decides only whether an attempt that
  /// ran out of budget is remembered, and whether a remembered one covers
  /// this probe.
  std::optional<SearchAttempt> attempt;
};

/// Fingerprint for a search over `num_qubits` wires on `coupling`
/// (nullptr = all-to-all Table-I costs). `max_controls` must be the
/// searcher's rotation-control budget: a restricted arc set can certify a
/// restricted optimum only, so it is part of the key.
CacheFingerprint make_cache_fingerprint(int num_qubits,
                                        const CouplingGraph* coupling,
                                        int max_controls);

/// Abstract equivalence cache consulted by every searcher. Thread-safe.
class SearchCache {
 public:
  /// What begin() resolved to. kHit carries a result; kOwner obliges the
  /// caller to call end() exactly once (ScopedCacheProbe enforces this);
  /// kIndependent means another owner ran and did not publish an optimal
  /// result (or the wait timed out) — proceed with a private search.
  enum class Claim : std::uint8_t { kHit, kOwner, kIndependent };

  struct Lookup {
    Claim claim = Claim::kIndependent;
    std::optional<SynthesisResult> result;  ///< set iff claim == kHit
  };

  virtual ~SearchCache() = default;

  /// Consult the cache for `target`, whose canonical witness at fp.level
  /// the caller has already computed (ScopedCacheProbe computes it once
  /// and reuses it for end()). May block up to `max_wait_seconds` (0 =
  /// no limit) while another thread's search of the same class is in
  /// flight — the in-flight deduplication that lets N concurrent
  /// requests for one class pay for one search. With `consult_only` the
  /// call never claims ownership and never blocks: it answers from the
  /// table or returns kIndependent — the mode for searchers that cannot
  /// certify (the beam), so they never make certifying searchers queue
  /// behind them.
  virtual Lookup begin(const SlotState& target,
                       const CanonicalWitness& witness,
                       const CacheFingerprint& fp, double max_wait_seconds,
                       bool consult_only) = 0;

  /// Owner hand-back: publish `result` (stored when it carries the
  /// optimality certificate, or remembered when fp.attempt ran out of
  /// node budget) or abandon with nullptr; either way the in-flight marker
  /// is cleared and waiters wake.
  virtual void end(const SlotState& target, const CanonicalWitness& witness,
                   const CacheFingerprint& fp,
                   const SynthesisResult* result) = 0;
};

/// RAII pairing of begin/end around one search: computes the target's
/// canonical witness once, shares it between lookup and publish. Probes
/// with a null cache are inert, so searchers can construct one
/// unconditionally. `attempt` becomes the fingerprint's attempt.
class ScopedCacheProbe {
 public:
  ScopedCacheProbe(SearchCache* cache, const SlotState& target,
                   const CouplingGraph* coupling, int max_controls,
                   double max_wait_seconds, bool consult_only = false,
                   std::optional<SearchAttempt> attempt = std::nullopt);
  ~ScopedCacheProbe();

  ScopedCacheProbe(const ScopedCacheProbe&) = delete;
  ScopedCacheProbe& operator=(const ScopedCacheProbe&) = delete;

  /// True when the cache answered; result() is the cached synthesis, or
  /// the remembered budget exhaustion (not found, no circuit).
  bool hit() const { return lookup_.claim == SearchCache::Claim::kHit; }
  /// The cached synthesis as a search bounded by `cost_bound` returns it:
  /// a circuit at or above the bound is dropped (not found).
  SynthesisResult result(std::int64_t cost_bound) const;

  /// Publish the search outcome (owner) — no-op on hit/independent
  /// claims. Without a publish, the destructor abandons the claim.
  void publish(const SynthesisResult& result);

 private:
  SearchCache* cache_ = nullptr;
  const SlotState* target_ = nullptr;
  CacheFingerprint fingerprint_;
  CanonicalWitness witness_;
  SearchCache::Lookup lookup_;
  bool open_ = false;  ///< owner claim not yet ended
};

}  // namespace qsp
