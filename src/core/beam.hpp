#pragma once
// Anytime beam search over the same state-transition graph as the A*
// solver. Used for instances beyond exact reach (e.g. Dicke states with
// n >= 5): returns a valid, verified-by-construction arc path without an
// optimality claim.
//
// The descent is level-synchronous and sharded on the same mailbox
// substrate as HDA* (core/astar.hpp): each level's frontier is split
// across BeamOptions::num_threads shards, children are generated and
// canonicalized locally and routed to the shard owning their canonical
// key, and a per-shard top-k followed by a merge picks the next frontier
// behind a level barrier. Shard 0 runs on the calling thread. Within a
// level a class's winner is the child minimizing (g2, seq), seq stamping
// the frontier scan order, and candidates are ordered by (score, h,
// canonical key), a total order; every reduction is an order-free
// minimum, so the circuit, cnot_cost and the deterministic stats are
// identical at every thread count. Only deadline-truncated runs differ,
// and they carry SearchStats::budget_exhausted.

#include "core/astar.hpp"

namespace qsp {

struct BeamOptions {
  /// Frontier states kept per level; must be at least 1.
  int beam_width = 512;
  HeuristicMode heuristic = HeuristicMode::kComponent;
  CanonicalLevel canonical = CanonicalLevel::kPU2Greedy;
  /// Rotation-arc control budget; -1 allows the m-flow-style merges with
  /// large distinguishing control sets that spread-out supports need.
  int max_controls = -1;
  /// Rotation-candidate enumeration cap (see MoveGenOptions).
  std::uint64_t full_candidate_cap = 4096;
  /// Optional coupling constraint (see SearchOptions::coupling).
  std::shared_ptr<const CouplingGraph> coupling;
  double time_budget_seconds = 0.0;
  /// Worker shards for the level expansion, one thread each: 1 runs a
  /// single shard on the calling thread, 0 uses all hardware threads.
  /// Results are bit-identical at every thread count (deterministic
  /// (score, h, canonical key) selection).
  int num_threads = 1;
  /// Optional equivalence cache (see SearchOptions::cache). The beam
  /// consults it — a cached certified-optimal circuit beats any beam
  /// descent — but never populates it: beam results carry no certificate.
  std::shared_ptr<SearchCache> cache;
};

/// Throws std::invalid_argument, naming `context`, when `options` cannot
/// run a descent: beam_width below 1, or a disconnected coupling graph.
void validate_beam_options(const char* context, const BeamOptions& options);

class BeamSynthesizer {
 public:
  explicit BeamSynthesizer(BeamOptions options = {});

  /// Descend toward a preparation circuit of CNOT cost strictly below
  /// `cost_bound`. The descent stops once every state of its frontier has
  /// g + h at or above the bound; until then its frontier is the unbounded
  /// one, so a result below the bound is the unbounded descent's at every
  /// thread count, and any other result is not found.
  SynthesisResult synthesize(const SlotState& target,
                             std::int64_t cost_bound = kNoCostBound) const;
  SynthesisResult synthesize(const QuantumState& target,
                             std::int64_t cost_bound = kNoCostBound) const;

  const BeamOptions& options() const { return options_; }

 private:
  BeamOptions options_;
};

}  // namespace qsp
