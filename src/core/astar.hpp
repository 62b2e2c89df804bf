#pragma once
// The A* shortest-path solver of paper Section V (Algorithm 1). Searches
// from the target state toward the ground-state equivalence class; the
// returned circuit is the adjoint of the discovered arc sequence plus a
// zero-cost disentangling suffix, and provably CNOT-optimal whenever the
// search completes (admissible heuristic + node reopening).
//
// A caller that only keeps a circuit cheaper than some competitor passes
// that competitor's cost as a strict upper bound. The search treats it as
// an incumbent without a circuit: it never pops a node with f at or above
// the bound, and once every frontier is there it certifies that no
// circuit below the bound exists.
//
// The one kernel is sharded HDA* (Kishimoto et al.): the open list is
// partitioned across SearchOptions::num_threads shards by hashing each
// node's canonical key, so every equivalence class has exactly one owning
// shard and duplicate detection needs no global locking. Successors are
// routed to their owner through mutex-striped mailboxes. Shard 0 runs on
// the calling thread, so one thread means one shard and no thread start.
//
// The optimality certificate holds at every shard count: the search only
// terminates when an incumbent goal's g is <= the minimum f over every
// shard's frontier AND no successor message is still in flight (tracked
// with monotonic sent/received counters and a double-read of the idle
// state). With the admissible heuristic, any undiscovered path to a
// cheaper goal would have to pass through a frontier node of smaller f,
// which cannot exist at that point (termination proof sketch in
// docs/ARCHITECTURE.md). At one shard the first goal pop is that point.

#include <cstdint>
#include <limits>
#include <memory>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "core/slot_state.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

class SearchCache;

/// The default cost bound of every synthesize(): no bound.
inline constexpr std::int64_t kNoCostBound =
    std::numeric_limits<std::int64_t>::max();

struct SearchOptions {
  HeuristicMode heuristic = HeuristicMode::kComponent;
  CanonicalLevel canonical = CanonicalLevel::kPU2Exact;
  /// Rotation-arc control budget; -1 means unrestricted (n - 1).
  int max_controls = -1;
  /// Abort after generating this many arcs (0 = unlimited).
  std::uint64_t node_budget = 5'000'000;
  /// Abort after this many seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
  /// Rotation-candidate enumeration cap (see MoveGenOptions); searches on
  /// states whose slot total exceeds this lose the optimality certificate.
  std::uint64_t full_candidate_cap = 4096;
  /// Optional coupling constraint: arc costs become routed CNOT costs and
  /// qubit-permutation canonicalization is disabled unless the graph is
  /// complete (relabeling is only free on a symmetric coupling, as the
  /// paper notes). The graph must be connected (searcher constructors
  /// throw otherwise). Route the result with arch/routing.hpp to realize
  /// the reported cost on hardware.
  std::shared_ptr<const CouplingGraph> coupling;
  /// Price the admissible heuristic against the coupling's routed-cost
  /// surface (Steiner-connection bound, core/heuristic.hpp). Turning this
  /// off reproduces the coupling-blind unit-merge bound — still
  /// admissible, so the optimum is unchanged, but the search expands more
  /// nodes on restricted topologies (ablation_coupling quantifies it).
  bool routed_heuristic = true;
  /// Worker shards for the exact search, one thread each: 1 runs a single
  /// shard on the calling thread, 0 uses all hardware threads. Every
  /// count keeps the optimality certificate (see docs/ARCHITECTURE.md).
  int num_threads = 1;
  /// Optional cross-request equivalence cache (core/search_cache.hpp).
  /// When set, the search first consults the cache for the target's
  /// canonical class (possibly waiting on another thread's in-flight
  /// search of the same class) and publishes certified-optimal results
  /// back into it; a one-shard search without a wall budget that runs out
  /// of node budget is remembered and replayed to the repeats it covers.
  /// nullptr = no caching (the default; all one-shot paths are
  /// unchanged).
  std::shared_ptr<SearchCache> cache;
};

struct SearchStats {
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_generated = 0;
  std::uint64_t classes_stored = 0;
  /// Queue-pressure signal tracked by micro_core and fig7_runtime: the
  /// sum over shards of each shard's own peak open-list population. At
  /// one shard this is the true peak; at more it is an upper bound on
  /// the instantaneous global peak, since shard peaks need not coincide
  /// in time. The beam keeps no open list and reports 0.
  std::uint64_t sum_shard_peak_open_size = 0;
  /// Lazy-deletion discards: popped entries whose pushed g was already
  /// beaten by a rebind (summed over shards).
  std::uint64_t stale_pops = 0;
  /// Allocation-pressure signals from the node arena (core/search_core):
  /// blocks allocated and peak resident bytes (node blocks plus slot-entry
  /// heap storage), summed over shards. Visible in micro_core JSON so
  /// allocator wins show up next to wall time.
  std::uint64_t arena_blocks = 0;
  std::uint64_t arena_bytes_peak = 0;
  double seconds = 0.0;
  /// True if the A* search ran to completion within budget: its goal is
  /// certified against every shard's frontier, or, without a goal, every
  /// frontier holds only f at or above the cost bound (no circuit below
  /// the bound exists among the searched arcs).
  bool completed = false;
  /// True if the search stopped early because its node or wall-clock
  /// budget ran out (A*: aborted before certifying; beam: a level was
  /// truncated or skipped on deadline expiry). Distinguishes a
  /// budget-truncated result — which might improve with more budget —
  /// from a genuinely finished descent or an exhausted search space.
  bool budget_exhausted = false;
};

struct SynthesisResult {
  bool found = false;
  /// True when the result is provably CNOT-optimal (A* completion).
  bool optimal = false;
  std::int64_t cnot_cost = -1;
  Circuit circuit{1};
  SearchStats stats;
};

class AStarSynthesizer {
 public:
  explicit AStarSynthesizer(SearchOptions options = {});

  /// Synthesize a preparation circuit for the slot-encoded target, of
  /// CNOT cost strictly below `cost_bound`. A goal below the bound is the
  /// true optimum, so the result is the unbounded search's whenever that
  /// costs less than the bound; otherwise it is not found, with
  /// `completed` once the search proved that nothing cheaper exists.
  ///
  /// Budget rule: the node and wall budgets are checked before every pop
  /// and while a shard waits for work, never between a goal pop and the
  /// termination check that certifies it, so a deadline passing in that
  /// window cannot downgrade a goal that is already certifiable. A wall
  /// deadline that cuts an expansion short ends the search as a budget
  /// abort, since the lost successors void every later certificate. A
  /// budget abort returns no circuit at every shard count (not found,
  /// `budget_exhausted`), even when some shard had popped a goal: other
  /// shards may since have rebound that goal's ancestors to cheaper
  /// representatives, so its arc chain need not prepare the target.
  SynthesisResult synthesize(const SlotState& target,
                             std::int64_t cost_bound = kNoCostBound) const;

  /// Convenience: decompose a sparse state into slots first. Throws
  /// std::invalid_argument if the state has no slot decomposition.
  SynthesisResult synthesize(const QuantumState& target,
                             std::int64_t cost_bound = kNoCostBound) const;

  const SearchOptions& options() const { return options_; }

 private:
  SearchOptions options_;
};

}  // namespace qsp
