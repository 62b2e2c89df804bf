// Searches bounded by a competitor's cost (the `cost_bound` argument of
// every synthesize()): a bounded search returns exactly the unbounded
// result when that costs less than the bound, and no circuit otherwise.
// The suites are named after the searchers so the sanitizer jobs that
// select AStar, ParallelAStar, Beam and ExactSynthesizer run them.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/lowering.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "core/exact_synthesizer.hpp"
#include "core/search_cache.hpp"
#include "prep/nflow.hpp"
#include "service/equivalence_cache.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

struct Case {
  std::string name;
  SlotState state;
};

SlotState marginal_slots(const QuantumState& state) {
  return *SlotState::from_state(nflow_marginal(state, 4));
}

/// Random 4-qubit slot states: 3 to 5 distinct indices, counts 1 to 3.
std::vector<Case> random_slot_states(int count) {
  std::vector<Case> out;
  Rng rng(77);
  for (int i = 0; i < count; ++i) {
    const int m = 3 + static_cast<int>(rng.next_below(3));
    std::vector<SlotEntry> entries;
    std::vector<bool> used(16, false);
    while (static_cast<int>(entries.size()) < m) {
      const auto index = static_cast<BasisIndex>(rng.next_below(16));
      if (used[index]) continue;
      used[index] = true;
      entries.push_back(
          SlotEntry{index, static_cast<std::uint32_t>(1 + rng.next_below(3))});
    }
    out.push_back({"rand4#" + std::to_string(i), SlotState(4, entries)});
  }
  return out;
}

/// The 4-qubit marginals the dense path hands the exact tail: Table-V
/// random uniform states (m = 2^(n-1)) and Dicke states.
std::vector<Case> dense_marginals() {
  std::vector<Case> out;
  Rng rng(19);
  for (int n = 5; n <= 7; ++n) {
    out.push_back({"tableV(" + std::to_string(n) + ")",
                   marginal_slots(make_random_uniform(n, 1 << (n - 1), rng))});
  }
  for (const auto& [n, k] : {std::pair{5, 2}, {6, 3}, {7, 3}}) {
    out.push_back(
        {"dicke(" + std::to_string(n) + "," + std::to_string(k) + ")",
         marginal_slots(make_dicke(n, k))});
  }
  return out;
}

/// The bounds every differential sweeps around a reference cost.
std::vector<std::int64_t> bounds_around(std::int64_t cost) {
  std::vector<std::int64_t> bounds = {0};
  for (const std::int64_t b : {cost - 1, cost, cost + 1}) {
    if (b > 0) bounds.push_back(b);
  }
  return bounds;
}

/// The workflow's exact-tail arc set (WorkflowOptions defaults).
ExactSynthesisOptions workflow_exact_options() {
  ExactSynthesisOptions options;
  options.astar.full_candidate_cap = 64;
  options.astar.node_budget = 1000;
  options.beam.beam_width = 1;
  options.beam.max_controls = 3;
  options.beam.full_candidate_cap = 64;
  return options;
}

/// Counts the searches that consult it, and never answers: A* probes
/// claim ownership, the beam's probes are consult-only.
class SearchSpy : public SearchCache {
 public:
  Lookup begin(const SlotState&, const CanonicalWitness&,
               const CacheFingerprint&, double, bool consult_only) override {
    ++(consult_only ? beams : astars);
    return {};
  }
  void end(const SlotState&, const CanonicalWitness&, const CacheFingerprint&,
           const SynthesisResult*) override {}

  int astars = 0;
  int beams = 0;
};

void check_bounded_astar(const std::vector<int>& thread_counts) {
  // States whose unbounded search certifies within 40k nodes: every bound
  // then either keeps the optimum or is proven unbeatable. The bounded
  // runs get no node budget; they pop only entries with f below the
  // bound, a finite set.
  std::vector<Case> certified = random_slot_states(12);
  certified.push_back({"dicke(4,2)", *SlotState::from_state(make_dicke(4, 2))});
  certified.push_back({"dicke(6,3)", marginal_slots(make_dicke(6, 3))});
  SearchOptions options;
  options.full_candidate_cap = 64;
  options.node_budget = 40'000;
  for (const Case& c : certified) {
    const SynthesisResult ref = AStarSynthesizer(options).synthesize(c.state);
    if (!ref.found) continue;  // beyond the reference budget
    ASSERT_TRUE(ref.optimal) << c.name;
    SearchOptions bounded_options = options;
    bounded_options.node_budget = 0;
    for (const int threads : thread_counts) {
      bounded_options.num_threads = threads;
      for (const std::int64_t bound : bounds_around(ref.cnot_cost)) {
        const std::string ctx = c.name + " threads=" + std::to_string(threads) +
                                " bound=" + std::to_string(bound);
        const SynthesisResult res =
            AStarSynthesizer(bounded_options).synthesize(c.state, bound);
        EXPECT_TRUE(res.stats.completed) << ctx;
        EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
        if (ref.cnot_cost < bound) {
          ASSERT_TRUE(res.found) << ctx;
          EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << ctx;
          EXPECT_TRUE(res.optimal) << ctx;
          if (threads == 1) EXPECT_TRUE(res.circuit == ref.circuit) << ctx;
          verify_preparation_or_throw(res.circuit, c.state.to_state());
        } else {
          EXPECT_FALSE(res.found) << ctx;
          EXPECT_FALSE(res.optimal) << ctx;
        }
      }
    }
  }

  // Marginals the perfbench node budget cannot certify: a bounded search
  // finds nothing the unbounded one missed at one shard, and a bound of 0
  // is proven at once, whatever the budget.
  options.node_budget = 1000;
  for (const Case& c : dense_marginals()) {
    const SynthesisResult ref = AStarSynthesizer(options).synthesize(c.state);
    const SynthesisResult beam =
        BeamSynthesizer(workflow_exact_options().beam).synthesize(c.state);
    ASSERT_TRUE(beam.found) << c.name;
    for (const int threads : thread_counts) {
      SearchOptions bounded_options = options;
      bounded_options.num_threads = threads;
      for (const std::int64_t bound : bounds_around(beam.cnot_cost)) {
        const std::string ctx = c.name + " threads=" + std::to_string(threads) +
                                " bound=" + std::to_string(bound);
        const SynthesisResult res =
            AStarSynthesizer(bounded_options).synthesize(c.state, bound);
        EXPECT_NE(res.stats.completed, res.stats.budget_exhausted) << ctx;
        if (threads == 1 && !ref.found) EXPECT_FALSE(res.found) << ctx;
        if (res.found) {
          EXPECT_LT(res.cnot_cost, bound) << ctx;
          verify_preparation_or_throw(res.circuit, c.state.to_state());
        }
        if (bound == 0) {
          EXPECT_FALSE(res.found) << ctx;
          EXPECT_TRUE(res.stats.completed) << ctx;
          EXPECT_EQ(res.stats.nodes_expanded, 0u) << ctx;
        }
      }
    }
  }
}

TEST(AStar, CostBoundKeepsOnlyCheaperOptima) { check_bounded_astar({1}); }

TEST(ParallelAStar, CostBoundKeepsOnlyCheaperOptima) {
  check_bounded_astar({2, 8});
}

TEST(AStar, CachedOptimumAtOrAboveTheBoundIsNotFound) {
  // A cache hit is answered as the bounded search would have answered: a
  // certified optimum at or above the bound proves nothing cheaper
  // exists, so it comes back not found but completed.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult cold = AStarSynthesizer(options).synthesize(target);
  ASSERT_TRUE(cold.optimal);
  ASSERT_EQ(cache->stats().insertions, 1u);
  const SynthesisResult at =
      AStarSynthesizer(options).synthesize(target, cold.cnot_cost);
  EXPECT_FALSE(at.found);
  EXPECT_FALSE(at.optimal);
  EXPECT_TRUE(at.stats.completed);
  const SynthesisResult above =
      AStarSynthesizer(options).synthesize(target, cold.cnot_cost + 1);
  ASSERT_TRUE(above.found);
  EXPECT_TRUE(above.circuit == cold.circuit);
  EXPECT_GE(cache->stats().exact_hits, 2u);
}

TEST(Beam, CostBoundKeepsOnlyCheaperDescents) {
  // The descent's frontier is the unbounded one until it stops, so a goal
  // below the bound is the unbounded goal, bit for bit, at every width
  // and shard count; and the stop never costs expansions.
  std::vector<Case> corpus = dense_marginals();
  for (Case& c : random_slot_states(4)) corpus.push_back(std::move(c));
  for (const int width : {1, 8}) {
    BeamOptions options = workflow_exact_options().beam;
    options.beam_width = width;
    for (const Case& c : corpus) {
      const SynthesisResult ref = BeamSynthesizer(options).synthesize(c.state);
      ASSERT_TRUE(ref.found) << c.name;
      for (const int threads : {1, 2, 8}) {
        BeamOptions bounded_options = options;
        bounded_options.num_threads = threads;
        for (const std::int64_t bound : bounds_around(ref.cnot_cost)) {
          const std::string ctx =
              c.name + " width=" + std::to_string(width) +
              " threads=" + std::to_string(threads) +
              " bound=" + std::to_string(bound);
          const SynthesisResult res =
              BeamSynthesizer(bounded_options).synthesize(c.state, bound);
          EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
          EXPECT_LE(res.stats.nodes_expanded, ref.stats.nodes_expanded)
              << ctx;
          if (ref.cnot_cost < bound) {
            ASSERT_TRUE(res.found) << ctx;
            EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << ctx;
            EXPECT_TRUE(res.circuit == ref.circuit) << ctx;
          } else {
            EXPECT_FALSE(res.found) << ctx;
          }
          if (bound == 0) EXPECT_EQ(res.stats.nodes_expanded, 0u) << ctx;
        }
      }
    }
  }
}

TEST(ExactSynthesizer, AStarProofSkipsTheBeam) {
  const auto run = [](ExactSynthesisOptions options, const SlotState& state,
                      std::int64_t bound, int* beams) {
    const auto spy = std::make_shared<SearchSpy>();
    options.astar.cache = spy;
    options.beam.cache = spy;
    const SynthesisResult res =
        ExactSynthesizer(options).synthesize(state, bound);
    EXPECT_EQ(spy->astars, 1);
    *beams = spy->beams;
    return res;
  };
  int beams = -1;

  // A bound of 0 is proven before the first pop.
  const SlotState marginal = dense_marginals().front().state;
  SynthesisResult res = run(workflow_exact_options(), marginal, 0, &beams);
  EXPECT_EQ(beams, 0);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_FALSE(res.stats.budget_exhausted);

  // A bound at the optimum is proven by search.
  ExactSynthesisOptions unbudgeted = workflow_exact_options();
  unbudgeted.astar.node_budget = 0;
  const SlotState state = random_slot_states(3)[2].state;
  const SynthesisResult optimum =
      ExactSynthesizer(unbudgeted).synthesize(state);
  ASSERT_TRUE(optimum.optimal);
  res = run(unbudgeted, state, optimum.cnot_cost, &beams);
  EXPECT_EQ(beams, 0);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.stats.completed);
  res = run(unbudgeted, state, optimum.cnot_cost + 1, &beams);
  EXPECT_EQ(beams, 0);
  EXPECT_EQ(res.cnot_cost, optimum.cnot_cost);

  // On fewer qubits than the beam's control budget, both budgets are the
  // whole register, so the proof still holds.
  const SlotState three = *SlotState::from_state(make_w(3));
  res = run(unbudgeted, three, 0, &beams);
  EXPECT_EQ(beams, 0);
  EXPECT_TRUE(res.stats.completed);

  // No proof without the exhaustive arc set: above the candidate cap, or
  // with a narrower control budget than the beam's, the beam still runs.
  ExactSynthesisOptions capped = unbudgeted;
  capped.astar.full_candidate_cap = state.total() - 1;
  res = run(capped, state, 0, &beams);
  EXPECT_EQ(beams, 1);
  EXPECT_FALSE(res.found);
  ExactSynthesisOptions narrow = unbudgeted;
  narrow.astar.max_controls = 1;
  res = run(narrow, state, 0, &beams);
  EXPECT_EQ(beams, 1);

  // A budget abort is no proof either: the beam runs under the bound.
  const SynthesisResult beam_alone =
      BeamSynthesizer(workflow_exact_options().beam).synthesize(marginal);
  res = run(workflow_exact_options(), marginal, beam_alone.cnot_cost + 1,
            &beams);
  EXPECT_EQ(beams, 1);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, beam_alone.cnot_cost);
  EXPECT_TRUE(res.stats.budget_exhausted);
}

TEST(ExactSynthesizer, SearchCostIsElidedLoweredCount) {
  // The solver bounds a coupling-blind exact attempt by its competitor's
  // lowered CNOT count with zero rotations elided. That is sound only
  // because a search cost equals the elided lowered count of its circuit:
  // the one-hot angle tables of MCRy/CRy arcs have no zero multiplexor
  // angle to elide.
  std::vector<Case> corpus = dense_marginals();
  for (Case& c : random_slot_states(8)) corpus.push_back(std::move(c));
  corpus.push_back({"dicke(4,2)", *SlotState::from_state(make_dicke(4, 2))});
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  for (const Case& c : corpus) {
    ExactSynthesisOptions options = workflow_exact_options();
    SearchOptions astar = options.astar;
    astar.node_budget = 40'000;
    BeamOptions beam = options.beam;
    beam.beam_width = 8;
    for (const SynthesisResult& res :
         {ExactSynthesizer(options).synthesize(c.state),
          AStarSynthesizer(astar).synthesize(c.state),
          BeamSynthesizer(beam).synthesize(c.state)}) {
      if (!res.found) continue;
      EXPECT_EQ(count_cnots_after_lowering(res.circuit, elide), res.cnot_cost)
          << c.name;
    }
  }
}

}  // namespace
}  // namespace qsp
