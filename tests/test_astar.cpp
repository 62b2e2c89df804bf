#include "core/astar.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/lowering.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SynthesisResult solve(const QuantumState& target,
                      SearchOptions options = {}) {
  const AStarSynthesizer synth(options);
  return synth.synthesize(target);
}

void expect_optimal(const QuantumState& target, std::int64_t expected_cost,
                    SearchOptions options = {}) {
  const SynthesisResult res = solve(target, options);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cnot_cost, expected_cost);
  verify_preparation_or_throw(res.circuit, target);
  // The reported arc cost must match the lowered CNOT count of the
  // returned circuit.
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), expected_cost);
}

TEST(AStar, GroundStateIsFree) { expect_optimal(QuantumState(3), 0); }

TEST(AStar, ProductStatesAreFree) {
  // Uniform superposition: all qubits separable -> zero CNOTs.
  expect_optimal(make_uniform(3, {0, 1, 2, 3, 4, 5, 6, 7}), 0);
  expect_optimal(make_uniform(2, {0b10, 0b11}), 0);
}

TEST(AStar, BellCostsOne) { expect_optimal(make_ghz(2), 1); }

TEST(AStar, GhzCostsNMinusOne) {
  expect_optimal(make_ghz(3), 2);
  expect_optimal(make_ghz(4), 3);
  expect_optimal(make_ghz(5), 4);
}

TEST(AStar, MotivatingExampleCostsTwo) {
  // Paper Fig. 3: (|000> + |011> + |101> + |110>)/2 takes 2 CNOTs.
  expect_optimal(make_uniform(3, {0b000, 0b011, 0b101, 0b110}), 2);
}

TEST(AStar, WThreeMatchesPaper) {
  // Table IV row (n=3, k=1): exact synthesis uses 4 CNOTs.
  expect_optimal(make_w(3), 4);
}

TEST(AStar, DickeFourTwoBeatsManual) {
  // The paper's headline: |D^2_4> in 6 CNOTs (manual design: 12).
  expect_optimal(make_dicke(4, 2), 6);
}

TEST(AStar, SearchStatsPopulated) {
  const SynthesisResult res = solve(make_dicke(4, 2));
  EXPECT_TRUE(res.stats.completed);
  EXPECT_GT(res.stats.nodes_expanded, 0u);
  EXPECT_GT(res.stats.nodes_generated, res.stats.nodes_expanded);
  EXPECT_GT(res.stats.classes_stored, 1u);
  EXPECT_GT(res.stats.sum_shard_peak_open_size, 0u);
  // The queue never exceeds the generated-arc count, and every stale pop
  // corresponds to an earlier push.
  EXPECT_LE(res.stats.sum_shard_peak_open_size, res.stats.nodes_generated + 1);
  EXPECT_LE(res.stats.stale_pops, res.stats.nodes_generated);
}

TEST(AStar, BudgetExhaustionReportsNotFound) {
  SearchOptions tight;
  tight.node_budget = 10;
  const SynthesisResult res = solve(make_dicke(4, 2), tight);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.stats.completed);
  EXPECT_TRUE(res.stats.budget_exhausted);
}

TEST(AStar, CompletedSearchIsNotBudgetExhausted) {
  const SynthesisResult res = solve(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_FALSE(res.stats.budget_exhausted);
}

TEST(AStar, HeuristicModesAgreeOnOptimalCost) {
  const QuantumState target = make_uniform(3, {0b000, 0b011, 0b101});
  std::int64_t costs[3];
  int i = 0;
  for (const HeuristicMode mode :
       {HeuristicMode::kZero, HeuristicMode::kPair,
        HeuristicMode::kComponent}) {
    SearchOptions o;
    o.heuristic = mode;
    const SynthesisResult res = solve(target, o);
    ASSERT_TRUE(res.found);
    EXPECT_TRUE(res.optimal);
    costs[i++] = res.cnot_cost;
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
}

TEST(AStar, CanonicalLevelsAgreeOnOptimalCost) {
  const QuantumState target = make_uniform(3, {0b001, 0b010, 0b100, 0b111});
  std::int64_t reference = -1;
  for (const CanonicalLevel level :
       {CanonicalLevel::kNone, CanonicalLevel::kU2,
        CanonicalLevel::kPU2Greedy, CanonicalLevel::kPU2Exact}) {
    SearchOptions o;
    o.canonical = level;
    o.node_budget = 20'000'000;
    const SynthesisResult res = solve(target, o);
    ASSERT_TRUE(res.found) << "level " << static_cast<int>(level);
    if (reference < 0) reference = res.cnot_cost;
    EXPECT_EQ(res.cnot_cost, reference)
        << "level " << static_cast<int>(level);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(AStar, CanonicalizationShrinksExploration) {
  const QuantumState target = make_dicke(4, 2);
  SearchOptions with;
  with.canonical = CanonicalLevel::kPU2Exact;
  SearchOptions without;
  without.canonical = CanonicalLevel::kU2;
  const SynthesisResult a = solve(target, with);
  const SynthesisResult b = solve(target, without);
  ASSERT_TRUE(a.found && b.found);
  EXPECT_EQ(a.cnot_cost, b.cnot_cost);
  EXPECT_LT(a.stats.classes_stored, b.stats.classes_stored);
}

TEST(AStar, RandomUniformStatesAlwaysVerify) {
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    const QuantumState target = make_random_uniform(n, m, rng);
    const SynthesisResult res = solve(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_TRUE(res.optimal);
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

TEST(AStar, ResultsUnchangedAfterShardedPort) {
  // Frozen from the serial kernel that one-shard HDA* replaced: at one
  // thread the sharded search must pop, relax and count exactly as that
  // loop did, so any drift in cost, certificate or search effort fails
  // here. Covers certified runs, a node-budget abort and routed costs on
  // a line device.
  struct Snapshot {
    QuantumState target;
    SearchOptions options;
    bool found;
    std::int64_t cost;
    bool optimal;
    std::uint64_t expanded;
    std::uint64_t generated;
    std::uint64_t classes;
    std::uint64_t stale_pops;
    std::uint64_t peak_open;
  };
  SearchOptions tight;
  tight.node_budget = 300;
  SearchOptions line4;
  line4.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(4));
  std::vector<Snapshot> snapshots;
  snapshots.push_back({make_ghz(5), {}, true, 4, true, 4, 660, 5, 0, 1});
  snapshots.push_back({make_w(4), {}, true, 7, true, 20, 1763, 34, 1, 35});
  snapshots.push_back(
      {make_dicke(4, 2), {}, true, 6, true, 13, 1228, 74, 0, 83});
  snapshots.push_back({make_uniform(3, {0b000, 0b011, 0b101, 0b110}), {},
                       true, 2, true, 2, 60, 5, 0, 3});
  Rng rng(2024);  // the seed of AStar.RandomUniformStatesAlwaysVerify
  const auto next_random = [&rng] {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    return make_random_uniform(n, m, rng);
  };
  snapshots.push_back({next_random(), {}, true, 6, true, 10, 450, 76, 0, 93});
  snapshots.push_back({next_random(), {}, true, 1, true, 1, 24, 3, 0, 2});
  snapshots.push_back(
      {next_random(), {}, true, 9, true, 229, 24916, 706, 8, 1109});
  snapshots.push_back({next_random(), {}, true, 0, true, 0, 0, 1, 0, 1});
  snapshots.push_back(
      {next_random(), {}, true, 9, true, 275, 31379, 1652, 13, 2579});
  snapshots.push_back({next_random(), {}, true, 6, true, 10, 450, 76, 0, 91});
  snapshots.push_back(
      {make_dicke(4, 2), tight, false, -1, false, 4, 324, 34, 0, 35});
  snapshots.push_back({make_w(4), line4, true, 7, true, 71, 6322, 228, 0, 430});
  snapshots.push_back(
      {make_dicke(4, 2), line4, true, 7, true, 74, 7236, 778, 4, 1193});
  for (const Snapshot& snap : snapshots) {
    const std::string ctx = snap.target.to_string();
    const SynthesisResult res = solve(snap.target, snap.options);
    ASSERT_EQ(res.found, snap.found) << ctx;
    EXPECT_EQ(res.cnot_cost, snap.cost) << ctx;
    EXPECT_EQ(res.optimal, snap.optimal) << ctx;
    EXPECT_EQ(res.stats.completed, snap.found) << ctx;
    EXPECT_EQ(res.stats.budget_exhausted, !snap.found) << ctx;
    EXPECT_EQ(res.stats.nodes_expanded, snap.expanded) << ctx;
    EXPECT_EQ(res.stats.nodes_generated, snap.generated) << ctx;
    EXPECT_EQ(res.stats.classes_stored, snap.classes) << ctx;
    EXPECT_EQ(res.stats.stale_pops, snap.stale_pops) << ctx;
    EXPECT_EQ(res.stats.sum_shard_peak_open_size, snap.peak_open) << ctx;
    if (res.found) verify_preparation_or_throw(res.circuit, snap.target);
  }
}

TEST(AStar, OneThreadNeverReturnsAnAnytimeIncumbent) {
  // The budget rule at one shard: the goal pop is its own certificate, so
  // a budgeted search either certifies or reports not-found — whether the
  // node budget or the wall deadline runs out, and wherever it falls.
  const QuantumState target = make_dicke(4, 2);
  for (std::uint64_t budget = 1; budget <= 1300; budget += 37) {
    SearchOptions options;
    options.node_budget = budget;
    const SynthesisResult res = solve(target, options);
    EXPECT_EQ(res.found, res.stats.completed) << "node_budget=" << budget;
    EXPECT_EQ(res.found, res.optimal) << "node_budget=" << budget;
    EXPECT_NE(res.found, res.stats.budget_exhausted)
        << "node_budget=" << budget;
  }
  for (const double seconds : {1e-6, 1e-4, 1e-3, 3e-3, 1e-2}) {
    SearchOptions options;
    options.time_budget_seconds = seconds;
    const SynthesisResult res = solve(target, options);
    EXPECT_EQ(res.found, res.stats.completed) << "seconds=" << seconds;
    EXPECT_EQ(res.found, res.optimal) << "seconds=" << seconds;
    // Dicke(4,2) has a solution, so a run that stops without one was cut
    // by the deadline, even when the cut fell inside an expansion.
    EXPECT_NE(res.found, res.stats.budget_exhausted) << "seconds=" << seconds;
    if (res.found) EXPECT_EQ(res.cnot_cost, 6);
  }
}

TEST(AStar, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  const AStarSynthesizer synth;
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

}  // namespace
}  // namespace qsp
