#include "core/beam.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/lowering.hpp"
#include "core/exact_synthesizer.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(Beam, FindsVerifiedCircuits) {
  const BeamSynthesizer beam;
  Rng rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(3));
    const int m = 2 + static_cast<int>(rng.next_below(6));
    const QuantumState target = make_random_uniform(n, m, rng);
    const SynthesisResult res = beam.synthesize(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_FALSE(res.optimal);  // beam never certifies
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

TEST(Beam, NearOptimalOnSmallInstances) {
  // Beam cost must be >= the exact optimum and usually close.
  const AStarSynthesizer exact;
  const BeamSynthesizer beam;
  Rng rng(56);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 5, rng);
    const SynthesisResult b = beam.synthesize(target);
    const SynthesisResult e = exact.synthesize(target);
    ASSERT_TRUE(b.found && e.found);
    EXPECT_GE(b.cnot_cost, e.cnot_cost);
    EXPECT_LE(b.cnot_cost, e.cnot_cost * 2 + 2);
  }
}

TEST(Beam, GroundIsImmediate) {
  const BeamSynthesizer beam;
  const SynthesisResult res = beam.synthesize(QuantumState(4));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 0);
}

TEST(Beam, HandlesDickeFive) {
  BeamOptions options;
  options.beam_width = 256;
  const BeamSynthesizer beam(options);
  const QuantumState target = make_dicke(5, 1);
  const SynthesisResult res = beam.synthesize(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  // W_5 manual design uses 10 CNOTs; beam should be competitive.
  EXPECT_LE(res.cnot_cost, 16);
}

TEST(ExactSynthesizer, FallsBackToBeam) {
  ExactSynthesisOptions options;
  options.astar.node_budget = 50;  // force A* failure
  options.beam.beam_width = 128;
  const ExactSynthesizer synth(options);
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult res = synth.synthesize(target);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.optimal);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(ExactSynthesizer, PrefersAStarWhenFeasible) {
  const ExactSynthesizer synth;
  const SynthesisResult res = synth.synthesize(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.cnot_cost, 6);
}

TEST(Beam, DickeFiveTwoBeatsManualDesign) {
  // |D^2_5>: manual formula gives 20 CNOTs, the paper's exact run 16. The
  // beam must find a verified circuit at or below the manual cost.
  BeamOptions options;
  options.beam_width = 256;
  // Generous: the descent takes ~3s native; the margin absorbs the
  // ASan/UBSan slowdown (the test stays excluded from the TSan job).
  options.time_budget_seconds = 90.0;
  const BeamSynthesizer beam(options);
  const QuantumState target = make_dicke(5, 2);
  const SynthesisResult res = beam.synthesize(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_LE(res.cnot_cost, 20);
}

TEST(Beam, ResultsUnchangedAfterSearchCorePort) {
  // Frozen costs and class counts on fixed seeds: any unintentional
  // behavior drift in the level loop must fail here. Re-frozen with the
  // level-synchronous rewrite that (a) deduplicates candidates per
  // canonical class (one class can no longer occupy several beam slots —
  // rand(5,8) improves 14 -> 12 CNOTs), (b) freezes the incumbent bound
  // at level entry (a few more classes stored, but pruning no longer
  // depends on within-level discovery order, which is what lets the
  // parallel beam match bit for bit), and (c) orders candidates by
  // (score, h, canonical key). The search effort and the circuit's gate
  // count and depth were frozen from the serial descent that the one-shard
  // sharded beam replaced.
  struct Snapshot {
    QuantumState target;
    BeamOptions options;
    std::int64_t cost;
    std::uint64_t classes;
    std::uint64_t expanded;
    std::uint64_t generated;
    std::size_t gates;
    std::size_t depth;
  };
  BeamOptions wide;
  wide.beam_width = 256;
  Rng rng77(77);
  Rng rng78(78);
  std::vector<Snapshot> snapshots;
  snapshots.push_back({make_w(3), {}, 4, 7, 7, 221, 5, 4});
  snapshots.push_back({make_dicke(4, 2), {}, 6, 365, 339, 35602, 8, 5});
  snapshots.push_back({make_dicke(5, 1), wide, 10, 501, 597, 149510, 9, 8});
  snapshots.push_back({make_uniform(3, {0, 3, 5, 6}), {}, 2, 8, 3, 92, 4, 3});
  snapshots.push_back(
      {make_random_uniform(4, 6, rng77), {}, 8, 331, 283, 28473, 6, 5});
  snapshots.push_back(
      {make_random_uniform(5, 8, rng78), {}, 12, 23192, 2689, 851386, 10, 7});
  for (const Snapshot& snap : snapshots) {
    const std::string ctx = snap.target.to_string();
    const BeamSynthesizer beam(snap.options);
    const SynthesisResult res = beam.synthesize(snap.target);
    ASSERT_TRUE(res.found) << ctx;
    EXPECT_EQ(res.cnot_cost, snap.cost) << ctx;
    EXPECT_EQ(res.stats.classes_stored, snap.classes) << ctx;
    EXPECT_EQ(res.stats.nodes_expanded, snap.expanded) << ctx;
    EXPECT_EQ(res.stats.nodes_generated, snap.generated) << ctx;
    EXPECT_EQ(res.circuit.size(), snap.gates) << ctx;
    EXPECT_EQ(res.circuit.depth(), snap.depth) << ctx;
    verify_preparation_or_throw(res.circuit, snap.target);
  }
}

TEST(Beam, DuplicateClassCannotCrowdOutNeededClasses) {
  // Regression for the duplicate-class beam-slot bug: when a child
  // improved an already-seen class's best_g within the same level, the
  // new node was appended to the candidate list while the stale sibling
  // of the same canonical class was still in it, so after truncation one
  // class could occupy several beam slots and evict distinct classes the
  // descent needed. On this instance the pre-fix beam returned 25 / 24 /
  // 20 CNOTs at widths 2 / 3 / 4 (exact optimum: 8) because narrow beams
  // kept filling with one class's duplicates; with per-class
  // deduplication every width reaches 15 or better.
  const QuantumState target = make_uniform(
      4, {0b0000, 0b0011, 0b0110, 0b0111, 0b1001, 0b1010, 0b1011, 0b1100,
          0b1110});
  for (const int width : {2, 3, 4}) {
    BeamOptions options;
    options.beam_width = width;
    const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
    ASSERT_TRUE(res.found) << "width=" << width;
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_LE(res.cnot_cost, 15) << "width=" << width;
  }
  // Widths below 1 hold no frontier. They are rejected up front, directly
  // and through the A* fallback, instead of failing inside the descent
  // (-3) or passing for a finished descent that found nothing (0).
  for (const int width : {0, -3}) {
    BeamOptions options;
    options.beam_width = width;
    EXPECT_THROW(BeamSynthesizer(options).synthesize(target),
                 std::invalid_argument)
        << "width=" << width;
    ExactSynthesisOptions exact;
    exact.astar.node_budget = 10;  // force the fallback
    exact.beam = options;
    EXPECT_THROW(ExactSynthesizer(exact).synthesize(target),
                 std::invalid_argument)
        << "width=" << width;
  }
}

TEST(Beam, BudgetTruncationIsFlagged) {
  // The deadline break inside a level used to truncate candidate
  // generation silently: the returned SynthesisResult was
  // indistinguishable from a full descent. It must now carry
  // SearchStats::budget_exhausted.
  BeamOptions tight;
  tight.time_budget_seconds = 1e-9;
  const SynthesisResult res =
      BeamSynthesizer(tight).synthesize(make_dicke(5, 2));
  EXPECT_TRUE(res.stats.budget_exhausted);
  BeamOptions free_run;
  free_run.beam_width = 64;
  const SynthesisResult full =
      BeamSynthesizer(free_run).synthesize(make_dicke(5, 2));
  ASSERT_TRUE(full.found);
  EXPECT_FALSE(full.stats.budget_exhausted);
}

TEST(Beam, IncumbentPruningKeepsBestGoal) {
  // The first goal reached need not be the returned one: later levels may
  // improve it. Just assert the returned cost is consistent and verified
  // across a few seeds.
  Rng rng(58);
  const BeamSynthesizer beam;
  for (int trial = 0; trial < 4; ++trial) {
    const QuantumState target = make_random_uniform(5, 5, rng);
    const SynthesisResult res = beam.synthesize(target);
    ASSERT_TRUE(res.found);
    verify_preparation_or_throw(res.circuit, target);
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
  }
}

}  // namespace
}  // namespace qsp
