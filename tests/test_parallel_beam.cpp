#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/lowering.hpp"
#include "core/beam.hpp"
#include "core/exact_synthesizer.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

/// The beam snapshot corpus of test_beam.cpp plus a few wider states: the
/// one-thread descent is the reference, and every other thread count must
/// reproduce each result bit for bit.
struct CorpusEntry {
  QuantumState target;
  BeamOptions options;
};

std::vector<CorpusEntry> determinism_corpus() {
  BeamOptions wide;
  wide.beam_width = 256;
  BeamOptions narrow;
  narrow.beam_width = 8;
  Rng rng77(77);
  Rng rng78(78);
  Rng rng90(90);
  std::vector<CorpusEntry> corpus;
  corpus.push_back({make_w(3), {}});
  corpus.push_back({make_ghz(4), {}});
  corpus.push_back({make_dicke(4, 2), {}});
  corpus.push_back({make_dicke(5, 1), wide});
  corpus.push_back({make_uniform(3, {0, 3, 5, 6}), {}});
  corpus.push_back({make_random_uniform(4, 6, rng77), {}});
  corpus.push_back({make_random_uniform(5, 8, rng78), {}});
  // Tiny widths stress the k-select/truncation boundary, where any
  // ordering nondeterminism would show first.
  corpus.push_back({make_random_uniform(4, 7, rng90), narrow});
  corpus.push_back({make_random_uniform(5, 5, rng90), narrow});
  return corpus;
}

/// The fields that must be bit-identical across thread counts (seconds
/// obviously excluded; budget-truncated runs are excluded by
/// construction — no corpus entry carries a deadline).
void expect_identical(const SynthesisResult& ref, const SynthesisResult& res,
                      const QuantumState& target, int threads) {
  const std::string ctx = target.to_string() +
                          " threads=" + std::to_string(threads);
  ASSERT_EQ(res.found, ref.found) << ctx;
  EXPECT_EQ(res.optimal, ref.optimal) << ctx;
  EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << ctx;
  EXPECT_TRUE(res.circuit == ref.circuit) << ctx;
  EXPECT_EQ(res.stats.nodes_generated, ref.stats.nodes_generated) << ctx;
  EXPECT_EQ(res.stats.nodes_expanded, ref.stats.nodes_expanded) << ctx;
  EXPECT_EQ(res.stats.classes_stored, ref.stats.classes_stored) << ctx;
  EXPECT_FALSE(res.stats.budget_exhausted) << ctx;
}

TEST(ParallelBeam, BitIdenticalToSerialAcrossThreadCounts) {
  // The serial reference is the one-thread descent: a single shard on the
  // calling thread.
  for (const CorpusEntry& entry : determinism_corpus()) {
    const BeamSynthesizer serial(entry.options);
    const SynthesisResult ref = serial.synthesize(entry.target);
    ASSERT_TRUE(ref.found) << entry.target.to_string();
    EXPECT_FALSE(ref.optimal);
    EXPECT_FALSE(ref.stats.budget_exhausted);
    verify_preparation_or_throw(ref.circuit, entry.target);
    EXPECT_EQ(count_cnots_after_lowering(ref.circuit), ref.cnot_cost);
    for (const int threads : {2, 8}) {
      BeamOptions options = entry.options;
      options.num_threads = threads;
      const SynthesisResult res =
          BeamSynthesizer(options).synthesize(entry.target);
      expect_identical(ref, res, entry.target, threads);
    }
  }
}

TEST(ParallelBeam, ZeroThreadsMeansAllHardwareThreads) {
  BeamOptions options;
  options.num_threads = 0;
  const QuantumState target = make_w(3);
  const SynthesisResult ref = BeamSynthesizer().synthesize(target);
  const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
  expect_identical(ref, res, target, 0);
}

TEST(ParallelBeam, CouplingConstrainedMatchesSerial) {
  // The canonicalization demotion and routed arc costs on incomplete
  // couplings must not depend on the shard count.
  BeamOptions serial_options;
  serial_options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  for (const QuantumState& target :
       {make_ghz(3), make_uniform(3, {0b000, 0b011, 0b101, 0b110})}) {
    const SynthesisResult ref =
        BeamSynthesizer(serial_options).synthesize(target);
    ASSERT_TRUE(ref.found);
    for (const int threads : {2, 8}) {
      BeamOptions options = serial_options;
      options.num_threads = threads;
      const SynthesisResult res = BeamSynthesizer(options).synthesize(target);
      expect_identical(ref, res, target, threads);
    }
  }
}

TEST(ParallelBeam, GroundIsImmediate) {
  BeamOptions options;
  options.num_threads = 4;
  const SynthesisResult res =
      BeamSynthesizer(options).synthesize(QuantumState(4));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 0);
  EXPECT_FALSE(res.stats.budget_exhausted);
}

TEST(ParallelBeam, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  BeamOptions options;
  options.num_threads = 2;
  const BeamSynthesizer synth(options);
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

TEST(ParallelBeam, BudgetTruncationIsFlagged) {
  // A deadline that expires mid-descent must be visible on the result —
  // a truncated descent is otherwise indistinguishable from a full one.
  BeamOptions tight;
  tight.num_threads = 4;
  tight.time_budget_seconds = 1e-9;
  const SynthesisResult res =
      BeamSynthesizer(tight).synthesize(make_dicke(5, 2));
  EXPECT_TRUE(res.stats.budget_exhausted);
  // And an unconstrained run of the same instance is not flagged.
  BeamOptions free_run;
  free_run.num_threads = 4;
  free_run.beam_width = 64;
  const SynthesisResult full =
      BeamSynthesizer(free_run).synthesize(make_dicke(5, 2));
  EXPECT_FALSE(full.stats.budget_exhausted);
}

TEST(ParallelBeam, ExactSynthesizerFallbackRunsParallelBeam) {
  // The facade's fallback path must honor beam.num_threads and still
  // match the one-thread fallback bit for bit (and keep the budget flag
  // from the aborted A* stage).
  ExactSynthesisOptions serial_options;
  serial_options.astar.node_budget = 50;  // force A* failure
  serial_options.beam.beam_width = 128;
  const QuantumState target = make_dicke(4, 2);
  const SynthesisResult ref =
      ExactSynthesizer(serial_options).synthesize(target);
  ASSERT_TRUE(ref.found);
  EXPECT_FALSE(ref.optimal);
  EXPECT_TRUE(ref.stats.budget_exhausted);  // the A* stage hit its budget
  ExactSynthesisOptions parallel_options = serial_options;
  parallel_options.beam.num_threads = 8;
  const SynthesisResult res =
      ExactSynthesizer(parallel_options).synthesize(target);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, ref.cnot_cost);
  EXPECT_TRUE(res.circuit == ref.circuit);
  EXPECT_TRUE(res.stats.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

}  // namespace
}  // namespace qsp
