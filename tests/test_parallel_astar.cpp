#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "core/astar.hpp"
#include "core/search_core.hpp"
#include "circuit/lowering.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

/// The fixture corpus of test_astar.cpp: every state the one-thread search
/// certifies, so every other shard count must reproduce the exact
/// cnot_cost and the `optimal` flag on each of them.
std::vector<QuantumState> certificate_corpus() {
  std::vector<QuantumState> corpus;
  corpus.push_back(QuantumState(3));                                // ground
  corpus.push_back(make_uniform(3, {0, 1, 2, 3, 4, 5, 6, 7}));     // product
  corpus.push_back(make_uniform(2, {0b10, 0b11}));                 // product
  corpus.push_back(make_ghz(2));                                   // Bell
  corpus.push_back(make_ghz(3));
  corpus.push_back(make_ghz(4));
  corpus.push_back(make_ghz(5));
  corpus.push_back(make_uniform(3, {0b000, 0b011, 0b101, 0b110}));  // Fig. 3
  corpus.push_back(make_w(3));
  corpus.push_back(make_dicke(4, 2));
  Rng rng(2024);  // the seed of AStar.RandomUniformStatesAlwaysVerify
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const int m = 2 + static_cast<int>(rng.next_below(7));
    corpus.push_back(make_random_uniform(n, m, rng));
  }
  return corpus;
}

TEST(ParallelAStar, MatchesSerialCertificateAcrossThreadCounts) {
  // The serial reference is the one-thread search: a single shard on the
  // calling thread. The certificate is invariant in the shard count.
  const AStarSynthesizer serial;
  for (const QuantumState& target : certificate_corpus()) {
    const SynthesisResult ref = serial.synthesize(target);
    ASSERT_TRUE(ref.found) << target.to_string();
    EXPECT_TRUE(ref.optimal) << target.to_string();
    for (const int threads : {2, 8}) {
      SearchOptions options;
      options.num_threads = threads;
      const SynthesisResult res = AStarSynthesizer(options).synthesize(target);
      ASSERT_TRUE(res.found)
          << target.to_string() << " threads=" << threads;
      EXPECT_EQ(res.cnot_cost, ref.cnot_cost)
          << target.to_string() << " threads=" << threads;
      EXPECT_EQ(res.optimal, ref.optimal)
          << target.to_string() << " threads=" << threads;
      EXPECT_TRUE(res.stats.completed);
      verify_preparation_or_throw(res.circuit, target);
      EXPECT_EQ(count_cnots_after_lowering(res.circuit), res.cnot_cost);
    }
  }
}

TEST(ParallelAStar, ZeroThreadsMeansAllHardwareThreads) {
  EXPECT_GE(resolve_num_threads(0), 1);
  SearchOptions options;
  options.num_threads = 0;
  const SynthesisResult res = AStarSynthesizer(options).synthesize(make_ghz(3));
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cnot_cost, 2);
  EXPECT_TRUE(res.optimal);
}

TEST(ParallelAStar, StatsAggregateAcrossShards) {
  SearchOptions options;
  options.num_threads = 8;
  const SynthesisResult res =
      AStarSynthesizer(options).synthesize(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.stats.completed);
  EXPECT_GT(res.stats.nodes_expanded, 0u);
  EXPECT_GT(res.stats.nodes_generated, res.stats.nodes_expanded);
  EXPECT_GT(res.stats.classes_stored, 1u);
  EXPECT_GT(res.stats.sum_shard_peak_open_size, 0u);
  // Every push is a generated arc (plus the root), and per-shard peaks
  // bound per-shard pushes, so the sum obeys the same global bound the
  // one-shard true peak does.
  EXPECT_LE(res.stats.sum_shard_peak_open_size,
            res.stats.nodes_generated + 1);
}

TEST(ParallelAStar, SumShardPeakSumsPeaksThatNeedNotCoincide) {
  // Pin the stat's semantics at the OpenQueue level: each shard reports
  // its own lifetime peak, so the sum can exceed any instantaneous
  // global population — here queue A peaks at 3, is drained to empty,
  // and only then does queue B peak at 2: no moment ever holds 5
  // entries, yet the reported sum is 5. sum_shard_peak_open_size is an
  // upper bound on the true global peak, not the peak itself.
  OpenQueue a;
  OpenQueue b;
  std::uint64_t stale = 0;
  const auto g_of = [](std::int64_t) { return std::int64_t{0}; };
  for (std::int64_t id = 0; id < 3; ++id) a.push(id, 0, id, 0);
  while (a.pop_best(g_of, stale).has_value()) {
  }
  ASSERT_TRUE(a.empty());
  for (std::int64_t id = 0; id < 2; ++id) b.push(id, 0, id, 0);
  EXPECT_EQ(a.peak_size() + b.peak_size(), 5u);
}

TEST(ParallelAStar, BudgetExhaustionReportsNotFound) {
  SearchOptions tight;
  tight.num_threads = 4;
  tight.node_budget = 10;
  const SynthesisResult res =
      AStarSynthesizer(tight).synthesize(make_dicke(4, 2));
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.stats.completed);
  EXPECT_TRUE(res.stats.budget_exhausted);
}

TEST(ParallelAStar, WallDeadlineNeverCertifiesATruncatedExpansion) {
  // A deadline that cuts an expansion short loses successors, so the
  // search must end aborted rather than let an idle shard certify an
  // incumbent found elsewhere. Every outcome is therefore either a
  // certified optimum or a budget abort, wherever the deadline falls, and
  // an abort returns no circuit at any shard count (an incumbent's arc
  // chain may cross nodes that other shards have since rebound).
  const QuantumState target = make_dicke(4, 2);
  for (const int threads : {1, 2, 8}) {
    for (double seconds = 1e-5; seconds < 3e-2; seconds *= 1.6) {
      SearchOptions options;
      options.num_threads = threads;
      options.time_budget_seconds = seconds;
      const SynthesisResult res =
          AStarSynthesizer(options).synthesize(target);
      const std::string ctx = "threads=" + std::to_string(threads) +
                              " seconds=" + std::to_string(seconds);
      EXPECT_NE(res.stats.completed, res.stats.budget_exhausted) << ctx;
      EXPECT_EQ(res.found, res.stats.completed) << ctx;
      EXPECT_EQ(res.optimal, res.stats.completed) << ctx;
      if (res.stats.completed) EXPECT_EQ(res.cnot_cost, 6) << ctx;
      if (res.found) verify_preparation_or_throw(res.circuit, target);
    }
  }
}

TEST(ParallelAStar, CouplingConstrainedCostsMatchSerial) {
  // The canonicalization demotion on incomplete couplings (routed costs
  // included) must not depend on the shard count.
  SearchOptions serial_options;
  serial_options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  for (const QuantumState& target :
       {make_ghz(3), make_uniform(3, {0b000, 0b011, 0b101, 0b110})}) {
    const SynthesisResult ref =
        AStarSynthesizer(serial_options).synthesize(target);
    ASSERT_TRUE(ref.found);
    for (const int threads : {2, 8}) {
      SearchOptions options = serial_options;
      options.num_threads = threads;
      const SynthesisResult res = AStarSynthesizer(options).synthesize(target);
      ASSERT_TRUE(res.found) << "threads=" << threads;
      EXPECT_EQ(res.cnot_cost, ref.cnot_cost) << "threads=" << threads;
      EXPECT_EQ(res.optimal, ref.optimal) << "threads=" << threads;
    }
  }
}

TEST(ParallelAStar, ThrowsOnNonSlotState) {
  const QuantumState signed_state(2, {Term{0, 1.0}, Term{3, -1.0}});
  SearchOptions options;
  options.num_threads = 2;
  const AStarSynthesizer synth(options);
  EXPECT_THROW(synth.synthesize(signed_state), std::invalid_argument);
}

}  // namespace
}  // namespace qsp
