#include "prep/mflow.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "circuit/lowering.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(MFlow, PreparesSingleBasisState) {
  const QuantumState s(3, {Term{0b101, 1.0}});
  const MFlowResult res = mflow_prepare(s);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, s);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 0);
}

TEST(MFlow, PreparesGhz) {
  const QuantumState ghz = make_ghz(4);
  const MFlowResult res = mflow_prepare(ghz);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, ghz);
}

TEST(MFlow, PreparesRandomSparseStates) {
  Rng rng(201);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(6));
    const QuantumState target = make_random_uniform(n, n, rng);
    const MFlowResult res = mflow_prepare(target);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, PreparesSignedStates) {
  Rng rng(202);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(3));
    const QuantumState target = make_random_real(n, n, rng);
    const MFlowResult res = mflow_prepare(target);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, SparseCostScalesLikeMN) {
  // O(mn) scaling: for m = n the cost should stay well below the n-flow
  // 2^n - 2 wall, growing roughly linearly in n.
  Rng rng(203);
  const int samples = 5;
  for (const int n : {8, 10, 12}) {
    double total = 0;
    for (int s = 0; s < samples; ++s) {
      const QuantumState target = make_random_uniform(n, n, rng);
      const MFlowResult res = mflow_prepare(target);
      ASSERT_FALSE(res.timed_out);
      total += static_cast<double>(count_cnots_after_lowering(res.circuit));
    }
    const double avg = total / samples;
    EXPECT_LT(avg, static_cast<double>((1 << n) - 2)) << "n=" << n;
    EXPECT_LT(avg, 60.0 * n) << "n=" << n;
  }
}

TEST(MFlow, CheapestStrategyNotWorse) {
  Rng rng(204);
  double greedy_total = 0, cheap_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const QuantumState target = make_random_uniform(10, 10, rng);
    MFlowOptions greedy;
    greedy.strategy = MFlowOptions::PairStrategy::kGreedyFirst;
    MFlowOptions cheap;
    cheap.strategy = MFlowOptions::PairStrategy::kCheapest;
    const auto g = mflow_prepare(target, greedy);
    const auto c = mflow_prepare(target, cheap);
    ASSERT_FALSE(g.timed_out || c.timed_out);
    verify_preparation_or_throw(g.circuit, target);
    verify_preparation_or_throw(c.circuit, target);
    greedy_total += static_cast<double>(count_cnots_after_lowering(g.circuit));
    cheap_total += static_cast<double>(count_cnots_after_lowering(c.circuit));
  }
  EXPECT_LE(cheap_total, greedy_total * 1.05);
}

TEST(MFlow, PrefixAdjacentStrategyVerifies) {
  Rng rng(205);
  MFlowOptions options;
  options.strategy = MFlowOptions::PairStrategy::kPrefixAdjacent;
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(7, 7, rng);
    const auto res = mflow_prepare(target, options);
    ASSERT_FALSE(res.timed_out);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(MFlow, ReduceStopsAtPredicate) {
  Rng rng(206);
  const QuantumState target = make_random_uniform(8, 8, rng);
  const auto reduction = mflow_reduce(
      target,
      [](const QuantumState& s) { return s.cardinality() <= 3; });
  EXPECT_FALSE(reduction.timed_out);
  EXPECT_LE(reduction.reduced.cardinality(), 3);
  EXPECT_GE(reduction.reduced.cardinality(), 1);
  // forward gates map target -> reduced: verify via adjoint preparation.
  Circuit forward(8);
  for (const Gate& g : reduction.forward_gates) forward.append(g);
  Circuit prep(8);
  // Prepare `reduced` trivially with a nested mflow, then undo.
  const MFlowResult tail = mflow_prepare(reduction.reduced);
  ASSERT_FALSE(tail.timed_out);
  prep.append(tail.circuit);
  prep.append(forward.adjoint());
  verify_preparation_or_throw(prep, target);
}

TEST(MFlow, TimeBudgetReportsTle) {
  Rng rng(207);
  // Effectively zero budget: must time out on a nontrivial state.
  const QuantumState target = make_random_uniform(12, 64, rng);
  MFlowOptions options;
  options.time_budget_seconds = 1e-9;
  const auto res = mflow_prepare(target, options);
  EXPECT_TRUE(res.timed_out);
}

TEST(MFlow, DenseStatesVerify) {
  Rng rng(208);
  const QuantumState target = make_random_uniform(6, 32, rng);
  const auto res = mflow_prepare(target);
  ASSERT_FALSE(res.timed_out);
  verify_preparation_or_throw(res.circuit, target);
}

/// FNV-1a over a gate list: kind, target, control literals and the bits
/// of theta and of every multiplexor angle.
std::uint64_t gate_digest(const std::vector<Gate>& gates, std::uint64_t h) {
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto bits = [](double x) {
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
  };
  for (const Gate& g : gates) {
    mix(static_cast<std::uint64_t>(g.kind()));
    mix(static_cast<std::uint64_t>(g.target()));
    for (const ControlLiteral& c : g.controls()) {
      mix(static_cast<std::uint64_t>(c.qubit) * 2 + (c.positive ? 1 : 0));
    }
    mix(bits(g.theta()));
    for (const double a : g.angles()) mix(bits(a));
  }
  return h;
}

TEST(MFlow, OutputsUnchangedAfterBitColumns) {
  // Frozen from the m-flow that costs each plan on a copy of the support
  // index by index, over both merge orientations: the bit-column costing
  // must pick the same (keep, drop, pivot) and controls on every merge.
  // The corpus spans n = 4..24 and m = 2..300, so the support's bit
  // columns take 1, 2 and 5 words; signed and unsigned amplitudes; GHZ,
  // W and Dicke.
  std::vector<QuantumState> corpus = {make_ghz(12), make_w(10), make_w(16),
                                      make_dicke(6, 3), make_dicke(8, 2)};
  Rng rng(2323);
  const int shapes[][2] = {{4, 2},   {4, 5},    {4, 16},   {6, 12},
                           {6, 40},  {8, 64},   {8, 65},   {10, 20},
                           {10, 130}, {12, 100}, {14, 42}, {16, 300},
                           {20, 80}, {22, 44},  {24, 300}};
  for (const auto& [n, m] : shapes) {
    corpus.push_back(make_random_uniform(n, m, rng));
    corpus.push_back(make_random_real(n, m, rng));
    corpus.push_back(make_random_real(n, m, rng, false));
  }
  using Strategy = MFlowOptions::PairStrategy;
  struct Pin {
    Strategy strategy;
    bool reduce;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {Strategy::kGreedyFirst, false, 14954871329484348486ull},
      {Strategy::kCheapest, false, 13417445587088670827ull},
      {Strategy::kPrefixAdjacent, false, 12589630488065472562ull},
      {Strategy::kCheapest, true, 16164371140289324447ull}};
  for (const Pin& pin : pins) {
    MFlowOptions options;
    options.strategy = pin.strategy;
    std::uint64_t h = 1469598103934665603ull;
    for (const QuantumState& target : corpus) {
      if (pin.reduce) {
        const MFlowReduction reduction = mflow_reduce(
            target,
            [](const QuantumState& s) { return s.cardinality() <= 16; },
            options);
        ASSERT_FALSE(reduction.timed_out);
        h = gate_digest(reduction.forward_gates, h);
      } else {
        const MFlowResult res = mflow_prepare(target, options);
        ASSERT_FALSE(res.timed_out);
        h = gate_digest(res.circuit.gates(), h);
      }
    }
    EXPECT_EQ(h, pin.digest) << "strategy " << static_cast<int>(pin.strategy)
                             << (pin.reduce ? " (reduce)" : "");
  }
}

}  // namespace
}  // namespace qsp
