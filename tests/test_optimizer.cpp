#include <gtest/gtest.h>

#include <cmath>

#include "circuit/pass_pipeline.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

void expect_same_unitary(const Circuit& a, const Circuit& b, int n) {
  for (BasisIndex x = 0; x < (BasisIndex{1} << n); ++x) {
    std::vector<double> basis(std::size_t{1} << n, 0.0);
    basis[x] = 1.0;
    Statevector sa(QuantumState::from_dense(n, basis));
    Statevector sb(QuantumState::from_dense(n, basis));
    sa.apply(a);
    sb.apply(b);
    for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
      ASSERT_NEAR(sa.amplitudes()[i], sb.amplitudes()[i], 1e-9);
    }
  }
}

TEST(Optimizer, DropsZeroRotations) {
  Circuit c(2);
  c.append(Gate::ry(0, 0.0));
  c.append(Gate::cry(0, 1, 1e-15));
  c.append(Gate::ry(1, 0.5));
  const Circuit o = optimize_circuit(c);
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.gates()[0].kind(), GateKind::kRy);
}

TEST(Optimizer, CancelsAdjacentCnotPairs) {
  Circuit c(3);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::x(2));
  c.append(Gate::x(2));
  PipelineReport report;
  const Circuit o = optimize_circuit(c, {}, &report);
  EXPECT_EQ(o.size(), 0u);
  EXPECT_EQ(report.cnot_cost_delta(), 2);
  EXPECT_GE(report.iterations, 1);
}

TEST(Optimizer, DoesNotCancelAcrossInterferingGates) {
  Circuit c(2);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::ry(1, 0.3));  // touches the target wire
  c.append(Gate::cnot(0, 1));
  const Circuit o = optimize_circuit(c);
  EXPECT_EQ(o.size(), 3u);
}

TEST(Optimizer, CancelsAcrossUnrelatedWires) {
  Circuit c(3);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::ry(2, 0.3));  // disjoint wire: commutes trivially
  c.append(Gate::cnot(0, 1));
  const Circuit o = optimize_circuit(c);
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.gates()[0].kind(), GateKind::kRy);
}

TEST(Optimizer, FusesRotations) {
  Circuit c(2);
  c.append(Gate::ry(0, 0.4));
  c.append(Gate::ry(0, 0.6));
  c.append(Gate::cry(0, 1, 0.2));
  c.append(Gate::cry(0, 1, -0.2));
  const Circuit o = optimize_circuit(c);
  ASSERT_EQ(o.size(), 1u);
  EXPECT_NEAR(o.gates()[0].theta(), 1.0, 1e-12);
}

TEST(Optimizer, PolarityMatters) {
  Circuit c(2);
  c.append(Gate::cnot(0, 1, true));
  c.append(Gate::cnot(0, 1, false));
  const Circuit o = optimize_circuit(c);
  EXPECT_EQ(o.size(), 2u);  // different literals: no cancellation
}

TEST(Optimizer, ChainCancellation) {
  // X X X X collapses fully across repeated passes.
  Circuit c(1);
  for (int i = 0; i < 4; ++i) c.append(Gate::x(0));
  EXPECT_EQ(optimize_circuit(c).size(), 0u);
}

TEST(Optimizer, PreservesUnitaryOnRandomCircuits) {
  Rng rng(91);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 3;
    Circuit c(n);
    for (int g = 0; g < 40; ++g) {
      const int t = static_cast<int>(rng.next_below(n));
      const int ctrl = (t + 1 + static_cast<int>(rng.next_below(n - 1))) % n;
      switch (rng.next_below(4)) {
        case 0:
          c.append(Gate::ry(t, rng.next_bool(0.3)
                                   ? 0.0
                                   : rng.next_double(-1, 1)));
          break;
        case 1:
          c.append(Gate::x(t));
          break;
        case 2:
          c.append(Gate::cnot(ctrl, t, rng.next_bool()));
          break;
        default:
          c.append(Gate::cry(ctrl, t, rng.next_double(-1, 1)));
          break;
      }
    }
    const Circuit o = optimize_circuit(c);
    EXPECT_LE(o.size(), c.size());
    expect_same_unitary(c, o, n);
  }
}

TEST(Optimizer, UcryFusion) {
  Circuit c(2);
  c.append(Gate::ucry({0}, 1, {0.3, -0.2}));
  c.append(Gate::ucry({0}, 1, {-0.3, 0.2}));
  EXPECT_EQ(optimize_circuit(c).size(), 0u);
  Circuit d(2);
  d.append(Gate::ucry({0}, 1, {0.3, -0.2}));
  d.append(Gate::ucry({0}, 1, {0.1, 0.0}));
  const Circuit od = optimize_circuit(d);
  ASSERT_EQ(od.size(), 1u);
  EXPECT_NEAR(od.gates()[0].angles()[0], 0.4, 1e-12);
}

}  // namespace
}  // namespace qsp
