#include "phase/phase_oracle.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/lowering.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(ComplexState, MagnitudesAndPhases) {
  const ComplexState s(2, {ComplexTerm{0, std::polar(1.0, 0.5)},
                           ComplexTerm{2, std::polar(1.0, -1.2)}});
  const QuantumState mag = s.magnitudes();
  EXPECT_TRUE(mag.is_uniform());
  const auto phases = s.phases();
  EXPECT_NEAR(phases[0], 0.5, 1e-12);
  EXPECT_NEAR(phases[1], -1.2, 1e-12);
}

TEST(ComplexStatevector, MatchesRealSimulatorOnRealCircuits) {
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 3;
    Circuit c(n);
    for (int g = 0; g < 20; ++g) {
      const int t = static_cast<int>(rng.next_below(n));
      const int ctrl = (t + 1 + static_cast<int>(rng.next_below(n - 1))) % n;
      if (rng.next_bool()) {
        c.append(Gate::ry(t, rng.next_double(-2, 2)));
      } else {
        c.append(Gate::cnot(ctrl, t));
      }
    }
    Statevector real(n);
    ComplexStatevector cplx(n);
    real.apply(c);
    cplx.apply(c);
    for (std::size_t i = 0; i < real.amplitudes().size(); ++i) {
      EXPECT_NEAR(cplx.amplitudes()[i].real(), real.amplitudes()[i], 1e-9);
      EXPECT_NEAR(cplx.amplitudes()[i].imag(), 0.0, 1e-12);
    }
  }
}

TEST(ComplexStatevector, RzConvention) {
  ComplexStatevector sv(1);
  sv.apply(Gate::rz(0, kPi / 2));
  // Rz only shifts phases: |0> -> e^{-i pi/4} |0>.
  EXPECT_NEAR(std::arg(sv.amplitudes()[0]), -kPi / 4, 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1.0, 1e-12);
}

TEST(ComplexStatevector, NormPreserved) {
  Rng rng(72);
  ComplexStatevector sv(3);
  sv.apply(Gate::ry(0, 1.0));
  sv.apply(Gate::cnot(0, 1));
  sv.apply(Gate::ucrz({0, 1}, 2, {0.1, -0.9, 2.0, 0.4}));
  sv.apply(Gate::rz(1, -0.7));
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(PhaseOracle, ImprintsArbitraryPhaseTable) {
  Rng rng(73);
  for (int n = 2; n <= 5; ++n) {
    std::vector<double> table(std::size_t{1} << n);
    for (double& p : table) p = rng.next_double(-kPi, kPi);
    const Circuit oracle = synthesize_phase_oracle(n, table);

    // Apply to the uniform superposition and compare phases pointwise.
    ComplexStatevector sv(n);
    for (int q = 0; q < n; ++q) sv.apply(Gate::ry(q, kPi / 2));
    sv.apply(oracle);
    const double global =
        std::arg(sv.amplitudes()[0]) - table[0];
    for (std::size_t x = 0; x < table.size(); ++x) {
      const double got = std::arg(sv.amplitudes()[x]);
      double diff = got - table[x] - global;
      while (diff > kPi) diff -= 2 * kPi;
      while (diff < -kPi) diff += 2 * kPi;
      EXPECT_NEAR(diff, 0.0, 1e-9) << "n=" << n << " x=" << x;
    }
  }
}

TEST(PhaseOracle, CostIsAtMostFullChain) {
  Rng rng(74);
  std::vector<double> table(16);
  for (double& p : table) p = rng.next_double(-kPi, kPi);
  const Circuit oracle = synthesize_phase_oracle(4, table);
  EXPECT_EQ(count_cnots_after_lowering(oracle), 14);  // 2^4 - 2
}

TEST(PhaseOracle, RealTargetElidesToNothing) {
  // All-zero phases: with elision the oracle lowers to zero gates.
  const Circuit oracle =
      synthesize_phase_oracle(4, std::vector<double>(16, 0.0));
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  EXPECT_EQ(lower(oracle, elide).size(), 0u);
}

TEST(PhaseOracle, SparseVariantMatchesFullTable) {
  const std::vector<std::pair<BasisIndex, double>> phases{{1, 0.7},
                                                          {6, -1.3}};
  const Circuit a = synthesize_phase_oracle(3, phases);
  std::vector<double> table(8, 0.0);
  table[1] = 0.7;
  table[6] = -1.3;
  const Circuit b = synthesize_phase_oracle(3, table);
  EXPECT_EQ(a, b);
  EXPECT_THROW(
      synthesize_phase_oracle(2, {{std::pair<BasisIndex, double>{9, 1.0}}}),
      std::invalid_argument);
}

TEST(PrepareComplex, RandomComplexStatesVerify) {
  Rng rng(75);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(3));
    const int m = 2 + static_cast<int>(rng.next_below(5));
    const ComplexState target = make_random_complex(n, m, rng);
    const ComplexPrepResult res = prepare_complex(target);
    ASSERT_TRUE(res.found);
    EXPECT_TRUE(verify_preparation(res.circuit, target).ok)
        << target.to_string();
  }
}

TEST(PrepareComplex, RealStatesPayNoPhaseCost) {
  Rng rng(76);
  const QuantumState real = make_random_uniform(4, 4, rng);
  const ComplexState lifted = ComplexState::from_real(real);
  const ComplexPrepResult res = prepare_complex(lifted);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(verify_preparation(res.circuit, lifted).ok);
  // The oracle contributes only zero-angle UCRz gates, which the eliding
  // lowering removes; the total equals the magnitude preparation alone.
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  const Solver solver;
  const WorkflowResult mag = solver.prepare(real);
  ASSERT_TRUE(mag.found);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit, elide),
            count_cnots_after_lowering(mag.circuit, elide));
}

TEST(PrepareComplex, DensePathWithPhases) {
  Rng rng(77);
  const ComplexState target = make_random_complex(5, 16, rng);
  const ComplexPrepResult res = prepare_complex(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(verify_preparation(res.circuit, target).ok);
}

}  // namespace
}  // namespace qsp
