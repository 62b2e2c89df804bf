#include "circuit/lowering.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pass_test_util.hpp"
#include "sim/statevector.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

// ---------------------------------------------------------------------------
// Frozen copy of the pre-refactor monolithic lower() (the single-function
// implementation the staged passes replaced), kept verbatim as the oracle
// for the bit-identity regression below: on the identity (CNOT) target the
// staged pipeline must reproduce this walk gate for gate, because every
// benchmark table and committed baseline was measured against it.
// ---------------------------------------------------------------------------
namespace legacy {

/// The elision threshold the oracle was frozen with.
constexpr double kAngleEpsilon = 1e-12;

void emit_ucr(Circuit& out, const std::vector<int>& controls, int target,
              const std::vector<double>& pattern_angles,
              const LoweringOptions& options, bool z_axis);

void emit_ucry(Circuit& out, const std::vector<int>& controls, int target,
               const std::vector<double>& pattern_angles,
               const LoweringOptions& options) {
  emit_ucr(out, controls, target, pattern_angles, options, /*z_axis=*/false);
}

void emit_cry(Circuit& out, const ControlLiteral& c, int target,
              double theta) {
  const double a = theta / 2;
  const double b = c.positive ? -theta / 2 : theta / 2;
  out.append(Gate::ry(target, a));
  out.append(Gate::cnot(c.qubit, target));
  out.append(Gate::ry(target, b));
  out.append(Gate::cnot(c.qubit, target));
}

void emit_ucr(Circuit& out, const std::vector<int>& controls, int target,
              const std::vector<double>& pattern_angles,
              const LoweringOptions& options, bool z_axis) {
  auto rotation = [&](double theta) {
    return z_axis ? Gate::rz(target, theta) : Gate::ry(target, theta);
  };
  const std::size_t c = controls.size();
  if (c == 0) {
    if (std::abs(pattern_angles[0]) > kAngleEpsilon ||
        !options.elide_zero_rotations) {
      out.append(rotation(pattern_angles[0]));
    }
    return;
  }
  const std::vector<double> phi = ucry_multiplexor_angles(pattern_angles);
  const std::uint32_t slots = std::uint32_t{1} << c;
  std::uint32_t pending_mask = 0;
  auto flush = [&] {
    for (std::size_t b = 0; b < c; ++b) {
      if ((pending_mask >> b) & 1u) {
        out.append(Gate::cnot(controls[b], target));
      }
    }
    pending_mask = 0;
  };
  for (std::uint32_t j = 0; j < slots; ++j) {
    const bool zero = std::abs(phi[j]) <= kAngleEpsilon;
    if (!options.elide_zero_rotations || !zero) {
      flush();
      out.append(rotation(phi[j]));
    }
    const int change =
        (j + 1 == slots) ? static_cast<int>(c) - 1 : gray_change_bit(j);
    pending_mask ^= std::uint32_t{1} << change;
  }
  flush();
}

Circuit lower(const Circuit& circuit, const LoweringOptions& options) {
  Circuit out(circuit.num_qubits());
  auto trivial = [&](const Gate& g) {
    return options.elide_zero_rotations &&
           std::abs(g.theta()) <= kAngleEpsilon;
  };
  for (const Gate& g : circuit.gates()) {
    switch (g.kind()) {
      case GateKind::kX:
        out.append(g);
        break;
      case GateKind::kRy:
        if (!trivial(g)) out.append(g);
        break;
      case GateKind::kCNOT: {
        const ControlLiteral c = g.controls()[0];
        if (c.positive) {
          out.append(g);
        } else {
          out.append(Gate::x(c.qubit));
          out.append(Gate::cnot(c.qubit, g.target()));
          out.append(Gate::x(c.qubit));
        }
        break;
      }
      case GateKind::kCRy:
        emit_cry(out, g.controls()[0], g.target(), g.theta());
        break;
      case GateKind::kMCRy: {
        const Gate u = mcry_to_ucry(g);
        std::vector<int> controls;
        for (const auto& c : u.controls()) controls.push_back(c.qubit);
        emit_ucry(out, controls, u.target(), u.angles(), options);
        break;
      }
      case GateKind::kUCRy: {
        std::vector<int> controls;
        for (const auto& c : g.controls()) controls.push_back(c.qubit);
        emit_ucry(out, controls, g.target(), g.angles(), options);
        break;
      }
      case GateKind::kRz:
        if (!trivial(g)) out.append(g);
        break;
      case GateKind::kUCRz: {
        std::vector<int> controls;
        for (const auto& c : g.controls()) controls.push_back(c.qubit);
        emit_ucr(out, controls, g.target(), g.angles(), options,
                 /*z_axis=*/true);
        break;
      }
      default:
        // The monolithic lower() predates the device-native kinds; the
        // seed corpus never contains them.
        throw std::logic_error("legacy_lower: unexpected gate kind");
    }
  }
  return out;
}

}  // namespace legacy

/// Unitary-equality check on the full basis: applies both circuits to each
/// computational basis state and compares the resulting vectors.
void expect_same_unitary(const Circuit& a, const Circuit& b, int n) {
  for (BasisIndex x = 0; x < (BasisIndex{1} << n); ++x) {
    std::vector<double> basis(std::size_t{1} << n, 0.0);
    basis[x] = 1.0;
    Statevector sa(QuantumState::from_dense(n, basis));
    Statevector sb(QuantumState::from_dense(n, basis));
    sa.apply(a);
    sb.apply(b);
    for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
      ASSERT_NEAR(sa.amplitudes()[i], sb.amplitudes()[i], 1e-9)
          << "basis " << x << " component " << i;
    }
  }
}

TEST(Lowering, CryCostsTwoCnots) {
  Circuit c(2);
  c.append(Gate::cry(0, 1, 0.7));
  const Circuit low = lower(c);
  EXPECT_EQ(lowered_cnot_count(low), 2);
  expect_same_unitary(c, low, 2);
}

TEST(Lowering, NegativeControlCry) {
  Circuit c(2);
  c.append(Gate::cry(0, 1, 1.1, /*positive=*/false));
  const Circuit low = lower(c);
  EXPECT_EQ(lowered_cnot_count(low), 2);
  expect_same_unitary(c, low, 2);
}

TEST(Lowering, NegativeControlCnot) {
  Circuit c(2);
  c.append(Gate::cnot(0, 1, /*positive=*/false));
  const Circuit low = lower(c);
  EXPECT_EQ(lowered_cnot_count(low), 1);
  expect_same_unitary(c, low, 2);
}

TEST(Lowering, McryCostsPowerOfTwo) {
  for (int controls = 2; controls <= 4; ++controls) {
    Circuit c(controls + 1);
    std::vector<ControlLiteral> literals;
    for (int q = 0; q < controls; ++q) {
      literals.push_back(ControlLiteral{q, (q % 2) == 0});
    }
    c.append(Gate::mcry(literals, controls, 0.9));
    const Circuit low = lower(c);
    EXPECT_EQ(lowered_cnot_count(low), std::int64_t{1} << controls);
    expect_same_unitary(c, low, controls + 1);
  }
}

TEST(Lowering, UcryExactCost) {
  Rng rng(17);
  for (int controls = 1; controls <= 4; ++controls) {
    std::vector<int> cq;
    for (int q = 0; q < controls; ++q) cq.push_back(q);
    std::vector<double> angles(std::size_t{1} << controls);
    for (double& a : angles) a = rng.next_double(-3, 3);
    Circuit c(controls + 1);
    c.append(Gate::ucry(cq, controls, angles));
    const Circuit low = lower(c);
    EXPECT_EQ(lowered_cnot_count(low), std::int64_t{1} << controls);
    expect_same_unitary(c, low, controls + 1);
  }
}

TEST(Lowering, UcryElisionSavesOnZeroAngles) {
  // Angle table constant on one control: half the multiplexor rotations
  // vanish in the Walsh basis and elision shortens the chain.
  Circuit c(3);
  c.append(Gate::ucry({0, 1}, 2, {0.5, 0.5, 0.5, 0.5}));
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  const Circuit low = lower(c, elide);
  EXPECT_LT(lowered_cnot_count(low), 4);
  expect_same_unitary(c, low, 3);
}

TEST(Lowering, ElisionPreservesUnitaryOnRandomTables) {
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> angles(8);
    for (double& a : angles) {
      a = rng.next_bool(0.4) ? 0.0 : rng.next_double(-2, 2);
    }
    Circuit c(4);
    c.append(Gate::ucry({0, 1, 2}, 3, angles));
    LoweringOptions elide;
    elide.elide_zero_rotations = true;
    const Circuit low = lower(c, elide);
    expect_same_unitary(c, low, 4);
    EXPECT_LE(lowered_cnot_count(low), 8);
  }
}

TEST(Lowering, MultiplexorAnglesInvertWalsh) {
  // ucry_multiplexor_angles must satisfy: pattern angle a[s] =
  // sum_j (-1)^{popcount(s & gray(j))} phi[j].
  Rng rng(31);
  std::vector<double> a(8);
  for (double& v : a) v = rng.next_double(-1, 1);
  const auto phi = ucry_multiplexor_angles(a);
  for (std::uint32_t s = 0; s < 8; ++s) {
    double acc = 0.0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      acc += (parity(s, gray_code(j)) != 0) ? -phi[j] : phi[j];
    }
    EXPECT_NEAR(acc, a[s], 1e-12);
  }
}

TEST(Lowering, MultiplexorAnglesKeepFourLaneSumOrder) {
  // Each angle sums its signed pattern angles in four lanes (element i
  // feeds lane i % 4) combined as (l0 + l2) + (l1 + l3), then divides by
  // the slot count. A one-ulp change there can flip zero-rotation elision
  // and with it the CNOT counts, so the rounding order is pinned bitwise.
  Rng rng(37);
  for (std::uint32_t slots = 1; slots <= 256; slots *= 2) {
    std::vector<double> a(slots);
    for (double& v : a) v = rng.next_double(-3, 3);
    const auto phi = ucry_multiplexor_angles(a);
    for (std::uint32_t j = 0; j < slots; ++j) {
      double lane[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::uint32_t i = 0; i < slots; ++i) {
        lane[i & 3] += (parity(i, gray_code(j)) != 0) ? -a[i] : a[i];
      }
      const double expected = ((lane[0] + lane[2]) + (lane[1] + lane[3])) /
                              static_cast<double>(slots);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(phi[j]),
                std::bit_cast<std::uint64_t>(expected))
          << "slots=" << slots << " j=" << j;
    }
  }
}

TEST(Lowering, LoweredCountRejectsComposite) {
  Circuit c(2);
  c.append(Gate::cry(0, 1, 0.4));
  EXPECT_THROW(lowered_cnot_count(c), std::invalid_argument);
}

TEST(Lowering, StagedLoweringBitIdenticalToMonolithic) {
  // The acceptance bar of the pass split: on the identity (CNOT) target
  // the staged passes must reproduce the pre-refactor monolithic walk
  // gate for gate — same kinds, wires, and angle bit patterns (Circuit
  // operator== compares doubles exactly) — over the full seed corpus,
  // with and without zero-rotation elision.
  const auto corpus = test::random_circuit_corpus();
  LoweringOptions plain;
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Circuit& circuit = corpus[i];
    ASSERT_EQ(lower(circuit, plain), legacy::lower(circuit, plain))
        << "corpus circuit " << i << " (n=" << circuit.num_qubits() << ")";
    ASSERT_EQ(lower(circuit, elide), legacy::lower(circuit, elide))
        << "corpus circuit " << i << " (n=" << circuit.num_qubits()
        << ", elided)";
  }
}

TEST(Lowering, StagedPassSequenceHasThreeStages) {
  const auto& stages = lowering_pass_sequence();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0]->name(), "mcry-expand");
  EXPECT_EQ(stages[1]->name(), "ucr-gray-lower");
  EXPECT_EQ(stages[2]->name(), "native-legalize");
  for (const Pass* stage : stages) {
    // Lowering legitimately changes the gate set but never the prepared
    // state or the wire pairs two-qubit gates act on.
    EXPECT_TRUE(stage->preserves() & kPreservesPreparation) << stage->name();
    EXPECT_TRUE(stage->preserves() & kPreservesCoupling) << stage->name();
    EXPECT_FALSE(stage->preserves() & kPreservesGateSet) << stage->name();
  }
}

TEST(Lowering, CountAfterLoweringHelper) {
  Circuit c(3);
  c.append(Gate::cry(0, 1, 0.4));
  c.append(Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, true}}, 2,
                      0.2));
  EXPECT_EQ(count_cnots_after_lowering(c), 2 + 4);
}

}  // namespace
}  // namespace qsp
