#include "sim/statevector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

bool uniformly_controlled(const Gate& gate) {
  return gate.kind() == GateKind::kUCRy || gate.kind() == GateKind::kUCRz;
}

bool complex_only(const Gate& gate) {
  return gate.kind() == GateKind::kRz || gate.kind() == GateKind::kUCRz ||
         gate.kind() == GateKind::kRZZ || gate.kind() == GateKind::kISwap;
}

/// The textbook action of `gate` on a dense vector, written independently
/// of the simulator's run decomposition: visit every index i with the
/// target bit clear, test its control condition bit by bit, and apply the
/// 2x2, diagonal or swap action to (i, i + 2^target) directly. Complex
/// phases are std::complex products. CMakeLists.txt builds this file
/// without FMA contraction or SLP vectorization, so every product rounds
/// as in a default build, on -march builds too.
template <typename Amp>
void reference_apply(std::vector<Amp>& v, const Gate& gate) {
  const BasisIndex tbit = BasisIndex{1} << gate.target();
  const auto& controls = gate.controls();
  for (BasisIndex i = 0; i < v.size(); ++i) {
    if ((i & tbit) != 0) continue;
    Amp& lo = v[i];
    Amp& hi = v[i | tbit];
    if constexpr (!std::is_same_v<Amp, double>) {
      if (gate.kind() == GateKind::kRZZ) {
        // exp(-i theta/2 Z(x)Z) on wires (controls[0], target).
        const Amp eq = std::polar(1.0, -gate.theta() / 2);
        const Amp ne = std::polar(1.0, gate.theta() / 2);
        const bool wire = get_bit(i, controls[0].qubit) != 0;
        lo *= wire ? ne : eq;
        hi *= wire ? eq : ne;
        continue;
      }
      if (gate.kind() == GateKind::kISwap) {
        // |10> <-> |01> with a factor i; i holds wire a = 1, target = 0.
        const BasisIndex abit = BasisIndex{1} << controls[0].qubit;
        if ((i & abit) == 0) continue;
        Amp& partner = v[(i ^ abit) | tbit];
        const Amp phase_i{0.0, 1.0};
        const Amp old = lo;
        lo = phase_i * partner;
        partner = phase_i * old;
        continue;
      }
    }
    std::size_t pattern = 0;
    bool fires = true;
    for (std::size_t b = 0; b < controls.size(); ++b) {
      const int bit = get_bit(i, controls[b].qubit);
      if (uniformly_controlled(gate)) {
        pattern |= static_cast<std::size_t>(bit) << b;
      } else if (bit != (controls[b].positive ? 1 : 0)) {
        fires = false;
      }
    }
    if (!fires) continue;
    const double theta =
        uniformly_controlled(gate) ? gate.angles()[pattern] : gate.theta();
    switch (gate.kind()) {
      case GateKind::kX:
      case GateKind::kCNOT:
        std::swap(lo, hi);
        break;
      case GateKind::kCZ:
        hi = -hi;
        break;
      case GateKind::kRy:
      case GateKind::kCRy:
      case GateKind::kMCRy:
      case GateKind::kUCRy: {
        const double co = std::cos(theta / 2);
        const double si = std::sin(theta / 2);
        const Amp a = lo;
        const Amp b = hi;
        lo = co * a - si * b;
        hi = si * a + co * b;
        break;
      }
      default:
        if constexpr (!std::is_same_v<Amp, double>) {
          lo = lo * std::polar(1.0, -theta / 2);
          hi = hi * std::polar(1.0, theta / 2);
        }
        break;
    }
  }
}

/// Every gate kind at every target and control position on n qubits:
/// both control polarities, one to three controls in every order.
std::vector<Gate> every_gate(int n, Rng& rng) {
  const auto angle = [&] { return rng.next_double(-7.0, 7.0); };
  const auto angles = [&](std::size_t count) {
    std::vector<double> out(count);
    for (double& a : out) a = angle();
    return out;
  };
  std::vector<Gate> gates;
  for (int t = 0; t < n; ++t) {
    gates.push_back(Gate::x(t));
    gates.push_back(Gate::ry(t, angle()));
    gates.push_back(Gate::rz(t, angle()));
    for (int c = 0; c < n; ++c) {
      if (c == t) continue;
      for (const bool positive : {true, false}) {
        gates.push_back(Gate::cnot(c, t, positive));
        gates.push_back(Gate::cry(c, t, angle(), positive));
      }
      gates.push_back(Gate::cz(c, t));
      gates.push_back(Gate::rzz(c, t, angle()));
      gates.push_back(Gate::iswap(c, t));
      gates.push_back(Gate::ucry({c}, t, angles(2)));
      gates.push_back(Gate::ucrz({c}, t, angles(2)));
      for (int c2 = 0; c2 < n; ++c2) {
        if (c2 == t || c2 == c) continue;
        gates.push_back(
            Gate::mcry({{c, rng.next_bool()}, {c2, rng.next_bool()}}, t,
                       angle()));
        gates.push_back(Gate::ucry({c, c2}, t, angles(4)));
        gates.push_back(Gate::ucrz({c, c2}, t, angles(4)));
        for (int c3 = 0; c3 < n; ++c3) {
          if (c3 == t || c3 == c || c3 == c2) continue;
          gates.push_back(Gate::mcry({{c, rng.next_bool()},
                                      {c2, rng.next_bool()},
                                      {c3, rng.next_bool()}},
                                     t, angle()));
          gates.push_back(Gate::ucry({c, c2, c3}, t, angles(8)));
          gates.push_back(Gate::ucrz({c, c2, c3}, t, angles(8)));
        }
      }
    }
  }
  return gates;
}

template <typename Amp>
bool bitwise_equal(const std::vector<Amp>& a, const std::vector<Amp>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Amp)) == 0;
}

/// Each gate's kernel against the per-amplitude reference, bitwise, on
/// n = 1..6 from three starts: a sparse state whose zero amplitudes carry
/// both signs (Ry past pi makes cos(theta/2) negative), a generic state,
/// and the running state of all gates applied in sequence. The real
/// instantiation must reject the complex-only kinds.
template <typename Amp>
void expect_kernels_match_reference() {
  using SV = BasicStatevector<Amp>;
  Rng rng(2024);
  for (int n = 1; n <= 6; ++n) {
    SV sparse(n);
    sparse.apply(Gate::ry(0, 3.5));
    if (n > 1) sparse.apply(Gate::ry(n - 1, -2.8));
    SV generic(n);
    for (int q = 0; q < n; ++q) generic.apply(Gate::ry(q, 0.3 + 0.7 * q));
    for (int q = 0; q + 1 < n; ++q) generic.apply(Gate::cnot(q, q + 1));
    if constexpr (SV::kComplex) {
      sparse.apply(Gate::rz(0, 1.1));
      for (int q = 0; q < n; ++q) generic.apply(Gate::rz(q, 0.9 - 0.4 * q));
    }
    SV running = generic;
    std::vector<Amp> running_ref = running.amplitudes();
    for (const Gate& gate : every_gate(n, rng)) {
      if (!SV::kComplex && complex_only(gate)) {
        SV sv(n);
        EXPECT_THROW(sv.apply(gate), std::invalid_argument)
            << gate.to_string();
        continue;
      }
      for (const SV& start : {sparse, generic}) {
        SV sv = start;
        std::vector<Amp> ref = start.amplitudes();
        sv.apply(gate);
        reference_apply(ref, gate);
        ASSERT_TRUE(bitwise_equal(sv.amplitudes(), ref))
            << "n=" << n << " " << gate.to_string();
      }
      running.apply(gate);
      reference_apply(running_ref, gate);
      ASSERT_TRUE(bitwise_equal(running.amplitudes(), running_ref))
          << "running, n=" << n << " " << gate.to_string();
    }
  }
}

/// An overlap argument wider than the register throws std::invalid_argument
/// naming both widths; a narrower one sits on the low qubits, the rest in
/// |0>.
template <typename Amp>
void expect_width_rule() {
  using SV = BasicStatevector<Amp>;
  using State = typename SV::State;
  SV narrow(2);
  narrow.apply(Gate::ry(0, M_PI / 2));
  narrow.apply(Gate::cnot(0, 1));
  SV wide(3);
  wide.apply(Gate::ry(0, M_PI / 2));
  wide.apply(Gate::cnot(0, 1));
  const State bell2 = State::from_real(make_ghz(2));
  const State ghz3 = State::from_real(make_ghz(3));
  try {
    (void)narrow.inner_product(wide);
    ADD_FAILURE() << "wider statevector accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 qubits"), std::string::npos) << what;
    EXPECT_NE(what.find("register has 2"), std::string::npos) << what;
  }
  EXPECT_THROW((void)narrow.inner_product(ghz3), std::invalid_argument);
  EXPECT_THROW((void)narrow.fidelity(ghz3), std::invalid_argument);
  EXPECT_NEAR(std::abs(wide.inner_product(narrow)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(wide.inner_product(bell2)), 1.0, 1e-12);
  EXPECT_NEAR(wide.fidelity(bell2), 1.0, 1e-12);
  EXPECT_NEAR(narrow.fidelity(bell2), 1.0, 1e-12);
}

TEST(Statevector, KernelsMatchNaiveReference) {
  expect_kernels_match_reference<double>();
}

TEST(ComplexStatevector, KernelsMatchNaiveReference) {
  expect_kernels_match_reference<std::complex<double>>();
}

TEST(Statevector, WiderOverlapArgumentThrows) { expect_width_rule<double>(); }

TEST(ComplexStatevector, WiderOverlapArgumentThrows) {
  expect_width_rule<std::complex<double>>();
}

TEST(Statevector, InitialGround) {
  const Statevector sv(3);
  EXPECT_DOUBLE_EQ(sv.amplitudes()[0], 1.0);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(Statevector, XGate) {
  Statevector sv(2);
  sv.apply(Gate::x(0));
  EXPECT_DOUBLE_EQ(sv.amplitudes()[1], 1.0);
  sv.apply(Gate::x(1));
  EXPECT_DOUBLE_EQ(sv.amplitudes()[3], 1.0);
  sv.apply(Gate::x(0));
  EXPECT_DOUBLE_EQ(sv.amplitudes()[2], 1.0);
}

TEST(Statevector, RyConvention) {
  Statevector sv(1);
  sv.apply(Gate::ry(0, M_PI / 2));
  // Ry(pi/2)|0> = (|0> + |1>)/sqrt2 in the standard convention.
  EXPECT_NEAR(sv.amplitudes()[0], 1 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(sv.amplitudes()[1], 1 / std::sqrt(2.0), 1e-12);
  // Ry(pi) maps |+> to ... and |1> -> -|0>: check on fresh state.
  Statevector sv2(1);
  sv2.apply(Gate::x(0));
  sv2.apply(Gate::ry(0, M_PI));
  EXPECT_NEAR(sv2.amplitudes()[0], -1.0, 1e-12);
}

TEST(Statevector, CnotPolarity) {
  Statevector sv(2);
  sv.apply(Gate::cnot(0, 1));  // control |0>-state qubit 0 = 0 -> inactive
  EXPECT_DOUBLE_EQ(sv.amplitudes()[0], 1.0);
  sv.apply(Gate::cnot(0, 1, /*positive=*/false));  // fires
  EXPECT_DOUBLE_EQ(sv.amplitudes()[2], 1.0);
}

TEST(Statevector, GhzConstruction) {
  Statevector sv(3);
  sv.apply(Gate::ry(0, M_PI / 2));
  sv.apply(Gate::cnot(0, 1));
  sv.apply(Gate::cnot(1, 2));
  const QuantumState ghz = make_ghz(3);
  EXPECT_NEAR(std::abs(sv.inner_product(ghz)), 1.0, 1e-12);
}

TEST(Statevector, CryOnlyFiresWhenControlSet) {
  Statevector sv(2);
  sv.apply(Gate::cry(0, 1, M_PI / 2));
  EXPECT_DOUBLE_EQ(sv.amplitudes()[0], 1.0);  // control is |0>
  sv.apply(Gate::x(0));
  sv.apply(Gate::cry(0, 1, M_PI));
  // Now qubit1 rotated fully: |01> -> |11> (up to convention sign).
  EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1.0, 1e-12);
}

TEST(Statevector, McryMatchesPatternOnly) {
  Statevector sv(3);
  sv.apply(Gate::mcry({ControlLiteral{0, false}, ControlLiteral{1, false}},
                      2, M_PI));
  // Pattern (q0=0, q1=0) satisfied at ground -> q2 flips.
  EXPECT_NEAR(std::abs(sv.amplitudes()[4]), 1.0, 1e-12);
}

TEST(Statevector, UcryAppliesPerPattern) {
  // Prepare |+>|0>, then UCRy on qubit 1 with angles (0, pi): flips qubit 1
  // only on the q0=1 branch.
  Statevector sv(2);
  sv.apply(Gate::ry(0, M_PI / 2));
  sv.apply(Gate::ucry({0}, 1, {0.0, M_PI}));
  EXPECT_NEAR(sv.amplitudes()[0], 1 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(sv.amplitudes()[3]), 1 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(sv.amplitudes()[1], 0.0, 1e-12);
}

TEST(Statevector, NormPreservedByRandomCircuits) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 4;
    Statevector sv(n);
    for (int g = 0; g < 30; ++g) {
      const int t = static_cast<int>(rng.next_below(n));
      const int c = (t + 1 + static_cast<int>(rng.next_below(n - 1))) % n;
      switch (rng.next_below(3)) {
        case 0:
          sv.apply(Gate::ry(t, rng.next_double(-3, 3)));
          break;
        case 1:
          sv.apply(Gate::cnot(c, t, rng.next_bool()));
          break;
        default:
          sv.apply(Gate::cry(c, t, rng.next_double(-3, 3)));
          break;
      }
    }
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
  }
}

TEST(Statevector, StartFromSparseState) {
  const QuantumState dicke = make_dicke(4, 2);
  Statevector sv(dicke);
  EXPECT_NEAR(sv.inner_product(dicke), 1.0, 1e-12);
  const QuantumState back = sv.to_state();
  EXPECT_TRUE(back.approx_equal(dicke));
}

}  // namespace
}  // namespace qsp
