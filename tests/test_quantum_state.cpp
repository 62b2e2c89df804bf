#include "state/quantum_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace qsp {
namespace {

TEST(QuantumState, GroundState) {
  const QuantumState g(3);
  EXPECT_EQ(g.num_qubits(), 3);
  EXPECT_EQ(g.cardinality(), 1);
  EXPECT_TRUE(g.is_ground());
  EXPECT_DOUBLE_EQ(g.amplitude(0), 1.0);
  EXPECT_DOUBLE_EQ(g.amplitude(5), 0.0);
}

TEST(QuantumState, NormalizesInput) {
  const QuantumState s(2, {Term{0, 3.0}, Term{3, 4.0}});
  EXPECT_NEAR(s.amplitude(0), 0.6, 1e-12);
  EXPECT_NEAR(s.amplitude(3), 0.8, 1e-12);
}

TEST(QuantumState, MergesDuplicateIndices) {
  const QuantumState s(2, {Term{1, 1.0}, Term{1, 1.0}, Term{2, 2.0}});
  EXPECT_EQ(s.cardinality(), 2);
  EXPECT_NEAR(s.amplitude(1) / s.amplitude(2), 1.0, 1e-12);
}

TEST(QuantumState, DropsCancellingTerms) {
  const QuantumState s(2, {Term{1, 1.0}, Term{1, -1.0}, Term{2, 1.0}});
  EXPECT_EQ(s.cardinality(), 1);
  EXPECT_NEAR(std::abs(s.amplitude(2)), 1.0, 1e-12);
}

// The input rule, one table for both amplitude types: a complex state is
// a real state plus phases, so it accepts, rescales and rejects the same
// inputs. Each check below is a template run once per type, under the
// QuantumState and ComplexState suites.

/// x along the imaginary axis when the type has one, else x itself.
template <typename Amp>
Amp imaginary(double x) {
  if constexpr (std::is_same_v<Amp, double>) {
    return x;
  } else {
    return {0.0, x};
  }
}

/// Amplitudes with a non-finite part: NaN and +-inf, in either part of a
/// complex amplitude.
template <typename Amp>
std::vector<Amp> non_finite_amplitudes() {
  std::vector<Amp> out;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    out.push_back(Amp{bad});
    if constexpr (!std::is_same_v<Amp, double>) out.push_back(Amp{0.5, bad});
  }
  return out;
}

template <typename Amp>
void expect_invalid_inputs_throw() {
  using State = BasicState<Amp>;
  using T = BasicTerm<Amp>;
  const Amp one{1.0};
  for (const int width : {0, 25}) {
    EXPECT_THROW(State{width}, std::invalid_argument) << width;
    EXPECT_THROW(State(width, {T{0, one}}), std::invalid_argument) << width;
  }
  EXPECT_THROW(State(2, {}), std::invalid_argument);
  // An index beyond the register.
  EXPECT_THROW(State(2, {T{4, one}}), std::invalid_argument);
  EXPECT_THROW(State(2, {T{1, Amp{0.0}}}), std::invalid_argument);
  // Duplicates that cancel the whole support.
  EXPECT_THROW(State(2, {T{1, one}, T{1, -one}}), std::invalid_argument);
  // Every term passes the zero filter, but the sum of squares is at or
  // below the epsilon.
  EXPECT_THROW(State(2, {T{0, Amp{1e-7}}}), std::invalid_argument);
  EXPECT_THROW(State(3, {T{0, Amp{5e-7}}, T{6, imaginary<Amp>(5e-7)}}),
               std::invalid_argument);
  // Non-finite amplitudes: NaN passes every magnitude comparison and inf
  // normalizes the rest to zero, so both must be rejected up front.
  for (const Amp bad : non_finite_amplitudes<Amp>()) {
    EXPECT_THROW(State(9, {T{0, one}, T{5, bad}}), std::invalid_argument);
    std::vector<Amp> dense(4, Amp{0.5});
    dense[2] = bad;
    EXPECT_THROW(State::from_dense(2, dense), std::invalid_argument);
  }
  // Finite duplicates whose sum overflows.
  EXPECT_THROW(State(2, {T{1, Amp{1e308}}, T{1, Amp{1e308}}}),
               std::invalid_argument);
}

TEST(QuantumState, InvalidInputsThrow) {
  expect_invalid_inputs_throw<double>();
}

TEST(ComplexState, InvalidInputsThrow) {
  expect_invalid_inputs_throw<std::complex<double>>();
}

template <typename Amp>
void expect_overflowing_inputs_rescaled() {
  // Squares of 1e200 overflow a plain sum of squares; the direction must
  // survive, on the same support.
  using State = BasicState<Amp>;
  using T = BasicTerm<Amp>;
  const double half = 1.0 / std::sqrt(2.0);
  std::vector<Amp> dense(4, Amp{0.0});
  dense[0] = Amp{1e200};
  dense[3] = Amp{1e200};
  for (const State& s : {State(2, {T{0, Amp{1e200}}, T{3, Amp{1e200}}}),
                         State::from_dense(2, dense)}) {
    ASSERT_EQ(s.cardinality(), 2);
    EXPECT_EQ(s.terms()[0].index, 0u);
    EXPECT_EQ(s.terms()[1].index, 3u);
    EXPECT_NEAR(std::abs(s.amplitude(0)), half, 1e-15);
    EXPECT_NEAR(std::abs(s.amplitude(3)), half, 1e-15);
  }
  const State phased(2, {T{0, Amp{3e200}}, T{3, imaginary<Amp>(4e200)}});
  EXPECT_NEAR(std::abs(phased.amplitude(0) - Amp{0.6}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(phased.amplitude(3) - imaginary<Amp>(0.8)), 0.0,
              1e-12);
}

TEST(QuantumState, OverflowingInputsRescale) {
  expect_overflowing_inputs_rescaled<double>();
}

TEST(ComplexState, OverflowingInputsRescale) {
  expect_overflowing_inputs_rescaled<std::complex<double>>();
  // Both parts at 1e308: std::abs stays finite, std::norm does not.
  const ComplexState both(2, {ComplexTerm{0, {1e308, 1e308}},
                              ComplexTerm{3, {1e308, 1e308}}});
  ASSERT_EQ(both.cardinality(), 2);
  for (const ComplexTerm& t : both.terms()) {
    EXPECT_NEAR(t.amplitude.real(), 0.5, 1e-15);
    EXPECT_NEAR(t.amplitude.imag(), 0.5, 1e-15);
  }
}

template <typename Amp>
void expect_no_term_at_the_epsilon() {
  // 1e-6 passes the zero filter but scales to about 5.8e-14 against three
  // 1e7 terms; it must go, and the rest must be renormalized.
  using State = BasicState<Amp>;
  using T = BasicTerm<Amp>;
  const std::vector<T> terms = {T{0, Amp{1e7}}, T{3, imaginary<Amp>(1e7)},
                                T{200, Amp{1e7}}, T{5, Amp{1e-6}}};
  std::vector<Amp> dense(256, Amp{0.0});
  for (const T& t : terms) dense[t.index] = t.amplitude;
  for (const State& s : {State(8, terms), State::from_dense(8, dense)}) {
    EXPECT_EQ(s.cardinality(), 3);
    double norm2 = 0.0;
    for (const T& t : s.terms()) {
      EXPECT_GT(std::abs(t.amplitude), State::kAmplitudeEpsilon);
      norm2 += std::norm(t.amplitude);
    }
    EXPECT_NEAR(norm2, 1.0, 1e-12);
  }
  // A state with nothing to drop keeps its bits: the plain normalization.
  const State kept(2, {T{0, Amp{3.0}}, T{3, imaginary<Amp>(4.0)}});
  EXPECT_EQ(kept.amplitude(0), Amp{3.0 * (1.0 / std::sqrt(25.0))});
  EXPECT_EQ(kept.amplitude(3), imaginary<Amp>(4.0 * (1.0 / std::sqrt(25.0))));
}

TEST(QuantumState, NoTermFallsToTheEpsilonAfterNormalizing) {
  expect_no_term_at_the_epsilon<double>();
}

TEST(ComplexState, NoTermFallsToTheEpsilonAfterNormalizing) {
  expect_no_term_at_the_epsilon<std::complex<double>>();
}

TEST(ComplexState, NormalizesAndMerges) {
  const ComplexState s(2, {ComplexTerm{0, {3.0, 0.0}},
                           ComplexTerm{3, {0.0, 4.0}}});
  EXPECT_NEAR(std::abs(s.amplitude(0)), 0.6, 1e-12);
  EXPECT_NEAR(std::abs(s.amplitude(3)), 0.8, 1e-12);
  // Duplicate indices add coherently, and cancelling ones leave the rest.
  const ComplexState merged(2, {ComplexTerm{1, {1.0, 0.0}},
                                ComplexTerm{1, {0.0, 1.0}}});
  ASSERT_EQ(merged.cardinality(), 1);
  EXPECT_NEAR(std::abs(merged.amplitude(1)), 1.0, 1e-12);
  const ComplexState cancelled(2, {ComplexTerm{1, {1.0, 0.0}},
                                   ComplexTerm{1, {-1.0, 0.0}},
                                   ComplexTerm{2, {0.0, 1.0}}});
  ASSERT_EQ(cancelled.cardinality(), 1);
  EXPECT_NEAR(std::abs(cancelled.amplitude(2)), 1.0, 1e-12);
}

TEST(QuantumState, DenseRoundTrip) {
  const QuantumState s(3, {Term{0, 1.0}, Term{3, -1.0}, Term{6, 2.0}});
  const auto dense = s.to_dense();
  EXPECT_EQ(dense.size(), 8u);
  const QuantumState back = QuantumState::from_dense(3, dense);
  EXPECT_TRUE(back.approx_equal(s));
  EXPECT_EQ(back, s);
}

TEST(QuantumState, InnerProductAndFidelity) {
  const QuantumState a(2, {Term{0, 1.0}, Term{3, 1.0}});
  const QuantumState b(2, {Term{0, 1.0}, Term{3, -1.0}});
  EXPECT_NEAR(a.inner_product(a), 1.0, 1e-12);
  EXPECT_NEAR(a.inner_product(b), 0.0, 1e-12);
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-12);
  EXPECT_TRUE(a.approx_equal(a));
  EXPECT_FALSE(a.approx_equal(b));
  const QuantumState c(3);
  EXPECT_THROW(a.inner_product(c), std::invalid_argument);
}

TEST(QuantumState, GlobalSignInsensitive) {
  const QuantumState a(2, {Term{1, 1.0}, Term{2, 1.0}});
  const QuantumState b(2, {Term{1, -1.0}, Term{2, -1.0}});
  EXPECT_TRUE(a.approx_equal(b));
}

TEST(QuantumState, IsUniform) {
  const QuantumState u(2, {Term{0, 1.0}, Term{1, 1.0}, Term{2, 1.0}});
  EXPECT_TRUE(u.is_uniform());
  const QuantumState v(2, {Term{0, 1.0}, Term{1, 2.0}});
  EXPECT_FALSE(v.is_uniform());
  const QuantumState w(2, {Term{0, -1.0}, Term{1, -1.0}});
  EXPECT_FALSE(w.is_uniform());  // uniform means amplitudes +1/sqrt(m)
}

TEST(QuantumState, ToString) {
  const QuantumState s(2, {Term{0, 1.0}, Term{3, -1.0}});
  const std::string str = s.to_string();
  EXPECT_NE(str.find("|00>"), std::string::npos);
  EXPECT_NE(str.find("|11>"), std::string::npos);
  EXPECT_NE(str.find(" - "), std::string::npos);
}

}  // namespace
}  // namespace qsp
