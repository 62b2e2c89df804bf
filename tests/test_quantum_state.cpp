#include "state/quantum_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
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
  // Squares of 1e200 overflow a plain sum; the direction must survive.
  const QuantumState huge(2, {Term{0, 3e200}, Term{3, 4e200}});
  EXPECT_NEAR(huge.amplitude(0), 0.6, 1e-12);
  EXPECT_NEAR(huge.amplitude(3), 0.8, 1e-12);
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

TEST(QuantumState, InvalidInputsThrow) {
  EXPECT_THROW(QuantumState(0), std::invalid_argument);
  EXPECT_THROW(QuantumState(25), std::invalid_argument);
  EXPECT_THROW(QuantumState(2, {}), std::invalid_argument);
  EXPECT_THROW(QuantumState(2, {Term{4, 1.0}}), std::invalid_argument);
  EXPECT_THROW(QuantumState(2, {Term{1, 0.0}}), std::invalid_argument);
  // Non-finite amplitudes: NaN passes every magnitude comparison and inf
  // normalizes the rest to zero, so both must be rejected up front.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(QuantumState(9, {Term{0, 1.0}, Term{5, bad}}),
                 std::invalid_argument);
    std::vector<double> dense(4, 0.5);
    dense[2] = bad;
    EXPECT_THROW(QuantumState::from_dense(2, dense), std::invalid_argument);
  }
}

TEST(QuantumState, NoTermFallsToTheEpsilonAfterNormalizing) {
  // 1e-6 passes the zero filter but scales to about 5.8e-14 against three
  // 1e7 terms; it must go, and the rest must be renormalized.
  const std::vector<Term> terms = {
      Term{0, 1e7}, Term{3, 1e7}, Term{200, 1e7}, Term{5, 1e-6}};
  std::vector<double> dense(256, 0.0);
  for (const Term& t : terms) dense[t.index] = t.amplitude;
  for (const QuantumState& s :
       {QuantumState(8, terms), QuantumState::from_dense(8, dense)}) {
    EXPECT_EQ(s.cardinality(), 3);
    double norm2 = 0.0;
    for (const Term& t : s.terms()) {
      EXPECT_GT(std::abs(t.amplitude), QuantumState::kAmplitudeEpsilon);
      norm2 += t.amplitude * t.amplitude;
    }
    EXPECT_NEAR(norm2, 1.0, 1e-12);
  }
  // A state with nothing to drop keeps its bits: the plain normalization.
  const QuantumState kept(2, {Term{0, 3.0}, Term{3, 4.0}});
  EXPECT_EQ(kept.amplitude(0), 3.0 * (1.0 / std::sqrt(25.0)));
  EXPECT_EQ(kept.amplitude(3), 4.0 * (1.0 / std::sqrt(25.0)));
}

TEST(QuantumState, QubitOutsideTheRegisterThrows) {
  const QuantumState s(3, {Term{0, 1.0}, Term{5, 1.0}});
  for (const int q : {-1, 3, 64}) {
    EXPECT_THROW(s.cofactor_indices(q, 0), std::out_of_range) << q;
    EXPECT_THROW(s.qubit_separable(q), std::out_of_range) << q;
  }
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

TEST(QuantumState, CofactorIndices) {
  // psi_1 from paper Fig. 4: (|000> + |010> + |101> + |111>)/2. The
  // cofactors of the middle qubit coincide (separable candidate), while
  // the outer qubits' cofactors differ (entangled pair).
  const QuantumState s(3, {Term{0b000, 1.0}, Term{0b010, 1.0},
                           Term{0b101, 1.0}, Term{0b111, 1.0}});
  const auto c0 = s.cofactor_indices(1, 0);
  const auto c1 = s.cofactor_indices(1, 1);
  EXPECT_EQ(c0, c1);
  EXPECT_NE(s.cofactor_indices(0, 0), s.cofactor_indices(0, 1));
  EXPECT_NE(s.cofactor_indices(2, 0), s.cofactor_indices(2, 1));
}

TEST(QuantumState, QubitSeparable) {
  // Product state (|0>+|1>)/sqrt2 x |0>: qubit 1 separable, constant.
  const QuantumState p(2, {Term{0, 1.0}, Term{1, 1.0}});
  EXPECT_TRUE(p.qubit_separable(0));
  EXPECT_TRUE(p.qubit_separable(1));
  // Bell state: neither qubit separable.
  const QuantumState bell(2, {Term{0, 1.0}, Term{3, 1.0}});
  EXPECT_FALSE(bell.qubit_separable(0));
  EXPECT_FALSE(bell.qubit_separable(1));
  // Motivating example: all three qubits entangled.
  const QuantumState s(3, {Term{0b000, 1.0}, Term{0b011, 1.0},
                           Term{0b101, 1.0}, Term{0b110, 1.0}});
  EXPECT_FALSE(s.qubit_separable(0));
  EXPECT_FALSE(s.qubit_separable(1));
  EXPECT_FALSE(s.qubit_separable(2));
  // Proportional-amplitude separability with a ratio != 1.
  const QuantumState r(2, {Term{0b00, 2.0}, Term{0b01, 2.0}, Term{0b10, 1.0},
                           Term{0b11, 1.0}});
  EXPECT_TRUE(r.qubit_separable(0));
  EXPECT_TRUE(r.qubit_separable(1));
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
