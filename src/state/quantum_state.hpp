#pragma once
// Sparse quantum states, one class template for both amplitude types. The
// paper restricts transitions to the X-Z plane, so the synthesis flow
// handles real (possibly signed) amplitudes: `QuantumState` is the public
// input type of the library. `ComplexState` carries the targets of the
// phase-oracle extension (Section VI-A), which prepares a complex state
// as its magnitude state followed by a diagonal phase oracle.

#include <complex>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace qsp {

/// One nonzero term `amplitude * |index>` of a state.
template <typename Amp>
struct BasicTerm {
  BasisIndex index = 0;
  Amp amplitude{};

  friend bool operator==(const BasicTerm&, const BasicTerm&) = default;
};

/// An n-qubit pure state, stored as the sorted list of its nonzero terms
/// (the "index set" S(psi) of the paper plus amplitudes). Amp is double or
/// std::complex<double>; both are instantiated in state/quantum_state.cpp,
/// and both apply one input rule.
///
/// Invariants: terms sorted by index, no duplicate indices, every
/// amplitude above kAmplitudeEpsilon in magnitude, unit L2 norm.
template <typename Amp>
class BasicState {
 public:
  static constexpr bool kComplex = !std::is_same_v<Amp, double>;
  /// Amplitudes at or below this magnitude are treated as zero.
  static constexpr double kAmplitudeEpsilon = 1e-12;

  /// The n-qubit ground state |0...0>.
  explicit BasicState(int num_qubits);

  /// Build from terms; merges duplicate indices (amplitudes add), drops
  /// zero terms and normalizes: every kept amplitude exceeds
  /// kAmplitudeEpsilon after normalization. Inputs whose sum of squares
  /// overflows are scaled down first. Throws std::invalid_argument on a
  /// qubit count outside [1, kMaxQubits], out-of-range indices, a
  /// non-finite amplitude (either part of a complex one), empty support
  /// or a sum of squares at or below kAmplitudeEpsilon.
  BasicState(int num_qubits, std::vector<BasicTerm<Amp>> terms);

  /// Build from a dense amplitude vector of size 2^n.
  static BasicState from_dense(int num_qubits,
                               const std::vector<Amp>& amplitudes);

  /// The state with the amplitudes of `real` (a copy for the real type,
  /// zero imaginary parts for the complex one), without renormalizing.
  static BasicState from_real(const BasicState<double>& real);

  int num_qubits() const { return num_qubits_; }

  /// Cardinality |S(psi)|: number of basis states with nonzero amplitude.
  int cardinality() const { return static_cast<int>(terms_.size()); }

  const std::vector<BasicTerm<Amp>>& terms() const { return terms_; }

  /// Amplitude of |x> (0 if x is not in the support).
  Amp amplitude(BasisIndex x) const;

  /// True if this is |0...0>.
  bool is_ground() const;

  /// True if every amplitude equals +1/sqrt(m) (the paper's uniform states).
  bool is_uniform(double tol = 1e-9) const;

  /// Inner product <this|other>, conjugating this state's amplitudes;
  /// states must have equal qubit counts.
  Amp inner_product(const BasicState& other) const;

  /// Fidelity |<this|other>|^2.
  double fidelity(const BasicState& other) const;

  /// True when fidelity with `other` is within `tol` of 1 (insensitive to
  /// the unobservable global phase).
  bool approx_equal(const BasicState& other, double tol = 1e-7) const;

  /// Dense amplitude vector of size 2^n.
  std::vector<Amp> to_dense() const;

  /// The magnitude state |mag>: real positive amplitudes |a_x|.
  BasicState<double> magnitudes() const
    requires kComplex;

  /// Phase arg(a_x) per support index, aligned with terms().
  std::vector<double> phases() const
    requires kComplex;

  /// Human-readable rendering, e.g. "0.5000|000> - 0.5000|011> + ..." or
  /// "(0.6000+0.0000i)|00> + (0.0000-0.8000i)|11>".
  std::string to_string() const;

  friend bool operator==(const BasicState&, const BasicState&) = default;

 private:
  int num_qubits_;
  std::vector<BasicTerm<Amp>> terms_;

  void normalize_and_check();
};

extern template class BasicState<double>;
extern template class BasicState<std::complex<double>>;

using Term = BasicTerm<double>;
using ComplexTerm = BasicTerm<std::complex<double>>;
using QuantumState = BasicState<double>;
using ComplexState = BasicState<std::complex<double>>;

/// One term conj(a) * b of an inner product. The complex form is the
/// textbook product of conj(a) and b, written out with the sign in the
/// operand: GCC turns a subtract/add pair of products into fused
/// multiply-add/subtract on FMA targets even under -ffp-contract=off,
/// which would round differently from the default build.
inline double conj_times(double a, double b) { return a * b; }
inline std::complex<double> conj_times(const std::complex<double>& a,
                                       const std::complex<double>& b) {
  const double neg_ai = -a.imag();
  return {a.real() * b.real() + a.imag() * b.imag(),
          a.real() * b.imag() + neg_ai * b.real()};
}

}  // namespace qsp
