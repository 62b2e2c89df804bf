#pragma once
// Sparse real-amplitude quantum states. This is the public API type of the
// library: the paper restricts transitions to the X-Z plane, so every state
// handled here has real (possibly signed) amplitudes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bitops.hpp"

namespace qsp {

/// One nonzero term `amplitude * |index>` of a state.
struct Term {
  BasisIndex index = 0;
  double amplitude = 0.0;

  friend bool operator==(const Term&, const Term&) = default;
};

/// An n-qubit pure state with real amplitudes, stored as the sorted list of
/// its nonzero terms (the "index set" S(psi) of the paper plus amplitudes).
///
/// Invariants: terms sorted by index, no duplicate indices, no zero
/// amplitudes, L2 norm == 1 (within kNormTolerance).
class QuantumState {
 public:
  static constexpr double kNormTolerance = 1e-9;
  /// Amplitudes below this magnitude are treated as zero.
  static constexpr double kAmplitudeEpsilon = 1e-12;

  /// The n-qubit ground state |0...0>.
  explicit QuantumState(int num_qubits);

  /// Build from terms; normalizes, merges duplicate indices (amplitudes add)
  /// and drops zero terms: every kept amplitude exceeds kAmplitudeEpsilon
  /// after normalization. Throws std::invalid_argument on empty support,
  /// out-of-range indices or a NaN/infinite amplitude.
  QuantumState(int num_qubits, std::vector<Term> terms);

  /// Build from a dense amplitude vector of size 2^n.
  static QuantumState from_dense(int num_qubits,
                                 const std::vector<double>& amplitudes);

  int num_qubits() const { return num_qubits_; }

  /// Cardinality |S(psi)|: number of basis states with nonzero amplitude.
  int cardinality() const { return static_cast<int>(terms_.size()); }

  const std::vector<Term>& terms() const { return terms_; }

  /// Amplitude of |x> (0 if x is not in the support).
  double amplitude(BasisIndex x) const;

  /// True if this is |0...0>.
  bool is_ground() const;

  /// True if every amplitude equals +1/sqrt(m) (the paper's uniform states).
  bool is_uniform(double tol = 1e-9) const;

  /// Inner product <this|other>; states must have equal qubit counts.
  double inner_product(const QuantumState& other) const;

  /// Fidelity |<this|other>|^2.
  double fidelity(const QuantumState& other) const;

  /// True when fidelity with `other` is within `tol` of 1 (sign-insensitive,
  /// as a global -1 is unobservable).
  bool approx_equal(const QuantumState& other, double tol = 1e-7) const;

  /// The cofactor index set {x restricted to other qubits : x in S, x_q = v}.
  /// Returned indices have qubit q removed (higher bits shifted down).
  /// Throws std::out_of_range for a qubit outside the register.
  std::vector<BasisIndex> cofactor_indices(int qubit, int value) const;

  /// True if qubit q is in a product state with the rest: either constant
  /// across the support or S = S0 x {0,1} with proportional amplitudes.
  /// Throws std::out_of_range for a qubit outside the register.
  bool qubit_separable(int qubit, double tol = 1e-9) const;

  /// Dense amplitude vector of size 2^n (n <= 24 enforced).
  std::vector<double> to_dense() const;

  /// Human-readable rendering, e.g. "0.500|000> + 0.500|011> + ...".
  std::string to_string() const;

  friend bool operator==(const QuantumState&, const QuantumState&) = default;

 private:
  int num_qubits_;
  std::vector<Term> terms_;

  void normalize_and_check();
  void check_qubit(int qubit) const;
};

}  // namespace qsp
