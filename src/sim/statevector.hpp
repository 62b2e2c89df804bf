#pragma once
// Dense statevector simulator: the verification substrate replacing the
// paper's Qiskit check (Section VI-A). One class template serves both
// amplitude types. The real instantiation (`Statevector`) covers every
// gate the synthesis flow emits, since those are real orthogonal
// matrices, at half the memory traffic of the complex one. The complex
// instantiation (`ComplexStatevector`) adds the gates that give a state
// complex amplitudes (Rz, UCRz, RZZ, iSWAP), which the real one rejects
// with std::invalid_argument.

#include <complex>
#include <type_traits>
#include <vector>

#include "circuit/circuit.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

/// Amp is double or std::complex<double>; both are instantiated in
/// sim/statevector.cpp.
template <typename Amp>
class BasicStatevector {
 public:
  static constexpr bool kComplex = !std::is_same_v<Amp, double>;
  /// The sparse state type with the same amplitudes.
  using State = BasicState<Amp>;

  /// |0...0> on n qubits (n <= kMaxQubits; memory is sizeof(Amp) * 2^n
  /// bytes).
  explicit BasicStatevector(int num_qubits);

  /// Start from a sparse state, densified.
  explicit BasicStatevector(const State& state);

  int num_qubits() const { return num_qubits_; }
  const std::vector<Amp>& amplitudes() const { return amp_; }

  void apply(const Gate& gate);
  void apply(const Circuit& circuit);

  /// L2 norm (should stay 1 up to rounding).
  double norm() const;

  // The overlaps below take their argument on this register's lowest
  // qubits, any qubits above it in |0>. An argument wider than the
  // register throws std::invalid_argument.

  /// <this|other>.
  Amp inner_product(const BasicStatevector& other) const;

  /// <this|state>.
  Amp inner_product(const State& state) const;

  /// |<this|state>|^2 (global-phase insensitive).
  double fidelity(const State& state) const;

  /// Sparsify back to a state (drops sub-epsilon amplitudes).
  State to_state() const;

 private:
  int num_qubits_;
  std::vector<Amp> amp_;
};

extern template class BasicStatevector<double>;
extern template class BasicStatevector<std::complex<double>>;

using Statevector = BasicStatevector<double>;
using ComplexStatevector = BasicStatevector<std::complex<double>>;

}  // namespace qsp
