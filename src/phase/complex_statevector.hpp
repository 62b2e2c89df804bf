#pragma once
// Dense complex statevector simulator: verification substrate for the
// phase-oracle pipeline. Handles every gate kind, including the z-axis
// rotations the real simulator rejects.

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "phase/complex_state.hpp"

namespace qsp {

class ComplexStatevector {
 public:
  /// Start in |0...0>.
  explicit ComplexStatevector(int num_qubits);
  /// Start in a given (sparse) state, densified.
  explicit ComplexStatevector(const ComplexState& state);

  int num_qubits() const { return num_qubits_; }
  const std::vector<std::complex<double>>& amplitudes() const { return amp_; }

  void apply(const Gate& gate);
  void apply(const Circuit& circuit);

  double norm() const;

  /// |<this|state>|^2 (global-phase insensitive).
  double fidelity(const ComplexState& state) const;

  /// Sparsify back to a ComplexState (drops sub-epsilon amplitudes).
  ComplexState to_state() const;

 private:
  void apply_pairs(const Gate& gate, bool z_axis);

  int num_qubits_;
  std::vector<std::complex<double>> amp_;
};

}  // namespace qsp
