#pragma once
// Preparation verifier: checks that a circuit maps |0...0> to the target
// state (up to global phase). Circuits may carry ancilla qubits above the
// target register; those must return to |0>. Circuits containing z-axis
// rotations (phase-oracle outputs) are simulated on the complex
// statevector and compared with the conjugate complex inner product — the
// real path's plain product would mis-score phased amplitudes.

#include <string>

#include "circuit/circuit.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

struct VerificationResult {
  bool ok = false;
  double fidelity = 0.0;
  std::string message;
};

/// Simulate `circuit` from the ground state and compare against `target`.
/// If the circuit register is wider than the target, the extra (ancilla)
/// qubits are required to end in |0>. Global phase is ignored. Circuits
/// with Rz/UCRz gates route through the complex statevector
/// automatically; real-only circuits keep the cheaper real simulator.
VerificationResult verify_preparation(const Circuit& circuit,
                                      const QuantumState& target,
                                      double tolerance = 1e-7);

/// Complex-target variant: fidelity is |<target|prepared>|^2 with the
/// conjugate inner product, so phased targets score correctly (the
/// non-conjugated product wrongly rejects a correct preparation of
/// (|00> + i|11>)/sqrt(2) and wrongly accepts its phase conjugate).
VerificationResult verify_preparation(const Circuit& circuit,
                                      const ComplexState& target,
                                      double tolerance = 1e-7);

/// |<a|b>| of the states the two circuits prepare from |0...0>, via the
/// conjugate inner product. Circuits with z-axis, iSWAP or RZZ gates
/// route through the complex statevector. Because the modulus discards
/// the global phase, a circuit and its lower_onto(target) image score 1
/// for every target even when the native decompositions differ from CNOT
/// by a global phase. Throws std::invalid_argument when the registers
/// differ in width.
double preparation_overlap(const Circuit& a, const Circuit& b);

/// Throwing wrappers for tests and examples.
void verify_preparation_or_throw(const Circuit& circuit,
                                 const QuantumState& target,
                                 double tolerance = 1e-7);
void verify_preparation_or_throw(const Circuit& circuit,
                                 const ComplexState& target,
                                 double tolerance = 1e-7);

}  // namespace qsp
