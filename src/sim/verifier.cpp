#include "sim/verifier.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/statevector.hpp"

namespace qsp {
namespace {

/// True when the circuit can give the prepared state complex amplitudes:
/// z-axis rotations, iSWAP and RZZ. CZ stays real, so CZ-legalized
/// circuits keep the cheaper real simulator.
bool needs_complex_simulator(const Circuit& circuit) {
  for (const Gate& g : circuit.gates()) {
    if (g.kind() == GateKind::kRz || g.kind() == GateKind::kUCRz ||
        g.kind() == GateKind::kISwap || g.kind() == GateKind::kRZZ) {
      return true;
    }
  }
  return false;
}

VerificationResult from_fidelity(double fidelity, double tolerance) {
  VerificationResult result;
  result.fidelity = fidelity;
  result.ok = fidelity >= 1.0 - tolerance;
  if (!result.ok) {
    std::ostringstream os;
    os.precision(12);
    os << "fidelity " << fidelity << " below 1 - " << tolerance;
    result.message = os.str();
  }
  return result;
}

/// Simulate `circuit` from the ground state on SV and score it against
/// `target`, embedded with the ancillas (the high qubits) in |0>.
template <typename SV>
VerificationResult verify_on(const Circuit& circuit,
                             const typename SV::State& target,
                             double tolerance) {
  if (circuit.num_qubits() < target.num_qubits()) {
    VerificationResult result;
    result.message = "circuit register narrower than target";
    return result;
  }
  SV sv(circuit.num_qubits());
  sv.apply(circuit);
  return from_fidelity(sv.fidelity(target), tolerance);
}

template <typename SV>
double overlap_on(const Circuit& a, const Circuit& b) {
  SV sa(a.num_qubits());
  SV sb(b.num_qubits());
  sa.apply(a);
  sb.apply(b);
  return std::abs(sa.inner_product(sb));
}

template <typename Amp>
void throw_unless_verified(const Circuit& circuit,
                           const BasicState<Amp>& target, double tolerance) {
  const VerificationResult r = verify_preparation(circuit, target, tolerance);
  if (!r.ok) {
    throw std::runtime_error("verification failed: " + r.message);
  }
}

}  // namespace

VerificationResult verify_preparation(const Circuit& circuit,
                                      const QuantumState& target,
                                      double tolerance) {
  if (needs_complex_simulator(circuit)) {
    // The real instantiation rejects these gates; phase-oracle outputs
    // verify on the complex one, whose fidelity takes the conjugate
    // inner product.
    return verify_preparation(circuit, ComplexState::from_real(target),
                              tolerance);
  }
  return verify_on<Statevector>(circuit, target, tolerance);
}

VerificationResult verify_preparation(const Circuit& circuit,
                                      const ComplexState& target,
                                      double tolerance) {
  return verify_on<ComplexStatevector>(circuit, target, tolerance);
}

double preparation_overlap(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits()) {
    throw std::invalid_argument(
        "preparation_overlap: register mismatch (" +
        std::to_string(a.num_qubits()) + " vs " +
        std::to_string(b.num_qubits()) + " qubits)");
  }
  if (needs_complex_simulator(a) || needs_complex_simulator(b)) {
    return overlap_on<ComplexStatevector>(a, b);
  }
  return overlap_on<Statevector>(a, b);
}

void verify_preparation_or_throw(const Circuit& circuit,
                                 const QuantumState& target,
                                 double tolerance) {
  throw_unless_verified(circuit, target, tolerance);
}

void verify_preparation_or_throw(const Circuit& circuit,
                                 const ComplexState& target,
                                 double tolerance) {
  throw_unless_verified(circuit, target, tolerance);
}

}  // namespace qsp
