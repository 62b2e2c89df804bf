#include "sim/verifier.hpp"

#include <cmath>
#include <complex>
#include <sstream>
#include <stdexcept>

#include "phase/complex_statevector.hpp"
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

}  // namespace

VerificationResult verify_preparation(const Circuit& circuit,
                                      const QuantumState& target,
                                      double tolerance) {
  VerificationResult result;
  if (circuit.num_qubits() < target.num_qubits()) {
    result.message = "circuit register narrower than target";
    return result;
  }
  if (needs_complex_simulator(circuit)) {
    // The real simulator rejects these gates; phase-oracle outputs verify
    // on the complex path (which also needs the conjugated inner product).
    return verify_preparation(circuit, ComplexState(target), tolerance);
  }
  Statevector sv(circuit.num_qubits());
  sv.apply(circuit);

  // Inner product against target embedded with ancillas in |0>: the
  // embedded target has the same basis indices (ancillas are high bits).
  // Real amplitudes are self-conjugate, so the plain product is the
  // complex inner product here.
  double ip = 0.0;
  for (const Term& t : target.terms()) {
    ip += sv.amplitudes()[t.index] * t.amplitude;
  }
  return from_fidelity(ip * ip, tolerance);
}

VerificationResult verify_preparation(const Circuit& circuit,
                                      const ComplexState& target,
                                      double tolerance) {
  VerificationResult result;
  if (circuit.num_qubits() < target.num_qubits()) {
    result.message = "circuit register narrower than target";
    return result;
  }
  ComplexStatevector sv(circuit.num_qubits());
  sv.apply(circuit);
  // |<target|prepared>|^2 with the conjugate inner product: insensitive
  // to global phase but penalizes any relative-phase error.
  return from_fidelity(sv.fidelity(target), tolerance);
}

double preparation_overlap(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits()) {
    throw std::invalid_argument("preparation_overlap: register mismatch");
  }
  const int n = a.num_qubits();
  if (needs_complex_simulator(a) || needs_complex_simulator(b)) {
    ComplexStatevector sa(n);
    ComplexStatevector sb(n);
    sa.apply(a);
    sb.apply(b);
    std::complex<double> ip = 0.0;
    for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
      ip += std::conj(sa.amplitudes()[i]) * sb.amplitudes()[i];
    }
    return std::abs(ip);
  }
  Statevector sa(n);
  Statevector sb(n);
  sa.apply(a);
  sb.apply(b);
  return std::abs(sa.inner_product(sb));
}

void verify_preparation_or_throw(const Circuit& circuit,
                                 const QuantumState& target,
                                 double tolerance) {
  const VerificationResult r = verify_preparation(circuit, target, tolerance);
  if (!r.ok) {
    throw std::runtime_error("verification failed: " + r.message);
  }
}

void verify_preparation_or_throw(const Circuit& circuit,
                                 const ComplexState& target,
                                 double tolerance) {
  const VerificationResult r = verify_preparation(circuit, target, tolerance);
  if (!r.ok) {
    throw std::runtime_error("verification failed: " + r.message);
  }
}

}  // namespace qsp
