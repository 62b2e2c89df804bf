#pragma once
// Shared fixtures for the differential pass harness: seeded random-circuit
// corpora spanning every gate kind the pipeline rewrites (X, Ry, CNOT, CRy,
// MCRy, UCRy and the z-axis Rz/UCRz) and coupled corpora whose circuits
// are native for a device. Built as the qsp_test_util static library and
// linked into every test binary, so the pass, peephole and QASM property
// tests draw from the same distribution. The overlap check they pair with
// is preparation_overlap (sim/verifier.hpp).

#include <cstdint>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "util/rng.hpp"

namespace qsp::test {

struct CorpusOptions {
  /// Register widths the corpus spans.
  std::vector<int> widths = {2, 3, 4, 5};
  int circuits_per_width = 6;
  int gates_per_circuit = 40;
  std::uint64_t seed = 0xC0FFEE;
  /// Include z-axis gates (Rz/UCRz), which force the complex-statevector
  /// verification path.
  bool with_phase_gates = true;
  /// Fraction of rotation angles drawn below the dead-rotation epsilon.
  double near_zero_fraction = 0.15;
  /// Fraction of gates that duplicate a recently emitted gate, seeding
  /// cancellation and fusion opportunities the passes should find.
  double duplicate_fraction = 0.25;
};

/// One random gate over an n-qubit register (n >= 2). Draws across every
/// kind; MCRy needs n >= 3 and is replaced by CRy on two wires.
Gate random_gate(int n, Rng& rng, const CorpusOptions& options);

/// Random circuit of `size` gates, duplicate-seeded per CorpusOptions.
Circuit random_circuit(int n, int size, Rng& rng,
                       const CorpusOptions& options = {});

/// The standard corpus: circuits_per_width circuits per width, seeded, so
/// every property test sees the same instances.
std::vector<Circuit> random_circuit_corpus(const CorpusOptions& options = {});

/// Random circuit that is native for `device` (respects_coupling holds):
/// single-qubit x/ry/rz plus CNOTs on coupling edges only, with the same
/// duplicate seeding as random_circuit.
Circuit random_coupled_circuit(const CouplingGraph& device, int size, Rng& rng,
                               const CorpusOptions& options = {});

}  // namespace qsp::test
