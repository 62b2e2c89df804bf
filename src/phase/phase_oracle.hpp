#pragma once
// Diagonal phase-oracle synthesis and the complex-amplitude preparation
// pipeline (paper Section VI-A, citing Amy et al. on CNOT-phase circuits):
// |psi> = D(phi) |mag| with |mag| prepared by the real-amplitude workflow
// and D(phi) a diagonal unitary built from a chain of uniformly-controlled
// Rz multiplexors (<= 2^n - 2 CNOTs; zero-angle elision collapses it
// entirely for real targets).

#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "flow/solver.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

/// Synthesize D with D|x> = e^{i table[x]} |x> up to a global phase.
/// `table.size()` must be 2^num_qubits (num_qubits <= 20).
Circuit synthesize_phase_oracle(int num_qubits,
                                const std::vector<double>& table);

/// Sparse variant: phases on support indices only; off-support phases are
/// don't-cares fixed to zero.
Circuit synthesize_phase_oracle(
    int num_qubits,
    const std::vector<std::pair<BasisIndex, double>>& phases);

struct ComplexPrepResult {
  bool found = false;
  bool timed_out = false;
  Circuit circuit{1};
};

/// Prepare an arbitrary complex-amplitude state: the Fig.-5 workflow
/// prepares the magnitude state, then the phase oracle imprints the
/// support phases. Verify with verify_preparation (sim/verifier.hpp).
ComplexPrepResult prepare_complex(const ComplexState& target,
                                  const WorkflowOptions& options = {});

}  // namespace qsp
