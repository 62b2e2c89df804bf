#pragma once
// Routing of logical circuits onto a coupling graph. Long-range CNOTs are
// expanded with the nearest-neighbour parity ladder (4(d-1) CNOTs, no
// ancilla, no SWAP overhead); composite rotations are lowered first so
// every emitted two-qubit gate sits on an edge.

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"

namespace qsp {

/// Expand one long-range CNOT along `path` (first element: control, last:
/// target) into adjacent CNOTs. The construction sends the control's
/// parity down the chain and cleans up after itself:
///   A  = CX(p0->p1) ... CX(p_{k-1}->p_k)     accumulate prefixes
///   B  = CX(p_{k-2}->p_{k-1}) ... CX(p0->p1) restore intermediates
///   A' = A without p0's gate, B' = B without p0's gate
/// A B A' B' leaves p_k ^= p_0 and everything else unchanged: 4(k-1)
/// CNOTs for distance k >= 2. A path shorter than two wires throws
/// std::invalid_argument.
void emit_routed_cnot(Circuit& out, const std::vector<int>& path,
                      bool positive);

/// Rewrite `circuit` so every CNOT acts on a coupling edge. Composite
/// gates (CRy/MCRy/UCRy) are lowered to {X, Ry, CNOT} first. The output
/// register is sized by the device (`coupling.num_qubits()`): routed
/// ladders may pass through device qubits above the logical register,
/// which always return to |0> (the verifier treats them as ancillas).
Circuit route_circuit(const Circuit& circuit, const CouplingGraph& coupling,
                      const LoweringOptions& lowering = {});

/// True if the circuit is native for the device: 1-qubit gates plus
/// positively controlled CNOTs on coupling edges only. Composite
/// rotations (CRy/MCRy/UCRy) and negative controls fail conformance even
/// when their wires touch an edge — lower/route first. A two-qubit gate
/// on a wire the device lacks fails too.
bool respects_coupling(const Circuit& circuit,
                       const CouplingGraph& coupling);

/// Target-aware conformance: 1-qubit gates plus `target`'s native
/// two-qubit gate on coupling edges only (Target::is_native per gate plus
/// the edge check). With the CNOT target this is exactly the overload
/// above; legalized circuits check against their own backend.
bool respects_coupling(const Circuit& circuit, const CouplingGraph& coupling,
                       const Target& target);

}  // namespace qsp
