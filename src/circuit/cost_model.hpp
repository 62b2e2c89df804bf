#pragma once
// Gate cost models. The CNOT-count model of Table I (rotation_cost,
// gate_cnot_cost: standard ancilla-free decompositions — Ry/X free, CNOT
// 1, CRy 2, MCRy/UCRy over c controls 2^c via the gray-code multiplexor,
// Mottonen et al. 2004) plus a two-qubit gate counter for legalized
// circuits on any built-in backend (target.hpp).

#include <cstdint>

#include "circuit/circuit.hpp"
#include "circuit/target.hpp"

namespace qsp {

/// Model cost of one gate, in two-qubit-gate units of the CNOT target.
/// For UCRy this is the worst-case 2^c; the zero-angle-eliding lowering
/// may realize fewer (see lowering.hpp), which benches account for by
/// costing the *lowered* circuit. Device-native two-qubit gates (CZ,
/// iSWAP, RZZ) contribute 1 each: the value is a two-qubit gate count,
/// not an emulation cost (Target::natives_per_cnot carries that factor).
std::int64_t gate_cnot_cost(const Gate& gate);

/// Model cost of a rotation/relabel arc with `num_controls` control
/// literals: 0 -> 0 (Ry), 1 -> 2 (CRy), c -> 2^c (MCRy). Throws
/// std::invalid_argument outside [0, 63).
std::int64_t rotation_cost(int num_controls);

/// Number of native two-qubit gates in a circuit legalized for `target`.
/// Native single-qubit gates contribute 0; any gate outside the target's
/// native set — a composite rotation, or a two-qubit gate of the wrong
/// kind — throws std::invalid_argument naming the offending gate, so a
/// circuit counted against the wrong backend fails loudly instead of
/// silently miscounting (the historical lowered_cnot_count footgun).
std::int64_t two_qubit_gate_count(const Circuit& circuit,
                                  const Target& target);

}  // namespace qsp
