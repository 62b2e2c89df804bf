#pragma once
// OpenQASM 2.0 export and import. Circuits are lowered onto a Target's
// native set before emission, so the output uses only `x`, `ry`, `rz`
// plus the target's two-qubit mnemonic (`cx`, `cz`, `iswap` or `rzz`);
// from_qasm() parses exactly that emitted subset back into a Circuit, so
// emit -> parse is the identity on lowered gate lists (property-tested
// over the random-circuit corpus, per target).

#include <string>

#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "circuit/target.hpp"

namespace qsp {

/// Serialize as an OpenQASM 2.0 program over register q[num_qubits],
/// lowered to {X, Ry, Rz, CNOT} (the CNOT target).
std::string to_qasm(const Circuit& circuit,
                    const LoweringOptions& options = {});

/// Serialize lowered onto `target`'s native gate set.
std::string to_qasm(const Circuit& circuit, const Target& target,
                    const LoweringOptions& options = {});

/// Parse the OpenQASM 2.0 subset emitted by to_qasm: one `qreg q[n];`
/// declaration and `x`/`ry`/`rz`/`cx`/`cz`/`iswap`/`rzz` statements over
/// it (OPENQASM / include headers and `//` comments are skipped). Angles
/// are read with full double precision, so to_qasm -> from_qasm
/// reproduces the lowered gate list exactly. Throws std::invalid_argument
/// on anything outside the subset, including qubit indices and register
/// sizes above kMaxQubits, with the offending line's number and text in
/// the message.
Circuit from_qasm(const std::string& qasm);

}  // namespace qsp
