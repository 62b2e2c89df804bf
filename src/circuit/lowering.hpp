#pragma once
// Staged lowering to a backend's native gate set. What used to be one
// monolithic lower() call is three registered passes (pass.hpp) that plug
// into the pass pipeline and legitimately drop kPreservesGateSet:
//
//   mcry-expand      MCRy -> UCRy (one-hot pattern-angle embedding)
//   ucr-gray-lower   UCRy/UCRz/CRy and negative-control CNOT ->
//                    {X, Ry, Rz, CNOT} via the gray-code multiplexor
//   native-legalize  CNOT -> the Target's native two-qubit gate
//                    (CZ / iSWAP / RZZ; no-op on the CNOT target)
//
// lower() runs the stages against the identity (CNOT) target and is
// gate-for-gate identical to the historical monolithic implementation
// ("mapping the circuit to {U(2), CNOT}" in the paper's terminology,
// Section VI-A); the CNOT count of that stream is what all benchmark
// tables report. lower_onto() legalizes for any built-in Target, and the
// pipeline (pass_pipeline.hpp, PipelineOptions::lower_to_target) composes
// the stages with the -O optimization levels in one fixpoint loop.

#include "circuit/circuit.hpp"
#include "circuit/pass.hpp"
#include "circuit/target.hpp"

namespace qsp {

struct LoweringOptions {
  /// Skip zero rotations in multiplexors and fuse the freed CNOT pairs.
  /// With elision a UCRy over c controls may cost fewer than 2^c CNOTs;
  /// without it the count is exactly 2^c, matching the Table-I model.
  /// Angles at or below kIdentityAngleEpsilon count as zero.
  bool elide_zero_rotations = false;
};

/// The three lowering stages in order, as registered Pass objects (they
/// also appear in PassPipeline::registry()). Each preserves preparation
/// and coupling but not the gate set; ucr-gray-lower and native-legalize
/// read PassOptions::elide_zero_rotations / PassOptions::target.
const std::vector<const Pass*>& lowering_pass_sequence();

/// Rewrite `circuit` using only {X, Ry, CNOT} gates (positive controls;
/// plus Rz from the phase extension). Identity-target shim over the
/// staged passes.
Circuit lower(const Circuit& circuit, const LoweringOptions& options = {});

/// Rewrite `circuit` using only the target's native set: {X, Ry, Rz} plus
/// its native two-qubit gate. Runs the three lowering stages in order;
/// Target::is_native_circuit holds on the result.
Circuit lower_onto(const Circuit& circuit, const Target& target,
                   const LoweringOptions& options = {});

/// Number of CNOT gates in an already-lowered circuit. CNOT-target shim
/// over two_qubit_gate_count (cost_model.hpp), kept so benches stay
/// diffable; throws on anything outside {X, Ry, Rz, CNOT}.
std::int64_t lowered_cnot_count(const Circuit& lowered);

/// Convenience: lower then count CNOTs.
std::int64_t count_cnots_after_lowering(const Circuit& circuit,
                                        const LoweringOptions& options = {});

/// Convenience: lower_onto then count native two-qubit gates.
std::int64_t count_two_qubit_after_lowering(
    const Circuit& circuit, const Target& target,
    const LoweringOptions& options = {});

/// The multiplexor rotation angles phi such that the gray-code circuit with
/// rotations phi[j] realizes pattern angles a[s]; exposed for testing.
/// phi[j] = 2^-c * sum_s (-1)^{popcount(s & gray(j)) mod 2} a[s]. Throws
/// std::invalid_argument unless a.size() is a power of two.
std::vector<double> ucry_multiplexor_angles(const std::vector<double>& a);

/// Embed a CRy or MCRy into the equivalent UCRy (one-hot pattern angle
/// table); UCRy gates pass through unchanged, and any other kind throws
/// std::invalid_argument.
Gate mcry_to_ucry(const Gate& gate);

/// Equivalent UCRy whose control wires are listed in `new_order` (a
/// permutation of the gate's control qubits), with the pattern-angle table
/// re-indexed to match. The gray-code lowering uses control bit b for
/// 2^(c-1-b) CNOTs, so callers can put cheap (e.g. coupling-near) wires
/// first. Accepts CRy or MCRy (embedded first) or UCRy; any other kind, or
/// an order that does not permute the controls, throws
/// std::invalid_argument.
Gate reorder_ucry_controls(const Gate& gate,
                           const std::vector<int>& new_order);

}  // namespace qsp
