#pragma once
// Static circuit/IR linter: a no-simulation rule engine over
// Circuit x Target x CouplingGraph x pass preserve-declarations. Every
// rule is a cheap structural scan — native-gate-set and coupling
// conformance, non-finite angles, degenerate rotations and known
// identities, pass-contract consistency, the caller's policy mask —
// producing coded (QL000..QL014) severity-ranked diagnostics with JSON
// output. The rules a single Gate must obey (wires in range and
// distinct, canonical symmetric wire order, multiplexor table size) are
// not lint rules: the Gate factories and Circuit::append enforce them on
// every gate, and the QASM front door reports their throws as QL000.
// Three consumers:
//   * PassPipeline runs the error rules after every productive pass
//     application, release builds included (the always-on complement to
//     the debug-only statevector re-verify);
//   * SynthesisService lints QASM requests at the front door, so a
//     malformed request is rejected before any search spends budget;
//   * tools/qsplint lints QASM files and bench JSONL outputs standalone.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/pass.hpp"
#include "circuit/target.hpp"

namespace qsp {

class CouplingGraph;

enum class LintSeverity : int {
  kInfo = 0,
  kWarning = 1,
  kError = 2,
};

/// "info" / "warning" / "error".
std::string_view lint_severity_name(LintSeverity severity);

/// The rule catalog. Codes are stable ("QL" + three digits, the enum
/// value); severities are fixed per rule (lint_rule_severity). QL001-QL003
/// (wire bounds, overlapping controls, symmetric wire order) are retired
/// and their numbers stay unused: the Gate factories own those rules, so
/// no Circuit can break them.
enum class LintRule : int {
  kParseError = 0,             ///< QL000: QASM text failed to parse (or
                               ///<        named a gate the factories
                               ///<        reject).
  kNonNativeGate = 4,          ///< QL004: gate outside the target's
                               ///<        native set.
  kCouplingViolation = 5,      ///< QL005: native two-qubit gate off the
                               ///<        device's edge set.
  kDegenerateRotation = 6,     ///< QL006: rotation that is the identity
                               ///<        at kIdentityAngleEpsilon
                               ///<        (warning).
  kIdentityPair = 7,           ///< QL007: adjacent self-inverse pair the
                               ///<        optimizer should have removed
                               ///<        (warning).
  kPassContract = 8,           ///< QL008: pass output inconsistent with
                               ///<        its preserves() declaration.
  kMalformedAngles = 9,        ///< QL009: non-finite angle.
  kUnsupportedGate = 10,       ///< QL010: gate kind outside the caller's
                               ///<        allowed set (policy mask).
  // QL011..QL014 are the flow-sensitive rules: they need facts that flow
  // *through* the circuit (per-wire basis/parity abstract state), so their
  // scan lives in the dataflow engine (circuit/dataflow.hpp ->
  // dataflow_lint), not in the structural lint_circuit walk. The catalog
  // entries live here so codes, names and severities stay in one place.
  kDeadControl = 11,           ///< QL011: gate provably the identity on
                               ///<        every reachable basis state
                               ///<        (e.g. a control provably |0>)
                               ///<        (warning).
  kConstantOneControl = 12,    ///< QL012: control provably satisfied on
                               ///<        every reachable basis state —
                               ///<        the gate should be demoted to
                               ///<        its uncontrolled form (warning).
  kRedundantCnot = 13,         ///< QL013: CNOT provably cancelled by an
                               ///<        earlier CNOT onto the same
                               ///<        target with the same parity
                               ///<        effect (warning).
  kAncillaReleasedDirty = 14,  ///< QL014: workspace/ancilla wire not
                               ///<        provably restored to |0> at
                               ///<        circuit end.
};

/// Stable code, e.g. "QL004".
std::string_view lint_rule_code(LintRule rule);
/// Stable kebab-case name, e.g. "non-native-gate".
std::string_view lint_rule_name(LintRule rule);
/// Fixed severity class of the rule.
LintSeverity lint_rule_severity(LintRule rule);

struct LintDiagnostic {
  LintRule rule = LintRule::kParseError;
  LintSeverity severity = LintSeverity::kError;
  /// Index of the offending gate in the linted gate list; -1 for
  /// circuit-level diagnostics (parse errors, pass contracts).
  std::int64_t gate_index = -1;
  std::string message;

  /// "error[QL004] gate 3: <message>".
  std::string to_string() const;
};

/// Bit for one GateKind in LintOptions::allowed_kinds.
constexpr std::uint32_t lint_kind_bit(GateKind kind) {
  return 1u << static_cast<int>(kind);
}

struct LintOptions {
  /// Check native-set conformance (QL004) against this target. Unset, the
  /// rule is skipped — pre-lowering circuits are legitimately composite.
  std::optional<Target> target;
  /// Check native two-qubit gates sit on device edges (QL005); a gate on
  /// a wire the device lacks sits on no edge. Composite gates are skipped
  /// (they are routed during lowering, not here).
  std::shared_ptr<const CouplingGraph> coupling;
  /// QL006: rotations with every |angle| at or below
  /// kIdentityAngleEpsilon (warning). Off in the pipeline gate —
  /// gray-code lowering legitimately emits zero rotations unless
  /// PassOptions::elide_zero_rotations is set.
  bool degenerate_rotations = true;
  /// QL007: adjacent self-inverse identity pairs (warning).
  bool identity_pairs = true;
  /// QL010 policy mask: bit lint_kind_bit(kind) set = kind allowed.
  /// 0 disables the rule (every kind allowed).
  std::uint32_t allowed_kinds = 0;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;

  /// Append one diagnostic at the rule's fixed severity.
  void add(LintRule rule, std::int64_t gate_index, std::string message);

  bool has_errors() const;
  bool has_warnings() const;
  std::size_t count(LintSeverity severity) const;
  /// One diagnostic per line; "" when clean.
  std::string to_string() const;
  /// JSON array of {code, name, severity, gate, message} objects.
  std::string to_json() const;
};

/// Lint a circuit: every per-gate rule plus the adjacency patterns.
LintReport lint_circuit(const Circuit& circuit,
                        const LintOptions& options = {});

/// The facts about a pre-pass circuit the contract check needs, cheap to
/// record up front (one linear scan) so the pipeline's release-mode gate
/// never copies the circuit the way the debug simulation verify does.
struct CircuitFacts {
  std::size_t num_gates = 0;
  /// lint_kind_bit mask of the gate kinds present.
  std::uint32_t kinds = 0;
  /// Every native two-qubit gate sat on a device edge (false when no
  /// coupling was supplied — the conformance precondition then never
  /// activates the QL005/QL008 coupling checks).
  bool coupling_conforms = false;
};

CircuitFacts circuit_facts(const Circuit& circuit,
                           const CouplingGraph* coupling);

/// Pass-contract consistency (QL008) for one pass application: a pass
/// claiming kPreservesGateSet must not introduce a gate kind or grow the
/// gate count; one claiming kPreservesCoupling must keep native two-qubit
/// gates on device edges when `before` conformed (checked only when
/// `options.coupling` is set). Purely structural — the simulation-based
/// preparation check stays in the pipeline's debug verify.
LintReport lint_pass_application(const Pass& pass, const CircuitFacts& before,
                                 const Circuit& after,
                                 const LintOptions& options = {});

/// Lint OpenQASM 2.0 text: parse (QL000 on failure) then lint_circuit.
/// With `parsed` non-null, the parsed circuit is stored there on success
/// so callers (the service front door) do not parse twice.
LintReport lint_qasm(const std::string& qasm, const LintOptions& options = {},
                     std::optional<Circuit>* parsed = nullptr);

}  // namespace qsp
