#include "circuit/lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "arch/coupling.hpp"
#include "circuit/qasm.hpp"

namespace qsp {
namespace {

std::string_view kind_name(GateKind kind) {
  switch (kind) {
    case GateKind::kX:
      return "x";
    case GateKind::kRy:
      return "ry";
    case GateKind::kCNOT:
      return "cnot";
    case GateKind::kCRy:
      return "cry";
    case GateKind::kMCRy:
      return "mcry";
    case GateKind::kUCRy:
      return "ucry";
    case GateKind::kRz:
      return "rz";
    case GateKind::kUCRz:
      return "ucrz";
    case GateKind::kCZ:
      return "cz";
    case GateKind::kISwap:
      return "iswap";
    case GateKind::kRZZ:
      return "rzz";
  }
  return "?";
}

bool is_symmetric_two_qubit(GateKind kind) {
  return kind == GateKind::kCZ || kind == GateKind::kISwap ||
         kind == GateKind::kRZZ;
}

bool is_native_two_qubit(GateKind kind) {
  return kind == GateKind::kCNOT || is_symmetric_two_qubit(kind);
}

bool is_self_inverse(GateKind kind) {
  return kind == GateKind::kX || kind == GateKind::kCNOT ||
         kind == GateKind::kCZ;
}

bool uses_theta(GateKind kind) {
  switch (kind) {
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kRz:
    case GateKind::kRZZ:
      return true;
    default:
      return false;
  }
}

bool is_multiplexor(GateKind kind) {
  return kind == GateKind::kUCRy || kind == GateKind::kUCRz;
}

/// Mirror of Target::is_native over raw fields (a RawGate may be
/// unconstructible through the validating factories).
bool raw_is_native(const RawGate& gate, const Target& target) {
  switch (gate.kind) {
    case GateKind::kX:
    case GateKind::kRy:
    case GateKind::kRz:
      return gate.controls.empty();
    case GateKind::kCNOT:
      return target.two_qubit_kind() == GateKind::kCNOT &&
             gate.controls.size() == 1 && gate.controls[0].positive;
    case GateKind::kCZ:
    case GateKind::kISwap:
    case GateKind::kRZZ:
      return gate.kind == target.two_qubit_kind();
    default:
      return false;
  }
}

/// All rotation angles at or below kIdentityAngleEpsilon: the gate is the
/// identity.
bool raw_is_degenerate_rotation(const RawGate& gate) {
  const auto trivial = [](double a) {
    return std::abs(a) <= kIdentityAngleEpsilon;
  };
  if (uses_theta(gate.kind)) return trivial(gate.theta);
  if (is_multiplexor(gate.kind)) {
    if (gate.angles.empty()) return true;
    return std::all_of(gate.angles.begin(), gate.angles.end(), trivial);
  }
  return false;
}

void add(LintReport& report, LintRule rule, std::int64_t gate_index,
         std::string message) {
  LintDiagnostic d;
  d.rule = rule;
  d.severity = lint_rule_severity(rule);
  d.gate_index = gate_index;
  d.message = std::move(message);
  report.diagnostics.push_back(std::move(d));
}

/// Every native two-qubit gate sits on a device edge (composites skipped:
/// they are routed during lowering, not here). The precondition side of
/// the kPreservesCoupling contract check.
bool native_two_qubit_conforms(const Circuit& circuit,
                               const CouplingGraph& coupling) {
  for (const Gate& g : circuit.gates()) {
    if (!is_native_two_qubit(g.kind()) || g.controls().size() != 1) continue;
    const int a = g.controls()[0].qubit;
    const int b = g.target();
    if (a < 0 || a >= coupling.num_qubits() || b < 0 ||
        b >= coupling.num_qubits() || !coupling.has_edge(a, b)) {
      return false;
    }
  }
  return true;
}

std::string escape_json_string(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view lint_severity_name(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kInfo:
      return "info";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

std::string_view lint_rule_code(LintRule rule) {
  switch (rule) {
    case LintRule::kParseError:
      return "QL000";
    case LintRule::kWireBounds:
      return "QL001";
    case LintRule::kOverlappingControls:
      return "QL002";
    case LintRule::kNoncanonicalSymmetric:
      return "QL003";
    case LintRule::kNonNativeGate:
      return "QL004";
    case LintRule::kCouplingViolation:
      return "QL005";
    case LintRule::kDegenerateRotation:
      return "QL006";
    case LintRule::kIdentityPair:
      return "QL007";
    case LintRule::kPassContract:
      return "QL008";
    case LintRule::kMalformedAngles:
      return "QL009";
    case LintRule::kUnsupportedGate:
      return "QL010";
    case LintRule::kDeadControl:
      return "QL011";
    case LintRule::kConstantOneControl:
      return "QL012";
    case LintRule::kRedundantCnot:
      return "QL013";
    case LintRule::kAncillaReleasedDirty:
      return "QL014";
  }
  return "QL???";
}

std::string_view lint_rule_name(LintRule rule) {
  switch (rule) {
    case LintRule::kParseError:
      return "parse-error";
    case LintRule::kWireBounds:
      return "wire-bounds";
    case LintRule::kOverlappingControls:
      return "overlapping-controls";
    case LintRule::kNoncanonicalSymmetric:
      return "canonical-wire-order";
    case LintRule::kNonNativeGate:
      return "non-native-gate";
    case LintRule::kCouplingViolation:
      return "coupling-violation";
    case LintRule::kDegenerateRotation:
      return "degenerate-rotation";
    case LintRule::kIdentityPair:
      return "identity-pair";
    case LintRule::kPassContract:
      return "pass-contract";
    case LintRule::kMalformedAngles:
      return "malformed-angles";
    case LintRule::kUnsupportedGate:
      return "unsupported-gate";
    case LintRule::kDeadControl:
      return "dead-control";
    case LintRule::kConstantOneControl:
      return "constant-one-control";
    case LintRule::kRedundantCnot:
      return "redundant-cnot";
    case LintRule::kAncillaReleasedDirty:
      return "ancilla-released-dirty";
  }
  return "?";
}

LintSeverity lint_rule_severity(LintRule rule) {
  switch (rule) {
    case LintRule::kDegenerateRotation:
    case LintRule::kIdentityPair:
    // The flow-sensitive redundancy rules are warnings: the circuit is
    // still correct, it merely carries work the dataflow-simplify pass
    // would remove. QL014 stays an error — a dirty workspace wire breaks
    // the register contract (spare device qubits return to |0>).
    case LintRule::kDeadControl:
    case LintRule::kConstantOneControl:
    case LintRule::kRedundantCnot:
      return LintSeverity::kWarning;
    default:
      return LintSeverity::kError;
  }
}

std::string LintDiagnostic::to_string() const {
  std::ostringstream os;
  os << lint_severity_name(severity) << "[" << lint_rule_code(rule) << "]";
  if (gate_index >= 0) os << " gate " << gate_index;
  os << ": " << message;
  return os.str();
}

bool LintReport::has_errors() const {
  return count(LintSeverity::kError) > 0;
}

bool LintReport::has_warnings() const {
  return count(LintSeverity::kWarning) > 0;
}

std::size_t LintReport::count(LintSeverity severity) const {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string LintReport::to_string() const {
  std::string out;
  for (const LintDiagnostic& d : diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

std::string LintReport::to_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const LintDiagnostic& d = diagnostics[i];
    if (i > 0) os << ",";
    os << "{\"code\":\"" << lint_rule_code(d.rule) << "\",\"name\":\""
       << lint_rule_name(d.rule) << "\",\"severity\":\""
       << lint_severity_name(d.severity) << "\",\"gate\":" << d.gate_index
       << ",\"message\":\"" << escape_json_string(d.message) << "\"}";
  }
  os << "]";
  return os.str();
}

RawGate RawGate::from(const Gate& gate) {
  RawGate raw;
  raw.kind = gate.kind();
  raw.target = gate.target();
  raw.theta = gate.theta();
  raw.controls = gate.controls();
  raw.angles = gate.angles();
  return raw;
}

void lint_raw_gate(const RawGate& gate, std::int64_t index, int num_qubits,
                   const LintOptions& options, LintReport& report) {
  std::ostringstream os;

  // QL010: policy mask first — an excluded kind makes the structural
  // findings below secondary, but they are still reported.
  if (options.allowed_kinds != 0 &&
      (options.allowed_kinds & lint_kind_bit(gate.kind)) == 0) {
    os << "gate kind '" << kind_name(gate.kind)
       << "' is not in the allowed set";
    add(report, LintRule::kUnsupportedGate, index, os.str());
    os.str("");
  }

  // QL001: every referenced wire inside [0, num_qubits).
  if (gate.target < 0 || gate.target >= num_qubits) {
    os << "target wire " << gate.target << " outside register [0, "
       << num_qubits << ")";
    add(report, LintRule::kWireBounds, index, os.str());
    os.str("");
  }
  for (const ControlLiteral& c : gate.controls) {
    if (c.qubit < 0 || c.qubit >= num_qubits) {
      os << "control wire " << c.qubit << " outside register [0, "
         << num_qubits << ")";
      add(report, LintRule::kWireBounds, index, os.str());
      os.str("");
    }
  }

  // QL002: controls must name distinct wires, none the target.
  for (std::size_t i = 0; i < gate.controls.size(); ++i) {
    if (gate.controls[i].qubit == gate.target) {
      os << "control on the target wire " << gate.target;
      add(report, LintRule::kOverlappingControls, index, os.str());
      os.str("");
    }
    for (std::size_t j = i + 1; j < gate.controls.size(); ++j) {
      if (gate.controls[i].qubit == gate.controls[j].qubit) {
        os << "duplicate control wire " << gate.controls[i].qubit;
        add(report, LintRule::kOverlappingControls, index, os.str());
        os.str("");
      }
    }
  }

  // QL009: angles must be finite; multiplexor tables sized 2^controls.
  if (uses_theta(gate.kind) && !std::isfinite(gate.theta)) {
    os << "non-finite angle " << gate.theta;
    add(report, LintRule::kMalformedAngles, index, os.str());
    os.str("");
  }
  if (is_multiplexor(gate.kind)) {
    const std::size_t expected = std::size_t{1} << gate.controls.size();
    if (gate.angles.size() != expected) {
      os << "multiplexor over " << gate.controls.size() << " controls needs "
         << expected << " angles, has " << gate.angles.size();
      add(report, LintRule::kMalformedAngles, index, os.str());
      os.str("");
    }
    for (const double a : gate.angles) {
      if (!std::isfinite(a)) {
        os << "non-finite multiplexor angle " << a;
        add(report, LintRule::kMalformedAngles, index, os.str());
        os.str("");
        break;
      }
    }
  }

  // QL003: symmetric natives store the lower wire as a positive control
  // (the Gate-factory canonical form adjacency passes rely on to cancel
  // cz(a,b) against cz(b,a)).
  if (is_symmetric_two_qubit(gate.kind) && gate.controls.size() == 1) {
    const ControlLiteral& c = gate.controls[0];
    if (!c.positive || c.qubit > gate.target) {
      os << kind_name(gate.kind) << " wire pair (" << c.qubit << ", "
         << gate.target << ") not in canonical (lower, positive) order";
      add(report, LintRule::kNoncanonicalSymmetric, index, os.str());
      os.str("");
    }
  }

  // QL004: native-set conformance against the declared target.
  if (options.target.has_value() && !raw_is_native(gate, *options.target)) {
    os << "gate '" << kind_name(gate.kind) << "' is not native to target '"
       << options.target->name() << "'";
    add(report, LintRule::kNonNativeGate, index, os.str());
    os.str("");
  }

  // QL005: native two-qubit gates must sit on device edges. Composite
  // gates are exempt — routing legalizes them during lowering.
  if (options.coupling != nullptr && is_native_two_qubit(gate.kind) &&
      gate.controls.size() == 1) {
    const int a = gate.controls[0].qubit;
    const int b = gate.target;
    const int n = options.coupling->num_qubits();
    if (a >= 0 && a < n && b >= 0 && b < n &&
        !options.coupling->has_edge(a, b)) {
      os << kind_name(gate.kind) << " on (" << a << ", " << b
         << ") is not a device edge";
      add(report, LintRule::kCouplingViolation, index, os.str());
      os.str("");
    }
  }

  // QL006 (warning): the gate is the identity at kIdentityAngleEpsilon.
  if (options.degenerate_rotations && raw_is_degenerate_rotation(gate)) {
    os << "rotation '" << kind_name(gate.kind)
       << "' is the identity at epsilon " << kIdentityAngleEpsilon;
    add(report, LintRule::kDegenerateRotation, index, os.str());
    os.str("");
  }
}

LintReport lint_circuit(const Circuit& circuit, const LintOptions& options) {
  LintReport report;
  const std::vector<Gate>& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    lint_raw_gate(RawGate::from(gates[i]), static_cast<std::int64_t>(i),
                  circuit.num_qubits(), options, report);
  }
  // QL007 (warning): adjacent self-inverse pairs are known identities the
  // optimizer removes; their survival means cleanup never ran (or a
  // generator is emitting dead work).
  if (options.identity_pairs) {
    for (std::size_t i = 0; i + 1 < gates.size(); ++i) {
      if (is_self_inverse(gates[i].kind()) && gates[i] == gates[i + 1]) {
        std::ostringstream os;
        os << "adjacent identical self-inverse '" << kind_name(gates[i].kind())
           << "' pair is the identity";
        add(report, LintRule::kIdentityPair, static_cast<std::int64_t>(i + 1),
            os.str());
      }
    }
  }
  return report;
}

CircuitFacts circuit_facts(const Circuit& circuit,
                           const CouplingGraph* coupling) {
  CircuitFacts facts;
  facts.num_gates = circuit.size();
  for (const Gate& g : circuit.gates()) {
    facts.kinds |= lint_kind_bit(g.kind());
  }
  facts.coupling_conforms =
      coupling != nullptr && native_two_qubit_conforms(circuit, *coupling);
  return facts;
}

LintReport lint_pass_application(const Pass& pass, const CircuitFacts& before,
                                 const Circuit& after,
                                 const LintOptions& options) {
  LintReport report;
  std::ostringstream os;
  if ((pass.preserves() & kPreservesGateSet) != 0) {
    // Gate-set-preserving passes only erase or fuse, so the gate count is
    // monotone for them and the output kinds are a subset of the input's.
    if (after.size() > before.num_gates) {
      os << "pass '" << pass.name() << "' claims kPreservesGateSet but grew "
         << before.num_gates << " gates to " << after.size();
      add(report, LintRule::kPassContract, -1, os.str());
      os.str("");
    }
    std::uint32_t known_kinds = before.kinds;
    for (const Gate& g : after.gates()) {
      if ((known_kinds & lint_kind_bit(g.kind())) == 0) {
        os << "pass '" << pass.name()
           << "' claims kPreservesGateSet but introduced gate kind '"
           << kind_name(g.kind()) << "'";
        add(report, LintRule::kPassContract, -1, os.str());
        os.str("");
        known_kinds |= lint_kind_bit(g.kind());  // report each kind once
      }
    }
  }
  if ((pass.preserves() & kPreservesCoupling) != 0 &&
      options.coupling != nullptr && before.coupling_conforms &&
      !native_two_qubit_conforms(after, *options.coupling)) {
    os << "pass '" << pass.name()
       << "' claims kPreservesCoupling but moved a native two-qubit gate "
          "off the device's edge set";
    add(report, LintRule::kPassContract, -1, os.str());
    os.str("");
  }
  return report;
}

LintReport lint_pass_application(const Pass& pass, const Circuit& before,
                                 const Circuit& after,
                                 const LintOptions& options) {
  return lint_pass_application(pass, circuit_facts(before, options.coupling.get()),
                               after, options);
}

LintReport lint_qasm(const std::string& qasm, const LintOptions& options,
                     std::optional<Circuit>* parsed) {
  if (parsed != nullptr) parsed->reset();
  Circuit circuit(1);
  try {
    circuit = from_qasm(qasm);
  } catch (const std::invalid_argument& e) {
    LintReport report;
    add(report, LintRule::kParseError, -1, e.what());
    return report;
  }
  LintReport report = lint_circuit(circuit, options);
  if (parsed != nullptr) *parsed = std::move(circuit);
  return report;
}

}  // namespace qsp
