#include "circuit/dataflow.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

namespace qsp {
namespace {

void add_diagnostic(LintReport& report, LintRule rule, std::int64_t index,
                    std::string message) {
  LintDiagnostic d;
  d.rule = rule;
  d.severity = lint_rule_severity(rule);
  d.gate_index = index;
  d.message = std::move(message);
  report.diagnostics.push_back(std::move(d));
}

bool trivial_angle(double theta) {
  return std::abs(theta) <= kIdentityAngleEpsilon;
}

bool all_trivial(const std::vector<double>& angles) {
  return std::all_of(angles.begin(), angles.end(), trivial_angle);
}

}  // namespace

// ---------------------------------------------------------------------------
// AffineForm
// ---------------------------------------------------------------------------

bool AffineForm::is_constant() const {
  for (const std::uint64_t word : mask) {
    if (word != 0) return false;
  }
  return true;
}

void AffineForm::xor_with(const AffineForm& other) {
  if (other.mask.size() > mask.size()) mask.resize(other.mask.size(), 0);
  for (std::size_t i = 0; i < other.mask.size(); ++i) mask[i] ^= other.mask[i];
  offset = offset != other.offset;
}

bool AffineForm::same_mask(const AffineForm& other) const {
  const std::size_t n = std::max(mask.size(), other.mask.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < mask.size() ? mask[i] : 0;
    const std::uint64_t b = i < other.mask.size() ? other.mask[i] : 0;
    if (a != b) return false;
  }
  return true;
}

bool operator==(const AffineForm& a, const AffineForm& b) {
  return a.offset == b.offset && a.same_mask(b);
}

std::string AffineForm::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t word = mask[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      word &= word - 1;
      if (!first) os << "^";
      os << "v" << (64 * w + static_cast<std::size_t>(bit));
      first = false;
    }
  }
  if (first) return offset ? "1" : "0";
  if (offset) os << "^1";
  return os.str();
}

// ---------------------------------------------------------------------------
// DataflowEngine
// ---------------------------------------------------------------------------

DataflowEngine::DataflowEngine(int num_qubits)
    : forms_(static_cast<std::size_t>(num_qubits)),
      wire_node_(static_cast<std::size_t>(num_qubits)),
      parent_(static_cast<std::size_t>(num_qubits)),
      records_(static_cast<std::size_t>(num_qubits)) {
  for (int q = 0; q < num_qubits; ++q) {
    wire_node_[static_cast<std::size_t>(q)] = q;
    parent_[static_cast<std::size_t>(q)] = q;
  }
}

AffineForm DataflowEngine::fresh_variable() {
  const int v = num_variables_++;
  AffineForm form;
  form.mask.assign(static_cast<std::size_t>(v / 64) + 1, 0);
  form.mask[static_cast<std::size_t>(v / 64)] = std::uint64_t{1}
                                                << (v % 64);
  return form;
}

int DataflowEngine::find(int node) const {
  while (parent_[static_cast<std::size_t>(node)] != node) {
    parent_[static_cast<std::size_t>(node)] =
        parent_[static_cast<std::size_t>(
            parent_[static_cast<std::size_t>(node)])];
    node = parent_[static_cast<std::size_t>(node)];
  }
  return node;
}

void DataflowEngine::merge(int a, int b) {
  const int ra = find(wire_node_[static_cast<std::size_t>(a)]);
  const int rb = find(wire_node_[static_cast<std::size_t>(b)]);
  if (ra != rb) parent_[static_cast<std::size_t>(ra)] = rb;
}

void DataflowEngine::invalidate_records(const Gate& gate) {
  for (const int q : gate.qubits()) {
    records_[static_cast<std::size_t>(q)].alive = false;
  }
}

std::optional<bool> DataflowEngine::wire_constant(int q) const {
  const AffineForm& form = forms_[static_cast<std::size_t>(q)];
  if (!form.is_constant()) return std::nullopt;
  return form.constant_value();
}

/// Verdict for the Ry-family controlled rotations (CRy/MCRy): dead when
/// any control literal is provably unsatisfied, demoted when one or more
/// literals are provably satisfied (the survivors keep the rotation
/// conditional).
GateVerdict DataflowEngine::controlled_rotation_verdict(
    const Gate& gate) const {
  GateVerdict verdict;
  std::vector<ControlLiteral> remaining;
  std::ostringstream reason;
  for (const ControlLiteral& c : gate.controls()) {
    const std::optional<bool> value = wire_constant(c.qubit);
    if (!value.has_value()) {
      remaining.push_back(c);
      continue;
    }
    if (*value != c.positive) {
      reason.str("");
      reason << "control wire " << c.qubit << " provably |" << (*value ? 1 : 0)
             << ">; the gate is the identity on every reachable state";
      verdict.action = GateVerdict::Action::kDrop;
      verdict.reason = reason.str();
      return verdict;
    }
    if (reason.tellp() > 0) reason << ", ";
    reason << "control wire " << c.qubit << " provably |" << (*value ? 1 : 0)
           << ">";
  }
  if (remaining.size() < gate.controls().size()) {
    verdict.action = GateVerdict::Action::kReplace;
    verdict.replacement =
        Gate::mcry(std::move(remaining), gate.target(), gate.theta());
    reason << "; demote to '" << verdict.replacement->to_string() << "'";
    verdict.reason = reason.str();
  }
  return verdict;
}

GateVerdict DataflowEngine::apply(const Gate& gate, std::int64_t index) {
  GateVerdict verdict;
  const int t = gate.target();
  switch (gate.kind()) {
    case GateKind::kX: {
      forms_[static_cast<std::size_t>(t)].flip();
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kCNOT: {
      const ControlLiteral& c = gate.controls()[0];
      // The CNOT's effect on the target is the XOR of this flip
      // expression: the control's form, complemented for a negative
      // literal (the gate fires when the wire reads 0).
      AffineForm flip = forms_[static_cast<std::size_t>(c.qubit)];
      if (!c.positive) flip.flip();
      std::ostringstream reason;
      if (flip.is_constant()) {
        forms_[static_cast<std::size_t>(t)].xor_with(flip);
        if (!flip.constant_value()) {
          reason << "control wire " << c.qubit << " provably |"
                 << (c.positive ? 0 : 1)
                 << ">; the gate is the identity on every reachable state";
          verdict.action = GateVerdict::Action::kDrop;
        } else {
          reason << "control wire " << c.qubit << " provably |"
                 << (c.positive ? 1 : 0) << ">; demote to 'x q" << t << "'";
          verdict.action = GateVerdict::Action::kReplace;
          verdict.replacement = Gate::x(t);
        }
        verdict.reason = reason.str();
        invalidate_records(gate);
        return verdict;
      }
      CnotRecord& record = records_[static_cast<std::size_t>(t)];
      forms_[static_cast<std::size_t>(t)].xor_with(flip);
      merge(c.qubit, t);
      if (record.alive && record.flip == flip) {
        reason << "provably cancels gate " << record.gate_index
               << " (same parity effect on wire " << t
               << ", target untouched in between)";
        verdict.action = GateVerdict::Action::kCancelPair;
        verdict.cancel_with = record.gate_index;
        verdict.reason = reason.str();
        invalidate_records(gate);
        return verdict;
      }
      invalidate_records(gate);
      record.gate_index = index;
      record.flip = std::move(flip);
      record.alive = true;
      return verdict;
    }
    case GateKind::kRy: {
      if (!trivial_angle(gate.theta())) {
        forms_[static_cast<std::size_t>(t)] = fresh_variable();
      }
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kCRy:
    case GateKind::kMCRy: {
      if (!trivial_angle(gate.theta())) {
        verdict = controlled_rotation_verdict(gate);
      }
      if (verdict.action != GateVerdict::Action::kDrop &&
          !trivial_angle(gate.theta())) {
        forms_[static_cast<std::size_t>(t)] = fresh_variable();
        for (const ControlLiteral& c : gate.controls()) {
          if (!wire_constant(c.qubit).has_value()) merge(c.qubit, t);
        }
      }
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kUCRy:
    case GateKind::kUCRz: {
      const bool y_axis = gate.kind() == GateKind::kUCRy;
      if (all_trivial(gate.angles())) {
        invalidate_records(gate);
        return verdict;  // identity: leave it to dead-rotation
      }
      // Constant controls select half the angle table each; fully
      // constant controls select the one effective rotation.
      std::vector<int> remaining;
      std::vector<std::size_t> fixed_bit;
      std::size_t fixed_pattern = 0;
      std::ostringstream reason;
      for (std::size_t i = 0; i < gate.controls().size(); ++i) {
        const ControlLiteral& c = gate.controls()[i];
        const std::optional<bool> value = wire_constant(c.qubit);
        if (!value.has_value()) {
          remaining.push_back(c.qubit);
          continue;
        }
        if (*value) fixed_pattern |= std::size_t{1} << fixed_bit.size();
        fixed_bit.push_back(i);
        if (reason.tellp() > 0) reason << ", ";
        reason << "control wire " << c.qubit << " provably |"
               << (*value ? 1 : 0) << ">";
      }
      if (fixed_bit.size() < gate.controls().size() || fixed_bit.empty()) {
        if (!fixed_bit.empty()) {
          // Partially constant: restrict the table to the reachable rows.
          std::vector<double> angles(std::size_t{1} << remaining.size());
          for (std::size_t s = 0; s < angles.size(); ++s) {
            std::size_t full = 0;
            std::size_t free_bit = 0;
            std::size_t fixed_i = 0;
            for (std::size_t i = 0; i < gate.controls().size(); ++i) {
              bool bit;
              if (fixed_i < fixed_bit.size() && fixed_bit[fixed_i] == i) {
                bit = ((fixed_pattern >> fixed_i) & 1) != 0;
                ++fixed_i;
              } else {
                bit = ((s >> free_bit) & 1) != 0;
                ++free_bit;
              }
              if (bit) full |= std::size_t{1} << i;
            }
            angles[s] = gate.angles()[full];
          }
          verdict.replacement =
              y_axis ? Gate::ucry(remaining, t, std::move(angles))
                     : Gate::ucrz(remaining, t, std::move(angles));
          verdict.action = GateVerdict::Action::kReplace;
          reason << "; restrict the multiplexor to the reachable rows: '"
                 << verdict.replacement->to_string() << "'";
          verdict.reason = reason.str();
        }
        if (y_axis) {
          forms_[static_cast<std::size_t>(t)] = fresh_variable();
        }
        // Non-constant participants may become entangled with each other
        // (for UCRz the phases alone can entangle the control register).
        int prev = y_axis || !wire_constant(t).has_value() ? t : -1;
        for (const int q : remaining) {
          if (prev >= 0) merge(prev, q);
          prev = q;
        }
        invalidate_records(gate);
        return verdict;
      }
      // Every control constant: one row of the table survives.
      const double theta = gate.angles()[fixed_pattern];
      if (trivial_angle(theta)) {
        reason << "; the selected multiplexor angle is zero — the gate is "
                  "the identity on every reachable state";
        verdict.action = GateVerdict::Action::kDrop;
        verdict.reason = reason.str();
        invalidate_records(gate);
        return verdict;
      }
      verdict.action = GateVerdict::Action::kReplace;
      verdict.replacement = y_axis ? Gate::ry(t, theta) : Gate::rz(t, theta);
      reason << "; demote to '" << verdict.replacement->to_string() << "'";
      verdict.reason = reason.str();
      if (y_axis) forms_[static_cast<std::size_t>(t)] = fresh_variable();
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kRz: {
      // Diagonal: no basis support moves, no entanglement with anything.
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kCZ: {
      const int a = gate.controls()[0].qubit;
      const AffineForm& fa = forms_[static_cast<std::size_t>(a)];
      const AffineForm& fb = forms_[static_cast<std::size_t>(t)];
      std::ostringstream reason;
      if (fa.is_constant() && !fa.constant_value()) {
        reason << "wire " << a << " provably |0>; cz is the identity on "
                                  "every reachable state";
      } else if (fb.is_constant() && !fb.constant_value()) {
        reason << "wire " << t << " provably |0>; cz is the identity on "
                                  "every reachable state";
      } else if (fa.is_constant() && fb.is_constant()) {
        reason << "wires " << a << " and " << t
               << " provably |1>; cz is a global phase";
      } else if (fa.same_mask(fb) && fa.offset != fb.offset) {
        reason << "wires " << a << " and " << t
               << " provably carry opposite values; cz is the identity on "
                  "every reachable state";
      } else {
        if (!fa.is_constant() && !fb.is_constant()) merge(a, t);
        invalidate_records(gate);
        return verdict;
      }
      verdict.action = GateVerdict::Action::kDrop;
      verdict.reason = reason.str();
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kRZZ: {
      const int a = gate.controls()[0].qubit;
      if (!trivial_angle(gate.theta()) &&
          !forms_[static_cast<std::size_t>(a)].is_constant() &&
          !forms_[static_cast<std::size_t>(t)].is_constant()) {
        merge(a, t);
      }
      invalidate_records(gate);
      return verdict;
    }
    case GateKind::kISwap: {
      const int a = gate.controls()[0].qubit;
      AffineForm& fa = forms_[static_cast<std::size_t>(a)];
      AffineForm& fb = forms_[static_cast<std::size_t>(t)];
      if (fa == fb) {
        // |01> and |10> are unreachable and iSwap fixes |00> and |11>.
        std::ostringstream reason;
        reason << "wires " << a << " and " << t
               << " provably carry equal values; iswap is the identity on "
                  "every reachable state";
        verdict.action = GateVerdict::Action::kDrop;
        verdict.reason = reason.str();
        invalidate_records(gate);
        return verdict;
      }
      const bool both_unknown = !fa.is_constant() && !fb.is_constant();
      std::swap(fa, fb);
      // The wires trade states, so they trade entanglement status too;
      // when both are in superposition the iSwap phases may additionally
      // entangle them.
      std::swap(wire_node_[static_cast<std::size_t>(a)],
                wire_node_[static_cast<std::size_t>(t)]);
      if (both_unknown) merge(a, t);
      invalidate_records(gate);
      return verdict;
    }
  }
  invalidate_records(gate);
  return verdict;
}

WireFacts DataflowEngine::facts() const {
  WireFacts facts;
  facts.num_qubits = num_qubits();
  facts.num_variables = num_variables_;
  const int n = num_qubits();
  // Group representative: the smallest wire id sharing the root (stable
  // across union orders), plus member counts.
  std::vector<int> group_of(static_cast<std::size_t>(n));
  std::vector<int> group_size(static_cast<std::size_t>(n), 0);
  std::vector<int> representative(static_cast<std::size_t>(n), -1);
  for (int q = 0; q < n; ++q) {
    const int root = find(wire_node_[static_cast<std::size_t>(q)]);
    if (representative[static_cast<std::size_t>(root)] < 0) {
      representative[static_cast<std::size_t>(root)] = q;
    }
    group_of[static_cast<std::size_t>(q)] =
        representative[static_cast<std::size_t>(root)];
  }
  for (int q = 0; q < n; ++q) {
    ++group_size[static_cast<std::size_t>(group_of[static_cast<std::size_t>(q)])];
  }
  facts.wires.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    WireFact fact;
    fact.wire = q;
    fact.form = forms_[static_cast<std::size_t>(q)];
    fact.group = group_of[static_cast<std::size_t>(q)];
    fact.group_size =
        group_size[static_cast<std::size_t>(fact.group)];
    if (fact.form.is_constant()) {
      fact.kind = fact.form.constant_value() ? WireKind::kOne : WireKind::kZero;
    } else {
      for (int p = 0; p < n; ++p) {
        if (p == q) continue;
        const AffineForm& other = forms_[static_cast<std::size_t>(p)];
        if (!other.is_constant() && other.same_mask(fact.form)) {
          fact.parity_partner = p;
          fact.parity_equal = other.offset == fact.form.offset;
          break;
        }
      }
      if (fact.parity_partner >= 0) {
        fact.kind = WireKind::kBasis;
      } else {
        fact.kind = fact.group_size == 1 ? WireKind::kSeparable
                                         : WireKind::kEntangled;
      }
    }
    facts.wires.push_back(std::move(fact));
  }
  return facts;
}

// ---------------------------------------------------------------------------
// WireFact / WireFacts
// ---------------------------------------------------------------------------

std::string_view wire_kind_name(WireKind kind) {
  switch (kind) {
    case WireKind::kZero:
      return "zero";
    case WireKind::kOne:
      return "one";
    case WireKind::kBasis:
      return "basis-parity";
    case WireKind::kSeparable:
      return "separable";
    case WireKind::kEntangled:
      return "entangled";
  }
  return "?";
}

std::string WireFact::to_string() const {
  std::ostringstream os;
  os << "q" << wire << ": " << wire_kind_name(kind)
     << " form=" << form.to_string() << " group=g" << group << "("
     << group_size << ")";
  if (parity_partner >= 0) {
    os << " partner=q" << parity_partner << (parity_equal ? " (equal)"
                                                          : " (anti)");
  }
  return os.str();
}

std::string WireFacts::to_string() const {
  std::string out;
  for (const WireFact& fact : wires) {
    out += fact.to_string();
    out += '\n';
  }
  return out;
}

std::string WireFacts::to_json() const {
  std::ostringstream os;
  os << "{\"num_qubits\":" << num_qubits
     << ",\"num_variables\":" << num_variables << ",\"wires\":[";
  for (std::size_t i = 0; i < wires.size(); ++i) {
    const WireFact& fact = wires[i];
    if (i > 0) os << ",";
    os << "{\"wire\":" << fact.wire << ",\"kind\":\""
       << wire_kind_name(fact.kind) << "\",\"form\":\""
       << fact.form.to_string() << "\",\"group\":" << fact.group
       << ",\"group_size\":" << fact.group_size
       << ",\"parity_partner\":" << fact.parity_partner
       << ",\"parity_equal\":" << (fact.parity_equal ? "true" : "false")
       << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Whole-circuit drivers
// ---------------------------------------------------------------------------

WireFacts analyze_circuit(const Circuit& circuit) {
  DataflowEngine engine(circuit.num_qubits());
  const std::vector<Gate>& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    engine.apply(gates[i], static_cast<std::int64_t>(i));
  }
  return engine.facts();
}

LintReport dataflow_lint(const Circuit& circuit,
                         const DataflowOptions& options) {
  LintReport report;
  DataflowEngine engine(circuit.num_qubits());
  const std::vector<Gate>& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const GateVerdict verdict =
        engine.apply(gates[i], static_cast<std::int64_t>(i));
    const auto index = static_cast<std::int64_t>(i);
    switch (verdict.action) {
      case GateVerdict::Action::kKeep:
        break;
      case GateVerdict::Action::kDrop:
        add_diagnostic(report, LintRule::kDeadControl, index, verdict.reason);
        break;
      case GateVerdict::Action::kReplace:
        add_diagnostic(report, LintRule::kConstantOneControl, index,
                       verdict.reason);
        break;
      case GateVerdict::Action::kCancelPair:
        add_diagnostic(report, LintRule::kRedundantCnot, index,
                       verdict.reason);
        break;
    }
  }
  if (options.num_data_wires >= 0) {
    for (int q = options.num_data_wires; q < circuit.num_qubits(); ++q) {
      const std::optional<bool> value = engine.wire_constant(q);
      if (value.has_value() && !*value) continue;
      std::ostringstream os;
      os << "workspace wire " << q;
      if (value.has_value()) {
        os << " provably |1> at circuit end";
      } else {
        os << " not provably restored to |0> at circuit end (form "
           << engine.facts().wires[static_cast<std::size_t>(q)]
                  .form.to_string()
           << ")";
      }
      add_diagnostic(report, LintRule::kAncillaReleasedDirty, -1, os.str());
    }
  }
  return report;
}

}  // namespace qsp
