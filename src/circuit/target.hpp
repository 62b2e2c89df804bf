#pragma once
// First-class backend descriptor: which two-qubit gate the device executes
// natively (CNOT, CZ, iSWAP or RZZ) and optionally which coupling graph
// constrains it. The lowering pipeline's final stage (native-legalize,
// lowering.hpp) rewrites every CNOT into the target's native set, and
// benches report two_qubit_gate_count(circuit, target) (cost_model.hpp)
// per gate set instead of aliasing everything into the CNOT column.

#include <memory>
#include <string_view>
#include <vector>

#include "circuit/gate.hpp"

namespace qsp {

class Circuit;
class CouplingGraph;

class Target {
 public:
  /// The built-in gate sets. CNOT is the identity target: lowering onto
  /// it reproduces the paper's {X, Ry, Rz, CNOT} stream bit-for-bit.
  static Target cnot();
  static Target cz();
  static Target iswap();
  static Target rzz();

  /// All built-in targets, CNOT first (test/bench sweeps).
  static const std::vector<Target>& builtin();

  /// Target by its name() ("cnot", "cz", "iswap", "rzz"); throws
  /// std::invalid_argument on anything else, naming the valid set.
  static Target by_name(std::string_view name);

  /// Stable lowercase identity, usable as a bench JSON field and an
  /// environment-variable value (QSP_TARGET).
  std::string_view name() const { return name_; }

  /// Gate kind of the native two-qubit gate.
  GateKind two_qubit_kind() const { return two_qubit_kind_; }

  /// True for the identity (CNOT) target, where legalization is a no-op.
  bool is_cnot() const { return two_qubit_kind_ == GateKind::kCNOT; }

  /// Native two-qubit gates emitted per logical CNOT by the legalizer:
  /// 1 for CNOT/CZ/RZZ, 2 for iSWAP (no single-iSwap CNOT exists).
  int natives_per_cnot() const { return natives_per_cnot_; }

  /// True when the gate is directly executable on this target: the
  /// single-qubit set {X, Ry, Rz} (shared by every built-in target), the
  /// native two-qubit kind (CNOT requires a positive control), and
  /// nothing composite.
  bool is_native(const Gate& gate) const;

  /// True when every gate of the circuit is_native: the contract the
  /// staged lowering establishes for this target.
  bool is_native_circuit(const Circuit& circuit) const;

  friend bool operator==(const Target& a, const Target& b) {
    return a.two_qubit_kind_ == b.two_qubit_kind_ && a.coupling == b.coupling;
  }

  /// Optional device coupling the target is constrained by; consumers
  /// that route (flow/Solver) read WorkflowOptions::coupling as before —
  /// this reference lets a Target bundle gate set and topology as one
  /// deployable descriptor.
  std::shared_ptr<const CouplingGraph> coupling;

 private:
  Target(GateKind two_qubit_kind, const char* name, int natives_per_cnot)
      : two_qubit_kind_(two_qubit_kind),
        name_(name),
        natives_per_cnot_(natives_per_cnot) {}

  GateKind two_qubit_kind_ = GateKind::kCNOT;
  const char* name_ = "cnot";
  int natives_per_cnot_ = 1;
};

}  // namespace qsp
