#pragma once
// Flow-sensitive circuit dataflow: a forward abstract interpreter over
// Circuit x Target whose per-wire abstract state is an affine GF(2) form
// (an XOR of symbolic variables plus a constant) together with a may-be-
// entangled wire grouping. The lattice, per wire:
//
//   bottom            unreachable (never materializes: every analysis
//                     starts from the concrete |0...0> state)
//   known-|0> / |1>   form is the constant 0 / 1: the wire measures that
//                     value with probability 1 in every reachable state
//   known-basis       non-constant form sharing its variable mask (or its
//                     complement) with another wire: an exact parity
//                     linkage between the two wires on every reachable
//                     basis state
//   separable-unknown non-constant form, wire provably in a pure
//                     single-wire state (never entangled by any gate)
//   entangled-group   top: non-constant form in a may-entangled group
//
// Transfer functions: X and CNOT are exact GF(2) algebra on the forms;
// the diagonal family (CZ, Rz, RZZ, UCRz) never moves basis support, so
// forms pass through unchanged; iSwap permutes the two wires' forms; the
// Ry family widens its target with a fresh variable (the conservative
// join over every rotation outcome). Entangled groups are merged (the
// lattice join) whenever a gate can couple two non-constant wires.
//
// The exported invariant — checked against the statevector simulators on
// seeded random corpora in tests/test_dataflow.cpp — is: for every
// reachable basis state of the circuit run from |0...0>, there exists one
// assignment of the symbolic variables under which every wire's bit
// equals its form. Constants, pairwise parity links and separability
// claims all follow from it.
//
// Three consumers:
//   * dataflow_lint: the flow-sensitive rules QL011..QL014 (catalog in
//     circuit/lint.hpp) — dead controls, constant-|1> controls,
//     parity-redundant CNOTs, and workspace wires not provably restored
//     to |0> at circuit end. Solver::prepare enforces QL014 on routed
//     outputs in release builds; SynthesisService surfaces the
//     diagnostics on every response.
//   * the dataflow-simplify O2 pass (pass_pipeline.cpp), which applies
//     exactly the rewrites the verdicts justify.
//   * tools/qsplint --dataflow, which prints the fact table and the
//     diagnostics for QASM files and bench JSONL artifacts.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/lint.hpp"

namespace qsp {

struct DataflowOptions {
  /// Wires at or above this index are workspace/ancilla wires expected to
  /// end provably |0> (QL014). Negative: no workspace, QL014 never fires.
  int num_data_wires = -1;
};

/// An affine GF(2) form: XOR of the variables in `mask` plus `offset`.
/// Variables are materialized by the engine at widening points (one per
/// Ry-family application), so the all-zero mask means a known constant.
struct AffineForm {
  std::vector<std::uint64_t> mask;
  bool offset = false;

  bool is_constant() const;
  /// Constant value; only meaningful when is_constant().
  bool constant_value() const { return offset; }
  void flip() { offset = !offset; }
  void xor_with(const AffineForm& other);
  /// True when the two forms agree on every variable assignment.
  friend bool operator==(const AffineForm&, const AffineForm&);
  /// True when the masks agree (the forms are equal or complementary).
  bool same_mask(const AffineForm& other) const;
  /// "0", "1", "v0^v2", "v0^v2^1".
  std::string to_string() const;
};

/// Lattice classification of one wire (docs above; `bottom` is omitted —
/// it never materializes for a circuit run from |0...0>).
enum class WireKind : int {
  kZero = 0,       ///< provably |0>
  kOne = 1,        ///< provably |1>
  kBasis = 2,      ///< parity-linked to another wire
  kSeparable = 3,  ///< pure single-wire state, value unknown
  kEntangled = 4,  ///< top: may share entanglement with its group
};

/// "zero" / "one" / "basis-parity" / "separable" / "entangled".
std::string_view wire_kind_name(WireKind kind);

struct WireFact {
  int wire = 0;
  WireKind kind = WireKind::kZero;
  AffineForm form;
  /// Union-find representative of the wire's may-entangled group and the
  /// group's wire count (1 = provably separable).
  int group = 0;
  int group_size = 1;
  /// A wire whose form shares this wire's variable mask, if any (-1:
  /// none). `parity_equal` says whether the linkage is equality (equal
  /// forms) or anti-equality (complementary forms).
  int parity_partner = -1;
  bool parity_equal = true;

  /// "q2: basis-parity form=v0^1 group=g0(3) partner=q0 (anti)".
  std::string to_string() const;
};

/// The stable exported fact table (JSON-serializable like LintReport).
struct WireFacts {
  int num_qubits = 0;
  /// Variables materialized by widening during the analysis.
  int num_variables = 0;
  std::vector<WireFact> wires;

  /// One wire per line.
  std::string to_string() const;
  /// {"num_qubits":N,"num_variables":V,"wires":[{...},...]}.
  std::string to_json() const;
};

/// The engine's verdict on one gate, computed against the abstract state
/// *before* the gate's transfer is applied. Consumers that only want the
/// facts ignore it; dataflow_lint turns it into QL011..QL013 diagnostics
/// and the dataflow-simplify pass applies exactly the rewrite it names.
struct GateVerdict {
  enum class Action {
    kKeep,        ///< no fact justifies a rewrite
    kDrop,        ///< provably the identity on every reachable state
    kReplace,     ///< provably equivalent to `replacement` (demotion)
    kCancelPair,  ///< CNOT cancelled against gate `cancel_with`
  };
  Action action = Action::kKeep;
  std::optional<Gate> replacement;
  /// Index of the earlier CNOT of a cancelled pair (kCancelPair).
  std::int64_t cancel_with = -1;
  /// Human-readable justification for kDrop/kReplace/kCancelPair.
  std::string reason;
};

/// The forward interpreter. Starts at |0...0> (every wire known-|0>) and
/// consumes gates one at a time; facts() snapshots the current table.
class DataflowEngine {
 public:
  explicit DataflowEngine(int num_qubits);

  /// Apply one gate's transfer function and return the verdict computed
  /// against the pre-transfer state. `index` is the gate's position in
  /// the enclosing walk (recorded for pair cancellation); monotonically
  /// increasing indices are required, gaps are fine.
  GateVerdict apply(const Gate& gate, std::int64_t index);

  /// Snapshot of the current per-wire facts.
  WireFacts facts() const;

  /// Constant value of wire q, if provable.
  std::optional<bool> wire_constant(int q) const;

  int num_qubits() const { return static_cast<int>(forms_.size()); }
  int num_variables() const { return num_variables_; }

 private:
  struct CnotRecord {
    std::int64_t gate_index = -1;
    AffineForm flip;  // control form xor polarity at record time
    bool alive = false;
  };

  AffineForm fresh_variable();
  int find(int node) const;
  void merge(int a, int b);
  void invalidate_records(const Gate& gate);
  GateVerdict controlled_rotation_verdict(const Gate& gate) const;

  std::vector<AffineForm> forms_;
  /// Wire -> union-find node (one level of indirection so iSwap can hand
  /// a wire's entanglement status to its partner by swapping node ids).
  std::vector<int> wire_node_;
  mutable std::vector<int> parent_;
  int num_variables_ = 0;
  /// Per target wire: the latest CNOT onto it, for pair cancellation.
  /// A record dies as soon as any later gate touches its target wire.
  std::vector<CnotRecord> records_;
};

/// Run the engine over the whole circuit and return the final fact table.
WireFacts analyze_circuit(const Circuit& circuit);

/// Flow-sensitive lint: QL011 (dead control / provably-identity gate),
/// QL012 (constant-|1> control, gate should be demoted), QL013
/// (parity-redundant CNOT pair) over every gate, plus QL014
/// (ancilla-released-dirty) for each workspace wire — those at or above
/// DataflowOptions::num_data_wires — whose final form is not the
/// constant 0.
LintReport dataflow_lint(const Circuit& circuit,
                         const DataflowOptions& options = {});

}  // namespace qsp
