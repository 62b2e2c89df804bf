#pragma once
// Compiler-grade pass framework for circuits. Each optimization is a named
// Pass object that declares which properties it preserves and rewrites a
// circuit in place; the pipeline (pass_pipeline.hpp) composes registered
// passes into -O style levels, records per-pass gate/depth/CNOT deltas, and
// re-verifies preparation equivalence after every application in debug
// builds. Modeled on the fold/ir/opts split of classic compilers: passes
// are small, individually testable, and safe to grow because the
// differential harness (tests/pass_test_util.hpp) checks every registered
// pass against random-circuit corpora.

#include <cstdint>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"
#include "circuit/target.hpp"

namespace qsp {

/// Optimization levels in the -O tradition. O0 runs nothing, O1 the
/// conservative cleanup the workflow has always applied (dead rotations,
/// wire-adjacent cancellation/fusion), O2 adds the commutation-aware
/// peepholes (CNOT folding and rotation merging across control structure).
enum class OptLevel : int {
  kO0 = 0,
  kO1 = 1,
  kO2 = 2,
};

/// "O0" / "O1" / "O2" (bench rows, logs).
std::string opt_level_name(OptLevel level);

/// Properties a pass guarantees to preserve, declared up front so the
/// pipeline (and reviewers of new passes) know what may be assumed:
///  * kPreservesPreparation: the state prepared from |0...0> is unchanged
///    up to global phase (checked by the debug verification hook).
///  * kPreservesCoupling: if respects_coupling(c, g) held before the pass
///    it holds after (the pass never adds gates or moves them to new
///    wires).
///  * kPreservesGateSet: the set of gate kinds in the output is a subset
///    of the input's (no new kinds introduced; lowering stays valid).
inline constexpr unsigned kPreservesPreparation = 1u << 0;
inline constexpr unsigned kPreservesCoupling = 1u << 1;
inline constexpr unsigned kPreservesGateSet = 1u << 2;
inline constexpr unsigned kPreservesAll =
    kPreservesPreparation | kPreservesCoupling | kPreservesGateSet;

struct PassOptions {
  /// Commutation-aware passes walk at most this many surviving gates
  /// backward per candidate, bounding worst-case quadratic scans.
  int commute_window = 128;
  /// Backend descriptor read by the lowering stages (lowering.hpp): the
  /// native-legalize pass rewrites every CNOT into this target's native
  /// two-qubit gate. The default CNOT target makes legalization a no-op.
  Target target = Target::cnot();
  /// Lowering stages: skip zero rotations in multiplexors and fuse the
  /// freed CNOT pairs (LoweringOptions::elide_zero_rotations semantics).
  /// Off, a UCRy over c controls costs exactly 2^c CNOTs (Table I).
  bool elide_zero_rotations = false;
};

/// Accounting for one pass application. Deltas are before - after, so
/// positive numbers mean the pass removed work; the pipeline's summed
/// per-pass deltas equal the whole-pipeline delta exactly (tested).
struct PassReport {
  std::string pass;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t depth_before = 0;
  std::size_t depth_after = 0;
  std::int64_t cnot_cost_before = 0;
  std::int64_t cnot_cost_after = 0;
  bool changed = false;

  std::int64_t gates_delta() const {
    return static_cast<std::int64_t>(gates_before) -
           static_cast<std::int64_t>(gates_after);
  }
  std::int64_t depth_delta() const {
    return static_cast<std::int64_t>(depth_before) -
           static_cast<std::int64_t>(depth_after);
  }
  std::int64_t cnot_cost_delta() const {
    return cnot_cost_before - cnot_cost_after;
  }
};

/// One rewriting pass. Implementations are stateless (options arrive per
/// run), so a single registered instance serves every pipeline.
class Pass {
 public:
  virtual ~Pass() = default;

  /// Stable kebab-case identity ("dead-rotation", "cnot-commute-fold").
  virtual std::string_view name() const = 0;

  /// Bitmask of kPreserves* flags. Every built-in optimization pass
  /// preserves all three; the lowering stages (lowering.hpp) legitimately
  /// drop kPreservesGateSet — they exist to change the gate set.
  virtual unsigned preserves() const = 0;

  /// Rewrite `circuit` in place; returns true if anything changed.
  virtual bool run(Circuit& circuit, const PassOptions& options) const = 0;
};

/// Conservative sufficient commutation test used by the commutation-aware
/// peepholes: true only when gate `a` and gate `b` provably commute.
///
/// Per shared wire, each gate acts in one of three compatible modes:
/// diagonally (a control literal, or any wire of the z-axis Rz/UCRz
/// family), as a Pauli-X (target of X/CNOT), or as a y-rotation (target of
/// Ry/CRy/MCRy/UCRy). Two gates commute when on every shared wire the
/// modes agree: diagonal meets diagonal, X meets X, or Ry meets Ry.
///
/// The MCRy-control case is the classic trap this predicate pins down
/// (regression-tested in tests/test_peephole.cpp): a CNOT whose *control*
/// sits on an MCRy control wire commutes (both only read the wire), but a
/// CNOT whose *target* sits on that control wire does not — it flips the
/// value the MCRy reads, so reordering a rotation past it would corrupt
/// the prepared state.
bool gates_commute(const Gate& a, const Gate& b);

}  // namespace qsp
