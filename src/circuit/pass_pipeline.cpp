#include "circuit/pass_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "arch/coupling.hpp"
#include "circuit/cost_model.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lint.hpp"
#include "circuit/lowering.hpp"
#include "sim/verifier.hpp"

namespace qsp {
namespace {

bool is_trivial_rotation(const Gate& g) {
  switch (g.kind()) {
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kRz:
    case GateKind::kRZZ:
      return std::abs(g.theta()) <= kIdentityAngleEpsilon;
    case GateKind::kUCRy:
    case GateKind::kUCRz: {
      for (const double a : g.angles()) {
        if (std::abs(a) > kIdentityAngleEpsilon) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool is_rotation_kind(GateKind kind) {
  switch (kind) {
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kRz:
    case GateKind::kUCRy:
    case GateKind::kUCRz:
    case GateKind::kRZZ:
      return true;
    default:
      return false;
  }
}

/// Same kind on the same wires (target, controls with polarity): the
/// precondition for cancelling or fusing a gate pair.
bool same_kind_and_wires(const Gate& a, const Gate& b) {
  return a.kind() == b.kind() && a.target() == b.target() &&
         a.controls() == b.controls();
}

/// The fused rotation p+g (same kind and wires); angles add.
Gate fuse_rotations(const Gate& p, const Gate& g) {
  switch (g.kind()) {
    case GateKind::kRz:
      return Gate::rz(g.target(), p.theta() + g.theta());
    case GateKind::kRZZ:
      return Gate::rzz(g.controls()[0].qubit, g.target(),
                       p.theta() + g.theta());
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
      return Gate::mcry(g.controls(), g.target(), p.theta() + g.theta());
    case GateKind::kUCRy:
    case GateKind::kUCRz: {
      std::vector<double> sum = g.angles();
      for (std::size_t j = 0; j < sum.size(); ++j) sum[j] += p.angles()[j];
      std::vector<int> controls;
      controls.reserve(g.controls().size());
      for (const auto& c : g.controls()) controls.push_back(c.qubit);
      return g.kind() == GateKind::kUCRz
                 ? Gate::ucrz(std::move(controls), g.target(), std::move(sum))
                 : Gate::ucry(std::move(controls), g.target(), std::move(sum));
    }
    default:
      throw std::logic_error("fuse_rotations: not a rotation");
  }
}

/// Sparse gate list used by the in-place passes: erased slots stay so gate
/// indices remain stable within one scan.
using Slots = std::vector<std::optional<Gate>>;

Slots to_slots(const Circuit& circuit) {
  Slots slots;
  slots.reserve(circuit.size());
  for (const Gate& g : circuit.gates()) slots.emplace_back(g);
  return slots;
}

void from_slots(Circuit& circuit, const Slots& slots) {
  Circuit out(circuit.num_qubits());
  for (const auto& g : slots) {
    if (g.has_value()) out.append(*g);
  }
  circuit = std::move(out);
}

// ---------------------------------------------------------------------------
// dead-rotation: drop rotations that are the identity (all angles ~ 0).
// ---------------------------------------------------------------------------
class DeadRotationPass final : public Pass {
 public:
  std::string_view name() const override { return "dead-rotation"; }
  unsigned preserves() const override { return kPreservesAll; }

  bool run(Circuit& circuit, const PassOptions&) const override {
    bool changed = false;
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      if (is_trivial_rotation(g)) {
        changed = true;
        continue;
      }
      out.append(g);
    }
    if (changed) circuit = std::move(out);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// adjacent-fuse: cancel self-inverse pairs (X-X, identical CNOT-CNOT) and
// fuse same-kind rotation pairs that are adjacent on every touched wire
// (the conservative legacy cleanup: a pair is mergeable iff the earlier
// gate is the latest survivor on *all* of the later gate's wires, so the
// gates in between touch disjoint wires and commute trivially).
// ---------------------------------------------------------------------------
class AdjacentFusePass final : public Pass {
 public:
  std::string_view name() const override { return "adjacent-fuse"; }
  unsigned preserves() const override { return kPreservesAll; }

  bool run(Circuit& circuit, const PassOptions&) const override {
    Slots slots = to_slots(circuit);
    bool changed = false;
    // last_on[q]: index of the latest surviving gate touching wire q.
    std::vector<int> last_on(static_cast<std::size_t>(circuit.num_qubits()),
                             -1);
    auto erase = [&](int idx) {
      slots[static_cast<std::size_t>(idx)].reset();
      changed = true;
    };

    for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
      if (!slots[static_cast<std::size_t>(i)].has_value()) continue;
      const Gate& g = *slots[static_cast<std::size_t>(i)];

      // Candidate predecessor: the pair is wire-adjacent iff the same
      // gate is the latest survivor on every touched wire.
      int prev = -1;
      bool adjacent = true;
      for (const int q : g.qubits()) {
        const int lq = last_on[static_cast<std::size_t>(q)];
        if (prev == -1) prev = lq;
        if (lq != prev) adjacent = false;
        prev = std::max(prev, lq);
      }
      if (adjacent && prev >= 0 &&
          slots[static_cast<std::size_t>(prev)].has_value()) {
        const Gate& p = *slots[static_cast<std::size_t>(prev)];
        if (same_kind_and_wires(p, g)) {
          if (g.kind() == GateKind::kX || g.kind() == GateKind::kCNOT ||
              g.kind() == GateKind::kCZ) {
            erase(prev);
            erase(i);
            continue;
          }
          if (is_rotation_kind(g.kind())) {
            const Gate fused = fuse_rotations(p, g);
            erase(prev);
            erase(i);
            if (!is_trivial_rotation(fused)) {
              slots[static_cast<std::size_t>(i)] = fused;
            } else {
              continue;
            }
          }
        }
      }
      if (slots[static_cast<std::size_t>(i)].has_value()) {
        for (const int q : slots[static_cast<std::size_t>(i)]->qubits()) {
          last_on[static_cast<std::size_t>(q)] = i;
        }
      }
    }
    if (changed) from_slots(circuit, slots);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// cnot-commute-fold: cancel self-inverse pairs (X, CNOT, CZ) separated by
// gates that provably commute with them. Walking a CNOT backward past a
// commuting gate is sound exactly when gates_commute says so — the
// MCRy-control case (a CNOT targeting a wire some MCRy reads) is the
// non-commuting trap the predicate pins down.
// ---------------------------------------------------------------------------
class CnotCommuteFoldPass final : public Pass {
 public:
  std::string_view name() const override { return "cnot-commute-fold"; }
  unsigned preserves() const override { return kPreservesAll; }

  bool run(Circuit& circuit, const PassOptions& options) const override {
    Slots slots = to_slots(circuit);
    bool changed = false;
    for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
      if (!slots[static_cast<std::size_t>(i)].has_value()) continue;
      const Gate& g = *slots[static_cast<std::size_t>(i)];
      if (g.kind() != GateKind::kX && g.kind() != GateKind::kCNOT &&
          g.kind() != GateKind::kCZ) {
        continue;
      }
      int window = 0;
      for (int j = i - 1; j >= 0; --j) {
        if (!slots[static_cast<std::size_t>(j)].has_value()) continue;
        const Gate& p = *slots[static_cast<std::size_t>(j)];
        if (p == g) {
          // g commutes with everything in (j, i): slide it next to p and
          // cancel the self-inverse pair.
          slots[static_cast<std::size_t>(j)].reset();
          slots[static_cast<std::size_t>(i)].reset();
          changed = true;
          break;
        }
        if (!gates_commute(g, p)) break;
        if (++window >= options.commute_window) break;
      }
    }
    if (changed) from_slots(circuit, slots);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// rotation-commute-merge: fuse same-kind, same-wire rotation pairs
// separated by commuting gates (angles add; a fused identity drops). This
// merges rotations across control structure the adjacency-based pass
// cannot see — e.g. Rz(q) across a CNOT controlled on q, or a CRy across
// a CNOT that only reads the shared control wire.
// ---------------------------------------------------------------------------
class RotationCommuteMergePass final : public Pass {
 public:
  std::string_view name() const override { return "rotation-commute-merge"; }
  unsigned preserves() const override { return kPreservesAll; }

  bool run(Circuit& circuit, const PassOptions& options) const override {
    Slots slots = to_slots(circuit);
    bool changed = false;
    for (int i = 0; i < static_cast<int>(slots.size()); ++i) {
      if (!slots[static_cast<std::size_t>(i)].has_value()) continue;
      const Gate& g = *slots[static_cast<std::size_t>(i)];
      if (!is_rotation_kind(g.kind())) continue;
      int window = 0;
      for (int j = i - 1; j >= 0; --j) {
        if (!slots[static_cast<std::size_t>(j)].has_value()) continue;
        const Gate& p = *slots[static_cast<std::size_t>(j)];
        if (same_kind_and_wires(p, g)) {
          // g commutes with everything in (j, i): slide it back onto p
          // and fuse in place.
          const Gate fused = fuse_rotations(p, g);
          slots[static_cast<std::size_t>(i)].reset();
          if (is_trivial_rotation(fused)) {
            slots[static_cast<std::size_t>(j)].reset();
          } else {
            slots[static_cast<std::size_t>(j)] = fused;
          }
          changed = true;
          break;
        }
        if (!gates_commute(g, p)) break;
        if (++window >= options.commute_window) break;
      }
    }
    if (changed) from_slots(circuit, slots);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// dataflow-simplify: apply exactly the rewrites the dataflow engine's
// verdicts justify — drop gates provably the identity on every reachable
// state (dead controls, provably-cancelled CZ/iSwap), demote gates whose
// controls are provably satisfied (CNOT -> X, MCRy -> fewer controls,
// multiplexor table halving), and cancel parity-redundant CNOT pairs.
// Demotions introduce new gate kinds, so kPreservesGateSet cannot be
// claimed; no rewrite adds a two-qubit gate, so coupling is preserved.
// ---------------------------------------------------------------------------
class DataflowSimplifyPass final : public Pass {
 public:
  std::string_view name() const override { return "dataflow-simplify"; }
  unsigned preserves() const override {
    return kPreservesPreparation | kPreservesCoupling;
  }

  bool run(Circuit& circuit, const PassOptions&) const override {
    Slots slots = to_slots(circuit);
    bool changed = false;
    DataflowEngine engine(circuit.num_qubits());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const GateVerdict verdict =
          engine.apply(*slots[i], static_cast<std::int64_t>(i));
      switch (verdict.action) {
        case GateVerdict::Action::kKeep:
          break;
        case GateVerdict::Action::kDrop:
          slots[i].reset();
          changed = true;
          break;
        case GateVerdict::Action::kReplace:
          slots[i] = *verdict.replacement;
          changed = true;
          break;
        case GateVerdict::Action::kCancelPair:
          slots[i].reset();
          slots[static_cast<std::size_t>(verdict.cancel_with)].reset();
          changed = true;
          break;
      }
    }
    if (changed) from_slots(circuit, slots);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// Verification hook: preparation-equivalence check after a pass.
// ---------------------------------------------------------------------------

/// Verification simulates only registers at most this wide (memory for
/// the dense statevector is 16 * 2^n bytes).
constexpr int kVerifyMaxQubits = 14;
/// Largest |overlap - 1| the verification accepts.
constexpr double kVerifyTolerance = 1e-7;

[[noreturn]] void contract_violation(const Pass& pass, const std::string& what) {
  std::ostringstream os;
  os << "PassPipeline: pass '" << pass.name() << "' violated its contract: "
     << what;
  throw std::logic_error(os.str());
}

/// Debug re-verification of one pass application against the declared
/// preserves() contract: monotone CNOT cost and preparation equivalence
/// (simulated). Gate-count growth and new gate kinds are QL008's, which
/// the lint gate has already checked.
void verify_pass_application(const Pass& pass, const Circuit& before,
                             const Circuit& after) {
  // Gate-set-preserving passes only erase or fuse, so CNOT cost is
  // monotone for them. The lowering stages drop this flag precisely
  // because they trade composite gates for longer native streams.
  if ((pass.preserves() & kPreservesGateSet) != 0 &&
      after.cnot_cost() > before.cnot_cost()) {
    contract_violation(pass, "CNOT cost increased");
  }
  if ((pass.preserves() & kPreservesPreparation) != 0 &&
      before.num_qubits() <= kVerifyMaxQubits) {
    const double overlap = preparation_overlap(before, after);
    if (std::abs(overlap - 1.0) > kVerifyTolerance) {
      std::ostringstream os;
      os << "preparation changed (overlap " << overlap << ")";
      contract_violation(pass, os.str());
    }
  }
}

/// Release-mode lint gate after one productive pass application: the
/// structural error rules over the rewritten circuit plus pass-contract
/// consistency against the recorded pre-pass facts. Warning-severity
/// style rules stay off here — gray-code lowering legitimately emits
/// zero-angle rotations unless elide_zero_rotations is set — so a clean
/// pipeline produces zero diagnostics and any diagnostic is an error.
void lint_pass_gate(const Pass& pass, const CircuitFacts& before,
                    const Circuit& after, const PipelineOptions& options) {
  LintOptions lint_options;
  lint_options.degenerate_rotations = false;
  lint_options.identity_pairs = false;
  lint_options.coupling = options.pass.target.coupling;
  LintReport report = lint_pass_application(pass, before, after, lint_options);
  // Per-gate coupling conformance only when the input already conformed:
  // standalone pipelines over unrouted circuits are not an error.
  if (!before.coupling_conforms) lint_options.coupling = nullptr;
  LintReport structural = lint_circuit(after, lint_options);
  report.diagnostics.insert(report.diagnostics.end(),
                            structural.diagnostics.begin(),
                            structural.diagnostics.end());
  if (report.has_errors()) {
    std::ostringstream os;
    os << "PassPipeline: lint failed after pass '" << pass.name() << "':\n"
       << report.to_string();
    throw std::logic_error(os.str());
  }
}

}  // namespace

PassPipeline::PassPipeline(PipelineOptions options)
    : options_(options), passes_(level_passes(options.level)) {
  if (options_.lower_to_target) {
    for (const Pass* pass : lowering_pass_sequence()) {
      passes_.push_back(pass);
    }
  }
}

PassPipeline::PassPipeline(std::vector<const Pass*> passes,
                           PipelineOptions options)
    : options_(options), passes_(std::move(passes)) {}

const std::vector<const Pass*>& PassPipeline::registry() {
  static const DeadRotationPass dead_rotation;
  static const AdjacentFusePass adjacent_fuse;
  static const CnotCommuteFoldPass cnot_commute_fold;
  static const RotationCommuteMergePass rotation_commute_merge;
  static const DataflowSimplifyPass dataflow_simplify;
  static const std::vector<const Pass*> passes = [] {
    std::vector<const Pass*> all = {
        &dead_rotation,
        &adjacent_fuse,
        &cnot_commute_fold,
        &rotation_commute_merge,
        &dataflow_simplify,
    };
    for (const Pass* pass : lowering_pass_sequence()) all.push_back(pass);
    return all;
  }();
  return passes;
}

const Pass* PassPipeline::find(std::string_view name) {
  for (const Pass* pass : registry()) {
    if (pass->name() == name) return pass;
  }
  return nullptr;
}

std::vector<const Pass*> PassPipeline::level_passes(OptLevel level) {
  std::vector<const Pass*> out;
  if (level == OptLevel::kO0) return out;
  out.push_back(find("dead-rotation"));
  out.push_back(find("adjacent-fuse"));
  if (level == OptLevel::kO2) {
    out.push_back(find("cnot-commute-fold"));
    out.push_back(find("rotation-commute-merge"));
    out.push_back(find("dataflow-simplify"));
  }
  return out;
}

Circuit PassPipeline::run(const Circuit& circuit,
                          PipelineReport* report) const {
  Circuit current = circuit;
  if (report != nullptr) {
    *report = PipelineReport{};
    report->gates_before = circuit.size();
    report->depth_before = circuit.depth();
    report->cnot_cost_before = circuit.cnot_cost();
  }
  // Every productive optimization pass application strictly decreases
  // the gate count (they only erase or fuse), so size() + 1 iterations
  // always reach the fixed point. The lowering stages may *grow* the
  // circuit (each is productive at most once), so the default cap is
  // recomputed from the current size every iteration; max_iterations is
  // an additional explicit cap.
  int cap = options_.max_iterations > 0
                ? options_.max_iterations
                : static_cast<int>(circuit.size()) + 1;
  int iterations = 0;
  for (int iter = 0; iter < cap; ++iter) {
    if (options_.max_iterations <= 0) {
      cap = std::max(cap, iter + static_cast<int>(current.size()) + 2);
    }
    bool iteration_changed = false;
    for (const Pass* pass : passes_) {
      PassReport pr;
      pr.pass = std::string(pass->name());
      pr.gates_before = current.size();
      pr.depth_before = current.depth();
      pr.cnot_cost_before = current.cnot_cost();
      std::optional<Circuit> before;
      if (options_.verify_each_pass) before = current;
      const CircuitFacts facts =
          circuit_facts(current, options_.pass.target.coupling.get());
      const bool changed = pass->run(current, options_.pass);
      pr.changed = changed;
      pr.gates_after = current.size();
      pr.depth_after = current.depth();
      pr.cnot_cost_after = current.cnot_cost();
      if (changed) lint_pass_gate(*pass, facts, current, options_);
      if (changed && options_.verify_each_pass) {
        verify_pass_application(*pass, *before, current);
      }
      if (report != nullptr) report->passes.push_back(std::move(pr));
      iteration_changed |= changed;
    }
    if (!iteration_changed) break;
    ++iterations;
  }
  if (report != nullptr) {
    report->iterations = iterations;
    report->gates_after = current.size();
    report->depth_after = current.depth();
    report->cnot_cost_after = current.cnot_cost();
  }
  return current;
}

Circuit optimize_circuit(const Circuit& circuit, const PipelineOptions& options,
                         PipelineReport* report) {
  return PassPipeline(options).run(circuit, report);
}

}  // namespace qsp
