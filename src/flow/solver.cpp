#include "flow/solver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "arch/routing.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lowering.hpp"
#include "core/canonical.hpp"
#include "core/search_core.hpp"
#include "prep/nflow.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Flip an unobservable global -1 so slot decomposition can proceed.
QuantumState normalize_global_sign(const QuantumState& state) {
  const bool all_negative =
      std::all_of(state.terms().begin(), state.terms().end(),
                  [](const Term& t) { return t.amplitude < 0; });
  if (!all_negative) return state;
  std::vector<Term> terms = state.terms();
  for (Term& t : terms) t.amplitude = -t.amplitude;
  return QuantumState(state.num_qubits(), std::move(terms));
}

/// True when the amplitudes carry both signs, which no global -1 removes.
bool has_mixed_signs(const QuantumState& state) {
  const auto negative = [](const Term& t) { return t.amplitude < 0; };
  return std::any_of(state.terms().begin(), state.terms().end(), negative) &&
         !std::all_of(state.terms().begin(), state.terms().end(), negative);
}

}  // namespace

Solver::Solver(WorkflowOptions options) : options_(std::move(options)) {
  validate_search_coupling("Solver", options_.coupling.get());
}

Circuit Solver::prepare_via_exact_tail(const QuantumState& reduced,
                                       bool* used_exact,
                                       bool* budget_exhausted) const {
  // Without a cost bound the tail always has a circuit.
  return *exact_tail(reduced, used_exact, budget_exhausted, Deadline(0.0),
                     kNoCostBound);
}

std::optional<Circuit> Solver::exact_tail(const QuantumState& reduced,
                                          bool* used_exact,
                                          bool* budget_exhausted,
                                          const Deadline& deadline,
                                          std::int64_t cost_bound) const {
  if (used_exact != nullptr) *used_exact = false;
  // No circuit costs less than 0 CNOTs, so under a bound of 0 nothing can
  // win: skip the peel, the canonical key and the cache probe.
  if (cost_bound <= 0) return std::nullopt;
  const QuantumState target = normalize_global_sign(reduced);
  const CouplingGraph* device = options_.coupling.get();
  // With a device the register is the device register: connector and
  // spare qubits above the target are ancillas that end in |0>.
  const int width = device != nullptr
                        ? std::max(device->num_qubits(), target.num_qubits())
                        : target.num_qubits();
  // Cost-aware cardinality reduction, which handles arbitrary real
  // amplitudes: the tail for everything the exact kernel does not take.
  const auto reduce = [&] {
    MFlowOptions fallback = options_.mflow;
    fallback.strategy = MFlowOptions::PairStrategy::kCheapest;
    Circuit circuit = mflow_prepare(target, fallback).circuit;
    if (circuit.num_qubits() == width) return circuit;
    Circuit wide(width);
    wide.append(circuit);
    return wide;
  };
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) return reduce();  // signed or irrational tail

  SlotState peeled = *slot;
  const std::vector<Gate> peel = free_peel_gates(peeled);

  Circuit prep(width);
  if (!peeled.is_ground()) {
    // Extract the entangled core onto a narrow register. Coupling-blind,
    // the register is exactly the non-constant wires; with a device it is
    // the smallest connected induced subgraph hosting those wires, so the
    // exact search sees real routed costs (and may use the connector
    // wires as workspace — they are constant |0> in the peeled state).
    std::vector<int> active;
    for (int q = 0; q < peeled.num_qubits(); ++q) {
      if (!peeled.qubit_constant(q)) active.push_back(q);
    }
    QSP_ASSERT(!active.empty());
    std::vector<int> host = active;
    std::shared_ptr<const CouplingGraph> tail_coupling;
    if (device != nullptr && !device->is_complete()) {
      host = device->connected_superset(active);
      if (static_cast<int>(host.size()) > options_.exact_max_host_qubits) {
        // The core is so spread out that connecting it needs more wires
        // than the exact kernel should search over; reduce instead (the
        // final routing still makes the result conformant).
        return reduce();
      }
      tail_coupling =
          std::make_shared<const CouplingGraph>(device->induced(host));
    }
    std::vector<SlotEntry> narrow_entries;
    narrow_entries.reserve(peeled.entries().size());
    for (const SlotEntry& e : peeled.entries()) {
      BasisIndex idx = 0;
      for (std::size_t i = 0; i < host.size(); ++i) {
        if (get_bit(e.index, host[i]) != 0) {
          idx |= BasisIndex{1} << i;
        }
      }
      narrow_entries.push_back(SlotEntry{idx, e.count});
    }
    const SlotState narrow(static_cast<int>(host.size()),
                           std::move(narrow_entries));
    ExactSynthesisOptions exact_options = options_.exact;
    if (options_.num_threads != 1) {
      exact_options.astar.num_threads = options_.num_threads;
      exact_options.beam.num_threads = options_.num_threads;
    }
    if (tail_coupling != nullptr) {
      exact_options.astar.coupling = tail_coupling;
      exact_options.beam.coupling = tail_coupling;
    }
    // Shared-cache mode: every kernel search consults/populates the
    // cross-request equivalence cache. A cache configured directly on
    // the nested search options is left alone.
    if (options_.cache != nullptr) {
      exact_options.astar.cache = options_.cache;
      exact_options.beam.cache = options_.cache;
    }
    // The workflow deadline bounds the searches themselves, not just the
    // stage boundaries: a runaway kernel aborts mid-search and the
    // reduction fallback below still returns a circuit.
    exact_options.time_budget_seconds =
        clamp_budget(exact_options.time_budget_seconds, deadline);
    // The peel gates are free, so the narrow search's cost is the tail's.
    const ExactSynthesizer exact(exact_options);
    const SynthesisResult res = exact.synthesize(narrow, cost_bound);
    if (budget_exhausted != nullptr && res.stats.budget_exhausted) {
      *budget_exhausted = true;
    }
    if (!res.found) {
      // Under a bound the caller keeps only a cheaper tail, and the
      // reduction is not one it asked for.
      if (cost_bound != kNoCostBound) return std::nullopt;
      return reduce();
    }
    for (const Gate& g : res.circuit.gates()) {
      prep.append(g.remapped(host));
    }
    if (used_exact != nullptr) *used_exact = true;
  }
  // Undo the peel: peel maps `target` to the peeled form, so its adjoint
  // maps the prepared peeled state back to `target`.
  Circuit peel_circuit(target.num_qubits());
  for (const Gate& g : peel) peel_circuit.append(g);
  prep.append(peel_circuit.adjoint());
  return prep;
}

WorkflowResult Solver::prepare(const QuantumState& target) const {
  const Deadline deadline(options_.time_budget_seconds);
  WorkflowResult result;
  result.target = std::string(options_.target.name());
  const int n = target.num_qubits();
  const CouplingGraph* device = options_.coupling.get();
  if (device != nullptr && device->num_qubits() < n) {
    throw std::invalid_argument(
        "Solver::prepare: device has fewer qubits than the target");
  }
  // Device register width; equals n when no coupling is set.
  const int nw = device != nullptr ? device->num_qubits() : n;
  // Route the assembled workflow circuit onto the device so the result
  // satisfies respects_coupling (two-qubit gates on edges, composites
  // lowered), then run the pass pipeline at the requested -O level. With
  // a non-CNOT target the pipeline also runs the staged lowering, so
  // optimization and legalization share one fixpoint; the native
  // decompositions stay on each CNOT's own wire pair, so routed circuits
  // stay routed.
  const auto routed_onto_device = [&](Circuit circuit) {
    if (device != nullptr) circuit = route_circuit(circuit, *device);
    // Static ancilla certification (QL014): routed circuits use the spare
    // device wires above the logical register as workspace, and the
    // routing contract says every one of them returns to |0>. Routed
    // output is {X, Ry, CNOT} with rotations only on logical wires, so
    // the dataflow engine proves the contract exactly; run the gate here,
    // before the pass pipeline (the pipeline preserves preparation, so
    // certification transfers to the optimized output). Release builds
    // included — this is static analysis, not simulation.
    if (device != nullptr && nw > n) {
      DataflowOptions dataflow;
      dataflow.num_data_wires = n;
      const LintReport report = dataflow_lint(circuit, dataflow);
      if (report.has_errors()) {
        throw std::logic_error(
            "Solver::prepare: routed circuit failed static ancilla "
            "certification:\n" +
            report.to_string());
      }
    }
    PipelineOptions pipeline;
    pipeline.level = options_.opt_level;
    if (!options_.target.is_cnot()) {
      pipeline.lower_to_target = true;
      pipeline.pass.target = options_.target;
      pipeline.pass.elide_zero_rotations = true;
    }
    // Attach the device to the pipeline's target descriptor: the per-pass
    // lint gate then checks that no pass moves a routed two-qubit gate
    // off the device's edge set.
    if (pipeline.pass.target.coupling == nullptr) {
      pipeline.pass.target.coupling = options_.coupling;
    }
    return optimize_circuit(circuit, pipeline, &result.passes);
  };
  // Selection metric for competing tails/paths: lowered CNOT count,
  // measured after routing when a device is set — a tail with fewer
  // logical CNOTs can still lose once its long-range pairs pay 4(d-1).
  const auto selection_cost = [&](const Circuit& circuit,
                                  const LoweringOptions& lowering) {
    if (device == nullptr) {
      return count_cnots_after_lowering(circuit, lowering);
    }
    return lowered_cnot_count(route_circuit(circuit, *device, lowering));
  };
  const auto m = static_cast<std::uint64_t>(target.cardinality());
  result.sparse_path =
      static_cast<std::uint64_t>(n) * m < (std::uint64_t{1} << n);

  auto fits_thresholds = [this](const QuantumState& state) {
    const QuantumState normalized = normalize_global_sign(state);
    const auto slot = SlotState::from_state(normalized);
    if (!slot.has_value()) return false;
    if (slot->cardinality() > options_.exact_max_cardinality) return false;
    const SlotState compressed = compress_free(*slot);
    int active = 0;
    for (int q = 0; q < compressed.num_qubits(); ++q) {
      if (!compressed.qubit_constant(q)) ++active;
    }
    return active <= options_.exact_max_qubits;
  };

  // An exact attempt is kept only when its selection cost is below its
  // competitor's, so that cost bounds the attempt's search. Without a
  // device the search cost of every arc is its lowered count with zero
  // rotations elided, and lowering counts add gate by gate. On a device
  // selection routes over the whole device while the search prices the
  // induced host patch, whose distances may differ: no bound there.
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  const auto bound_by = [device](std::int64_t competitor_cost) {
    return device == nullptr ? competitor_cost : kNoCostBound;
  };

  if (fits_thresholds(target)) {
    result.circuit = routed_onto_device(
        *exact_tail(target, &result.used_exact_tail,
                    &result.budget_exhausted, deadline, kNoCostBound));
    result.found = true;
    return result;
  }

  // Cardinality reduction, then the exact tail. `cost_bound` bounds the
  // whole circuit: the tail's share is what the backward reduction gates
  // leave of it, and nullopt means the tail cannot come in under that (or
  // the reduction timed out).
  auto sparse_prepare = [&](bool* used_exact,
                            std::int64_t cost_bound) -> std::optional<Circuit> {
    MFlowOptions mflow = options_.mflow;
    mflow.time_budget_seconds =
        clamp_budget(mflow.time_budget_seconds, deadline);
    const MFlowReduction reduction =
        mflow_reduce(target, fits_thresholds, mflow);
    if (reduction.timed_out) return std::nullopt;
    Circuit forward(n);
    for (const Gate& g : reduction.forward_gates) forward.append(g);
    const Circuit backward = forward.adjoint();
    if (cost_bound != kNoCostBound) {
      cost_bound = std::max<std::int64_t>(
          0, cost_bound - count_cnots_after_lowering(backward, elide));
    }
    std::optional<Circuit> circuit =
        exact_tail(reduction.reduced, used_exact, &result.budget_exhausted,
                   deadline, cost_bound);
    if (circuit.has_value()) circuit->append(backward);
    return circuit;
  };

  if (result.sparse_path) {
    // Sparse: cardinality reduction until the compressed state fits.
    auto circuit = sparse_prepare(&result.used_exact_tail, kNoCostBound);
    if (!circuit.has_value()) {
      result.timed_out = true;
      return result;
    }
    result.circuit = routed_onto_device(std::move(*circuit));
    result.found = true;
    return result;
  }

  // Dense: qubit reduction. The multiplexor stages handle qubits
  // exact_max_qubits..n-1; the exact kernel prepares the marginal when it
  // wins over the marginal's own multiplexor stages (the reductions give
  // the tail non-uniform counts, where the exact search is not always the
  // cheaper realization). The marginal holds magnitudes and only the
  // deepest stage reads signed amplitudes, so a target with mixed signs
  // keeps at least one stage.
  int t = std::min(options_.exact_max_qubits, n);
  if (has_mixed_signs(target)) t = std::min(t, n - 1);
  if (t < 1) {
    // No exact tail (disabled, or a signed 1-qubit target): plain qubit
    // reduction.
    result.circuit = routed_onto_device(nflow_prepare(target));
    result.found = !deadline.expired();
    result.timed_out = !result.found;
    return result;
  }
  const QuantumState marginal = nflow_marginal(target, t);
  bool used_exact = false;
  Circuit tail = nflow_prepare(marginal);
  // Count-heavy marginals are generic positive states where the stages
  // are already near-optimal: only pay for the exact attempt when the
  // slot total is small enough that it can plausibly win.
  const auto marginal_slots = SlotState::from_state(marginal);
  if (marginal_slots.has_value() &&
      marginal_slots->total() <= options_.dense_tail_total_cap) {
    const std::int64_t stages_cost = selection_cost(tail, elide);
    bool exact_used = false;
    std::optional<Circuit> exact_marginal =
        exact_tail(marginal, &exact_used, &result.budget_exhausted, deadline,
                   bound_by(stages_cost));
    if (exact_marginal.has_value() && exact_used &&
        selection_cost(*exact_marginal, elide) < stages_cost) {
      tail = std::move(*exact_marginal);
      used_exact = true;
    }
  }
  result.used_exact_tail = used_exact;
  Circuit circuit(nw);
  circuit.append(tail);
  circuit.append(nflow_stages(target, t));

  // Borderline densities: the sparse machinery sometimes wins outright
  // (e.g. symmetric states like Dicke whose n*m is just above 2^n).
  if (target.cardinality() <= options_.dual_path_max_cardinality) {
    const std::int64_t dense_cost = selection_cost(circuit, elide);
    bool sparse_exact = false;
    const auto alt = sparse_prepare(&sparse_exact, bound_by(dense_cost));
    if (alt.has_value() && selection_cost(*alt, elide) < dense_cost) {
      circuit = *alt;
      result.used_exact_tail = sparse_exact;
    }
  }
  if (deadline.expired()) {
    result.timed_out = true;
    return result;
  }
  result.circuit = routed_onto_device(std::move(circuit));
  result.found = true;
  return result;
}

}  // namespace qsp
