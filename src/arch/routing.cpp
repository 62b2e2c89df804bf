#include "arch/routing.hpp"

#include <algorithm>
#include <stdexcept>

namespace qsp {

void emit_routed_cnot(Circuit& out, const std::vector<int>& path,
                      bool positive) {
  if (path.size() < 2) {
    throw std::invalid_argument(
        "emit_routed_cnot: path needs a control and a target");
  }
  const int control = path.front();
  if (!positive) out.append(Gate::x(control));
  if (path.size() == 2) {
    out.append(Gate::cnot(control, path.back()));
  } else {
    const std::size_t k = path.size() - 1;  // distance
    auto ascend = [&](std::size_t first) {
      for (std::size_t i = first; i < k; ++i) {
        out.append(Gate::cnot(path[i], path[i + 1]));
      }
    };
    auto descend = [&](std::size_t first) {
      for (std::size_t i = k - 1; i + 1 > first + 1; --i) {
        out.append(Gate::cnot(path[i - 1], path[i]));
      }
    };
    // A: accumulate prefix parities down the chain (k gates).
    ascend(0);
    // B: restore intermediates top-down (k-1 gates).
    descend(0);
    // A', B': same without the control's first link, cancelling the
    // intermediate contributions from p_1..p_{k-1} on the target.
    ascend(1);
    descend(1);
  }
  if (!positive) out.append(Gate::x(control));
}

Circuit route_circuit(const Circuit& circuit, const CouplingGraph& coupling,
                      const LoweringOptions& lowering) {
  if (coupling.num_qubits() < circuit.num_qubits()) {
    throw std::invalid_argument("route_circuit: coupling graph too small");
  }
  // Order every multiplexor's controls near-to-far before lowering: the
  // gray-code construction uses control bit b for 2^(c-1-b) CNOTs, so the
  // nearest wire should fire most often. This realizes exactly the
  // CouplingGraph::routed_rotation_cost model.
  Circuit reordered(circuit.num_qubits());
  for (const Gate& g : circuit.gates()) {
    if ((g.kind() == GateKind::kMCRy || g.kind() == GateKind::kUCRy) &&
        g.num_controls() >= 2) {
      std::vector<int> order;
      for (const auto& c : g.controls()) order.push_back(c.qubit);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return coupling.routed_cnot_cost(a, g.target()) <
               coupling.routed_cnot_cost(b, g.target());
      });
      reordered.append(reorder_ucry_controls(g, order));
    } else {
      reordered.append(g);
    }
  }
  const Circuit lowered = lower(reordered, lowering);
  // Size the output by the device, not the logical circuit: routed paths
  // legitimately traverse device qubits above the logical register (e.g. a
  // 2-qubit CNOT routed through the center of a star).
  Circuit out(coupling.num_qubits());
  for (const Gate& g : lowered.gates()) {
    if (g.kind() != GateKind::kCNOT) {
      out.append(g);
      continue;
    }
    const ControlLiteral c = g.controls()[0];
    if (coupling.has_edge(c.qubit, g.target())) {
      out.append(g);
      continue;
    }
    emit_routed_cnot(out, coupling.shortest_path(c.qubit, g.target()),
                     c.positive);
  }
  return out;
}

bool respects_coupling(const Circuit& circuit,
                       const CouplingGraph& coupling) {
  return respects_coupling(circuit, coupling, Target::cnot());
}

bool respects_coupling(const Circuit& circuit, const CouplingGraph& coupling,
                       const Target& target) {
  for (const Gate& g : circuit.gates()) {
    // Only the target's native gates pass: composite rotations
    // (CRy/MCRy/UCRy), negative controls and off-target two-qubit kinds
    // must be lowered away first, so an un-lowered circuit never passes
    // conformance by accident.
    if (!target.is_native(g)) return false;
    const auto qubits = g.qubits();
    if (qubits.size() <= 1) continue;
    if (!coupling.has_edge(qubits[0], qubits[1])) return false;
  }
  return true;
}

}  // namespace qsp
