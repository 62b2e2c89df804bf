#include "circuit/cost_model.hpp"

#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace qsp {

std::int64_t rotation_cost(int num_controls) {
  if (num_controls < 0 || num_controls >= 63) {
    throw std::invalid_argument("rotation_cost: control count " +
                                std::to_string(num_controls) +
                                " outside [0, 63)");
  }
  if (num_controls == 0) return 0;
  if (num_controls == 1) return 2;
  return std::int64_t{1} << num_controls;
}

std::int64_t gate_cnot_cost(const Gate& gate) {
  switch (gate.kind()) {
    case GateKind::kX:
    case GateKind::kRy:
      return 0;
    case GateKind::kCNOT:
      return 1;
    case GateKind::kCRy:
      return 2;
    case GateKind::kRz:
      return 0;
    case GateKind::kMCRy:
    case GateKind::kUCRy:
    case GateKind::kUCRz:
      return rotation_cost(gate.num_controls());
    case GateKind::kCZ:
    case GateKind::kISwap:
    case GateKind::kRZZ:
      // One two-qubit gate each; Target::natives_per_cnot carries the
      // backend's emulation factor (e.g. two iSwaps per CNOT).
      return 1;
  }
  QSP_ASSERT_MSG(false, "unreachable gate kind");
  return 0;
}

std::int64_t two_qubit_gate_count(const Circuit& circuit,
                                  const Target& target) {
  std::int64_t count = 0;
  for (const Gate& g : circuit.gates()) {
    if (!target.is_native(g)) {
      throw std::invalid_argument(
          "two_qubit_gate_count: gate not native for target '" +
          std::string(target.name()) + "': " + g.to_string());
    }
    if (g.kind() == target.two_qubit_kind()) ++count;
  }
  return count;
}

}  // namespace qsp
