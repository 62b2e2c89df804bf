#include "circuit/target.hpp"

#include <stdexcept>
#include <string>

#include "circuit/circuit.hpp"

namespace qsp {

Target Target::cnot() { return Target(GateKind::kCNOT, "cnot", 1); }

Target Target::cz() { return Target(GateKind::kCZ, "cz", 1); }

Target Target::iswap() { return Target(GateKind::kISwap, "iswap", 2); }

Target Target::rzz() { return Target(GateKind::kRZZ, "rzz", 1); }

const std::vector<Target>& Target::builtin() {
  static const std::vector<Target> targets = {cnot(), cz(), iswap(), rzz()};
  return targets;
}

Target Target::by_name(std::string_view name) {
  for (const Target& t : builtin()) {
    if (t.name() == name) return t;
  }
  throw std::invalid_argument("Target::by_name: unknown target '" +
                              std::string(name) +
                              "' (valid: cnot, cz, iswap, rzz)");
}

bool Target::is_native(const Gate& gate) const {
  switch (gate.kind()) {
    case GateKind::kX:
    case GateKind::kRy:
    case GateKind::kRz:
      return true;
    case GateKind::kCNOT:
      return two_qubit_kind_ == GateKind::kCNOT &&
             gate.controls()[0].positive;
    case GateKind::kCZ:
    case GateKind::kISwap:
    case GateKind::kRZZ:
      return gate.kind() == two_qubit_kind_;
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kUCRy:
    case GateKind::kUCRz:
      return false;
  }
  return false;
}

bool Target::is_native_circuit(const Circuit& circuit) const {
  for (const Gate& g : circuit.gates()) {
    if (!is_native(g)) return false;
  }
  return true;
}

}  // namespace qsp
