#include "core/search_core.hpp"

#include <stdexcept>
#include <string>
#include <thread>

namespace qsp {

int resolve_num_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

CanonicalLevel effective_canonical_level(CanonicalLevel requested,
                                         const CouplingGraph* coupling) {
  if (coupling != nullptr && !coupling->is_complete() &&
      (requested == CanonicalLevel::kPU2Greedy ||
       requested == CanonicalLevel::kPU2Exact)) {
    return CanonicalLevel::kU2;
  }
  return requested;
}

void validate_search_coupling(const char* context,
                              const CouplingGraph* coupling) {
  if (coupling != nullptr && !coupling->is_connected()) {
    throw std::invalid_argument(
        std::string(context) +
        ": coupling graph is disconnected — routed CNOT costs are "
        "undefined between unreachable qubits; pass a connected device "
        "graph (or synthesize each fragment against its own subgraph)");
  }
}

MoveGenOptions search_move_gen_options(int max_controls,
                                       std::uint64_t full_candidate_cap,
                                       const CouplingGraph* coupling,
                                       CanonicalLevel level) {
  MoveGenOptions options;
  options.max_controls = max_controls;
  options.full_candidate_cap = full_candidate_cap;
  options.coupling = coupling;
  options.include_zero_cost = level == CanonicalLevel::kNone;
  return options;
}

}  // namespace qsp
