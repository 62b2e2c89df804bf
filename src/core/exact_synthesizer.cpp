#include "core/exact_synthesizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/search_core.hpp"
#include "util/timer.hpp"

namespace qsp {

ExactSynthesizer::ExactSynthesizer(ExactSynthesisOptions options)
    : options_(options) {
  validate_search_coupling("ExactSynthesizer", options_.astar.coupling.get());
  validate_beam_options("ExactSynthesizer", options_.beam);
}

SynthesisResult ExactSynthesizer::synthesize(const QuantumState& target,
                                             std::int64_t cost_bound) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "ExactSynthesizer: target has no slot decomposition");
  }
  return synthesize(*slot, cost_bound);
}

SynthesisResult ExactSynthesizer::synthesize(const SlotState& target,
                                             std::int64_t cost_bound) const {
  const Deadline deadline(options_.time_budget_seconds);
  SearchOptions astar_options = options_.astar;
  astar_options.time_budget_seconds =
      clamp_budget(astar_options.time_budget_seconds, deadline);
  const AStarSynthesizer astar(astar_options);
  SynthesisResult result = astar.synthesize(target, cost_bound);
  if (result.found) return result;
  // A completed A* without a circuit proves that nothing below the bound
  // exists when its arc set was exhaustive: within the candidate cap (the
  // rule of SynthesisResult::optimal) and with no control budget
  // narrower than the beam's. The beam cannot beat that proof.
  const auto controls = [&target](int max_controls) {
    const int all = target.num_qubits() - 1;
    return max_controls < 0 ? all : std::min(max_controls, all);
  };
  if (result.stats.completed &&
      target.total() <= astar_options.full_candidate_cap &&
      controls(astar_options.max_controls) >=
          controls(options_.beam.max_controls)) {
    return result;
  }

  BeamOptions beam_options = options_.beam;
  beam_options.time_budget_seconds =
      clamp_budget(beam_options.time_budget_seconds, deadline);
  const BeamSynthesizer beam(beam_options);
  SynthesisResult fallback = beam.synthesize(target, cost_bound);
  // Keep the A* statistics visible: the fallback happened because the
  // exact search ran out of budget or could not prove its bound. That
  // includes budget_exhausted — a
  // fallback result is budget-shaped even when the beam itself finished
  // its descent, so the flag tells callers more budget could improve it.
  fallback.stats.nodes_expanded += result.stats.nodes_expanded;
  fallback.stats.nodes_generated += result.stats.nodes_generated;
  fallback.stats.seconds += result.stats.seconds;
  fallback.stats.budget_exhausted |= result.stats.budget_exhausted;
  return fallback;
}

}  // namespace qsp
