#include "core/exact_synthesizer.hpp"

#include <stdexcept>

#include "core/search_core.hpp"
#include "util/timer.hpp"

namespace qsp {

ExactSynthesizer::ExactSynthesizer(ExactSynthesisOptions options)
    : options_(options) {
  validate_search_coupling("ExactSynthesizer", options_.astar.coupling.get());
  validate_beam_options("ExactSynthesizer", options_.beam);
}

SynthesisResult ExactSynthesizer::synthesize(const QuantumState& target) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "ExactSynthesizer: target has no slot decomposition");
  }
  return synthesize(*slot);
}

SynthesisResult ExactSynthesizer::synthesize(const SlotState& target) const {
  const Deadline deadline(options_.time_budget_seconds);
  SearchOptions astar_options = options_.astar;
  astar_options.time_budget_seconds =
      clamp_budget(astar_options.time_budget_seconds, deadline);
  const AStarSynthesizer astar(astar_options);
  SynthesisResult result = astar.synthesize(target);
  if (result.found) return result;

  BeamOptions beam_options = options_.beam;
  beam_options.time_budget_seconds =
      clamp_budget(beam_options.time_budget_seconds, deadline);
  const BeamSynthesizer beam(beam_options);
  SynthesisResult fallback = beam.synthesize(target);
  // Keep the A* statistics visible: the fallback happened because the
  // exact search ran out of budget. That includes budget_exhausted — a
  // fallback result is budget-shaped even when the beam itself finished
  // its descent, so the flag tells callers more budget could improve it.
  fallback.stats.nodes_expanded += result.stats.nodes_expanded;
  fallback.stats.nodes_generated += result.stats.nodes_generated;
  fallback.stats.seconds += result.stats.seconds;
  fallback.stats.budget_exhausted |= result.stats.budget_exhausted;
  return fallback;
}

}  // namespace qsp
