#pragma once
// Facade over the exact A* solver with an anytime beam fallback. This is
// the "exact CNOT synthesis" entry point used by the workflow (Fig. 5) and
// by the benches; results carry an `optimal` certificate only when A*
// completed. With a cost bound, an A* that proves nothing cheaper exists
// ends the attempt without the beam.

#include "core/astar.hpp"
#include "core/beam.hpp"

namespace qsp {

struct ExactSynthesisOptions {
  SearchOptions astar;
  /// The fallback search, run whenever A* ends without a circuit and
  /// without a proof that none below the cost bound exists.
  BeamOptions beam;
  /// Overall wall-clock budget for the exact tail (0 = unlimited). Wired
  /// into every nested search's SearchBudget: A* gets at most the
  /// remaining time, and whatever it leaves bounds the beam fallback —
  /// so a single runaway kernel search can never blow an enclosing
  /// workflow budget (the per-search time_budget_seconds still apply on
  /// top when tighter).
  double time_budget_seconds = 0.0;
};

class ExactSynthesizer {
 public:
  explicit ExactSynthesizer(ExactSynthesisOptions options = {});

  /// A* first, then the beam unless A* returned a circuit or proved that
  /// none below `cost_bound` exists. Both searches get the bound, so the
  /// result is found only below it (see AStarSynthesizer::synthesize).
  SynthesisResult synthesize(const SlotState& target,
                             std::int64_t cost_bound = kNoCostBound) const;
  SynthesisResult synthesize(const QuantumState& target,
                             std::int64_t cost_bound = kNoCostBound) const;

  const ExactSynthesisOptions& options() const { return options_; }

 private:
  ExactSynthesisOptions options_;
};

}  // namespace qsp
