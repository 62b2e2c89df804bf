#pragma once
// Facade over the exact A* solver with an anytime beam fallback. This is
// the "exact CNOT synthesis" entry point used by the workflow (Fig. 5) and
// by the benches; results carry an `optimal` certificate only when A*
// completed.

#include "core/astar.hpp"
#include "core/beam.hpp"

namespace qsp {

struct ExactSynthesisOptions {
  SearchOptions astar;
  /// The fallback search, run whenever A* ends without a circuit.
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

  SynthesisResult synthesize(const SlotState& target) const;
  SynthesisResult synthesize(const QuantumState& target) const;

  const ExactSynthesisOptions& options() const { return options_; }

 private:
  ExactSynthesisOptions options_;
};

}  // namespace qsp
