#pragma once
// The cardinality-reduction baseline ("m-flow", Gleinig & Hoefler,
// DAC'21). Working in the reverse direction (target -> ground), each
// iteration picks two support indices, aligns them with CNOTs until they
// differ in one qubit, isolates the pair with a greedy-minimal control set
// and merges them with a (multi-)controlled Ry; the preparation circuit is
// the adjoint of the recorded sequence. Handles arbitrary signed real
// amplitudes.
//
// Each merge views the support as bit columns (bit i of column q is bit q
// of the i-th index), on which a CNOT layer is a GF(2)-linear map: the
// unifying CNOTs of a plan become masked column XORs and a candidate
// control's elimination count a masked popcount, so no plan copies or
// rewrites the support.

#include <functional>

#include "circuit/circuit.hpp"
#include "state/quantum_state.hpp"

namespace qsp {

struct MFlowOptions {
  enum class PairStrategy {
    /// Gleinig-Hoefler greedy: a minimum-Hamming-distance pair.
    kGreedyFirst,
    /// Cost-aware: evaluate several minimum-distance candidates and pick
    /// the cheapest merge (used by "ours" in the sparse workflow). Each
    /// candidate pair is costed for every pivot in one orientation (keep
    /// the lower index; keeping the higher costs the same), and a plan's
    /// greedy stops once it cannot come in strictly below the cheapest
    /// plan so far, so the choice is that of the full costing.
    kCheapest,
    /// Deepest-shared-prefix pair (decision-diagram order; used by the
    /// hybrid surrogate).
    kPrefixAdjacent,
  };
  PairStrategy strategy = PairStrategy::kGreedyFirst;
  /// Abort after this many seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
};

struct MFlowResult {
  bool timed_out = false;
  Circuit circuit{1};
};

/// Full preparation circuit for `target`.
MFlowResult mflow_prepare(const QuantumState& target,
                          const MFlowOptions& options = {});

/// Run merge iterations until `stop(current)` returns true (checked before
/// every merge) or cardinality reaches 1. Returns the *forward* gates
/// (mapping target towards ground) and the reduced state, so a workflow
/// can append an exact tail: target = adjoint(forward) * reduced.
struct MFlowReduction {
  bool timed_out = false;
  std::vector<Gate> forward_gates;
  QuantumState reduced{1};
};

MFlowReduction mflow_reduce(
    const QuantumState& target,
    const std::function<bool(const QuantumState&)>& stop,
    const MFlowOptions& options = {});

}  // namespace qsp
