#pragma once
// Registered-pass pipeline over the Pass framework (pass.hpp). Built-in
// passes self-register into a global registry; -O levels select ordered
// subsets and iterate them to a fixed point. The pipeline reports per-pass
// gate/depth/CNOT deltas and lints every productive pass application,
// release builds included: the structural rules (wire bounds, overlapping
// controls, canonical symmetric wire order, coupling conformance when the
// before-circuit conformed to pass.target.coupling) plus pass-contract
// consistency (QL008) against the pass's preserves() declaration. Any
// error-severity diagnostic throws std::logic_error naming the pass and
// the rule. With verification enabled (default in debug builds) it also
// re-simulates the circuit after every pass application and aborts on any
// preparation drift — so a buggy pass fails loudly at the exact
// application that broke the circuit instead of corrupting results
// downstream.

#include <cstdint>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/pass.hpp"

namespace qsp {

struct PipelineOptions {
  OptLevel level = OptLevel::kO1;
  PassOptions pass;
  /// Append the staged lowering passes (lowering.hpp: mcry-expand,
  /// ucr-gray-lower, native-legalize) after the level's optimization
  /// passes, so one fixpoint loop both optimizes and legalizes onto
  /// `pass.target`. The lowering stages are productive exactly once;
  /// later iterations only run the cleanup passes over the native
  /// stream. At O0 this degenerates to plain lower_onto().
  bool lower_to_target = false;
  /// Fixpoint iterations over the pass list. Every productive
  /// optimization pass application strictly decreases the gate count
  /// (the lowering stages may grow it, but each is productive at most
  /// once), so this is a safety cap, not a tuning knob; 0 means iterate
  /// until no change.
  int max_iterations = 0;
  /// Re-verify every pass application on registers of at most 14 qubits:
  /// simulate the circuit before and after the pass from |0...0>
  /// (preparation_overlap, sim/verifier.hpp) and require overlap 1 within
  /// 1e-7, and require a gate-set-preserving pass not to raise the CNOT
  /// cost. Throws std::logic_error naming the offending pass. Defaults on
  /// in debug builds (NDEBUG unset), off in release.
  bool verify_each_pass =
#ifdef NDEBUG
      false;
#else
      true;
#endif
};

/// Whole-pipeline accounting: one PassReport per pass application, in
/// order, plus end-to-end figures. The per-pass deltas sum exactly to the
/// end-to-end delta (tested by the differential harness).
struct PipelineReport {
  std::vector<PassReport> passes;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t depth_before = 0;
  std::size_t depth_after = 0;
  std::int64_t cnot_cost_before = 0;
  std::int64_t cnot_cost_after = 0;
  /// Productive fixpoint iterations (iterations that changed something).
  int iterations = 0;

  std::int64_t gates_delta() const {
    return static_cast<std::int64_t>(gates_before) -
           static_cast<std::int64_t>(gates_after);
  }
  std::int64_t depth_delta() const {
    return static_cast<std::int64_t>(depth_before) -
           static_cast<std::int64_t>(depth_after);
  }
  std::int64_t cnot_cost_delta() const {
    return cnot_cost_before - cnot_cost_after;
  }
};

class PassPipeline {
 public:
  /// Pipeline over the registered passes selected by `options.level`.
  explicit PassPipeline(PipelineOptions options = {});

  /// Pipeline over an explicit pass sequence (tests, custom flows). The
  /// passes must outlive the pipeline; `options.level` is ignored.
  PassPipeline(std::vector<const Pass*> passes, PipelineOptions options);

  const PipelineOptions& options() const { return options_; }
  const std::vector<const Pass*>& passes() const { return passes_; }

  /// Run the pass sequence to a fixed point and return the rewritten
  /// circuit. With `report` non-null, per-pass and end-to-end accounting
  /// is filled in (the report is reset first).
  Circuit run(const Circuit& circuit, PipelineReport* report = nullptr) const;

  /// All registered passes, in registration (= pipeline) order.
  static const std::vector<const Pass*>& registry();

  /// Registered pass by name; nullptr when absent.
  static const Pass* find(std::string_view name);

  /// The ordered pass subset a level runs.
  static std::vector<const Pass*> level_passes(OptLevel level);

 private:
  PipelineOptions options_;
  std::vector<const Pass*> passes_;
};

/// Convenience: run the registered pipeline at `options.level`.
Circuit optimize_circuit(const Circuit& circuit,
                         const PipelineOptions& options = {},
                         PipelineReport* report = nullptr);

}  // namespace qsp
