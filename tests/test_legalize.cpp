// Differential harness for the staged backend legalization: for every
// built-in target and every -O level, lowering/pipelining a random corpus
// must produce a circuit that (a) is native for the target and (b)
// prepares the same state (preparation_overlap is global-phase-blind, so
// decompositions that differ from CNOT by a global phase still score 1).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "arch/routing.hpp"
#include "circuit/cost_model.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"
#include "circuit/target.hpp"
#include "pass_test_util.hpp"
#include "sim/verifier.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(Legalize, LowerOntoIsNativeAndEquivalent) {
  const auto corpus = test::random_circuit_corpus();
  for (const Target& target : Target::builtin()) {
    for (const Circuit& circuit : corpus) {
      const Circuit low = lower_onto(circuit, target);
      ASSERT_TRUE(target.is_native_circuit(low))
          << target.name() << " n=" << circuit.num_qubits();
      ASSERT_NEAR(preparation_overlap(circuit, low), 1.0, 1e-7)
          << target.name() << " n=" << circuit.num_qubits();
    }
  }
}

TEST(Legalize, PipelineComposesOptimizationWithLegalization) {
  // One fixpoint loop runs the level's cleanup passes AND the lowering
  // stages; the result must be native and equivalent at every level.
  const auto corpus = test::random_circuit_corpus();
  for (const Target& target : Target::builtin()) {
    for (const OptLevel level :
         {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2}) {
      PipelineOptions options;
      options.level = level;
      options.lower_to_target = true;
      options.pass.target = target;
      options.pass.elide_zero_rotations = true;
      const PassPipeline pipeline(options);
      for (const Circuit& circuit : corpus) {
        const Circuit out = pipeline.run(circuit);
        ASSERT_TRUE(target.is_native_circuit(out))
            << target.name() << " " << opt_level_name(level)
            << " n=" << circuit.num_qubits();
        ASSERT_NEAR(preparation_overlap(circuit, out), 1.0, 1e-7)
            << target.name() << " " << opt_level_name(level)
            << " n=" << circuit.num_qubits();
      }
    }
  }
}

TEST(Legalize, ElisionStaysEquivalentPerTarget) {
  test::CorpusOptions corpus_options;
  corpus_options.near_zero_fraction = 0.4;  // stress the elision path
  const auto corpus = test::random_circuit_corpus(corpus_options);
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  for (const Target& target : Target::builtin()) {
    for (const Circuit& circuit : corpus) {
      const Circuit low = lower_onto(circuit, target, elide);
      ASSERT_TRUE(target.is_native_circuit(low)) << target.name();
      ASSERT_NEAR(preparation_overlap(circuit, low), 1.0, 1e-7)
          << target.name() << " n=" << circuit.num_qubits();
    }
  }
}

TEST(Legalize, LegalizationPreservesCoupling) {
  // A routed (device-native CNOT) circuit legalized for a target stays on
  // the coupling edges: native-legalize rewrites each CNOT in place and
  // never moves two-qubit gates to new wire pairs.
  const CouplingGraph device = CouplingGraph::line(5);
  Rng rng(0xBEEF);
  for (const Target& target : Target::builtin()) {
    for (int trial = 0; trial < 8; ++trial) {
      const Circuit routed = test::random_coupled_circuit(device, 40, rng);
      ASSERT_TRUE(respects_coupling(routed, device));
      const Circuit low = lower_onto(routed, target);
      ASSERT_TRUE(respects_coupling(low, device, target)) << target.name();
      ASSERT_NEAR(preparation_overlap(routed, low), 1.0, 1e-7)
          << target.name();
    }
  }
}

TEST(Legalize, IswapCountsTwicePerCnot) {
  // No single-iSwap CNOT exists: the legalizer spends exactly
  // natives_per_cnot() iSwaps per logical CNOT, and the generalized
  // counter sees the multiplier.
  Circuit c(3);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cnot(1, 2));
  const Circuit low = lower_onto(c, Target::iswap());
  EXPECT_EQ(two_qubit_gate_count(low, Target::iswap()), 4);
  EXPECT_EQ(count_two_qubit_after_lowering(c, Target::iswap()), 4);
}

TEST(Legalize, CnotTargetIsIdentityOnNativeStreams) {
  // On the identity target an already-native stream passes through the
  // three stages untouched — the fixpoint terminates immediately.
  Circuit c(3);
  c.append(Gate::ry(0, 0.3));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::x(2));
  c.append(Gate::rz(1, -0.2));
  EXPECT_EQ(lower_onto(c, Target::cnot()), c);
  EXPECT_EQ(lower(c), c);
}

}  // namespace
}  // namespace qsp
