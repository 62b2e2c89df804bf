// Differential test harness for the registered-pass pipeline: every
// registered pass and every -O level runs over the shared random-circuit
// corpus (pass_test_util.hpp) and must preserve the prepared state, never
// increase cost, never widen the gate set, and keep routed circuits
// routed. Also pins the report algebra (per-pass deltas telescope to the
// whole-pipeline delta), pipeline idempotence, and the debug verification
// hook's ability to catch a contract-violating pass.

#include "circuit/pass_pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "arch/routing.hpp"
#include "circuit/pass.hpp"
#include "flow/solver.hpp"
#include "pass_test_util.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

constexpr double kOverlapTolerance = 1e-7;

PipelineOptions verified_options(OptLevel level) {
  PipelineOptions options;
  options.level = level;
  // Force the debug hook on even in release builds: the harness should
  // exercise the verification path everywhere it runs.
  options.verify_each_pass = true;
  return options;
}

TEST(PassPipeline, RegistryHasUniqueNonEmptyNames) {
  std::set<std::string> names;
  for (const Pass* pass : PassPipeline::registry()) {
    ASSERT_NE(pass, nullptr);
    EXPECT_FALSE(pass->name().empty());
    EXPECT_TRUE(names.insert(std::string(pass->name())).second)
        << "duplicate pass name: " << pass->name();
    EXPECT_NE(pass->preserves() & kPreservesPreparation, 0u);
  }
  EXPECT_GE(names.size(), 4u);
}

TEST(PassPipeline, FindLocatesEveryRegisteredPass) {
  for (const Pass* pass : PassPipeline::registry()) {
    EXPECT_EQ(PassPipeline::find(pass->name()), pass);
  }
  EXPECT_EQ(PassPipeline::find("no-such-pass"), nullptr);
}

TEST(PassPipeline, LevelsAreNestedSubsets) {
  EXPECT_TRUE(PassPipeline::level_passes(OptLevel::kO0).empty());
  const auto o1 = PassPipeline::level_passes(OptLevel::kO1);
  const auto o2 = PassPipeline::level_passes(OptLevel::kO2);
  ASSERT_LT(o1.size(), o2.size());
  for (std::size_t i = 0; i < o1.size(); ++i) EXPECT_EQ(o1[i], o2[i]);
  EXPECT_EQ(opt_level_name(OptLevel::kO0), "O0");
  EXPECT_EQ(opt_level_name(OptLevel::kO1), "O1");
  EXPECT_EQ(opt_level_name(OptLevel::kO2), "O2");
}

// Every registered pass, alone, over the whole corpus: preparation
// preserved always; cost monotone and gate kinds a subset of the input's
// for the gate-set-preserving passes (the lowering stages legitimately
// grow circuits and introduce primitive kinds).
TEST(PassPipeline, EveryPassSoundOnCorpus) {
  const PassOptions pass_options;
  for (const Circuit& circuit : test::random_circuit_corpus()) {
    std::set<GateKind> kinds_before;
    for (const Gate& g : circuit.gates()) kinds_before.insert(g.kind());
    for (const Pass* pass : PassPipeline::registry()) {
      Circuit rewritten = circuit;
      pass->run(rewritten, pass_options);
      if ((pass->preserves() & kPreservesGateSet) != 0) {
        EXPECT_LE(rewritten.size(), circuit.size()) << pass->name();
        EXPECT_LE(rewritten.cnot_cost(), circuit.cnot_cost()) << pass->name();
        for (const Gate& g : rewritten.gates()) {
          EXPECT_TRUE(kinds_before.count(g.kind()) > 0)
              << pass->name() << " introduced " << g.to_string();
        }
      }
      EXPECT_NEAR(preparation_overlap(circuit, rewritten), 1.0,
                  kOverlapTolerance)
          << pass->name() << " broke preparation on\n"
          << circuit.to_string();
    }
  }
}

// Every level over the whole corpus, with the verification hook armed: the
// pipeline must terminate, preserve preparation, and never cost more than
// its input; O2 must never lose to O1.
TEST(PassPipeline, EveryLevelSoundOnCorpus) {
  for (const Circuit& circuit : test::random_circuit_corpus()) {
    const Circuit o1 =
        optimize_circuit(circuit, verified_options(OptLevel::kO1));
    const Circuit o2 =
        optimize_circuit(circuit, verified_options(OptLevel::kO2));
    const Circuit o0 =
        optimize_circuit(circuit, verified_options(OptLevel::kO0));
    EXPECT_EQ(o0, circuit);  // O0 is the identity.
    EXPECT_LE(o1.size(), circuit.size());
    EXPECT_LE(o2.size(), o1.size());
    EXPECT_LE(o1.cnot_cost(), circuit.cnot_cost());
    EXPECT_LE(o2.cnot_cost(), o1.cnot_cost());
    EXPECT_NEAR(preparation_overlap(circuit, o1), 1.0,
                kOverlapTolerance);
    EXPECT_NEAR(preparation_overlap(circuit, o2), 1.0,
                kOverlapTolerance);
  }
}

// Device-native corpora stay device-native through every pass and level.
TEST(PassPipeline, CouplingConformancePreserved) {
  const PassOptions pass_options;
  Rng rng(0xC09);
  for (const CouplingGraph& device :
       {CouplingGraph::line(5), CouplingGraph::ring(5),
        CouplingGraph::grid(2, 3)}) {
    for (int i = 0; i < 4; ++i) {
      const Circuit circuit = test::random_coupled_circuit(device, 50, rng);
      ASSERT_TRUE(respects_coupling(circuit, device));
      for (const Pass* pass : PassPipeline::registry()) {
        Circuit rewritten = circuit;
        pass->run(rewritten, pass_options);
        EXPECT_TRUE(respects_coupling(rewritten, device)) << pass->name();
      }
      for (const OptLevel level :
           {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2}) {
        const Circuit out = optimize_circuit(circuit, verified_options(level));
        EXPECT_TRUE(respects_coupling(out, device))
            << opt_level_name(level);
        EXPECT_NEAR(preparation_overlap(circuit, out), 1.0,
                    kOverlapTolerance);
      }
    }
  }
}

// Satellite: the per-pass deltas in a PipelineReport telescope exactly to
// the whole-pipeline delta, for gates, depth and CNOT cost alike.
TEST(PassPipeline, ReportDeltasSumToPipelineDelta) {
  for (const Circuit& circuit : test::random_circuit_corpus()) {
    for (const OptLevel level :
         {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2}) {
      PipelineReport report;
      const Circuit out =
          optimize_circuit(circuit, verified_options(level), &report);
      EXPECT_EQ(report.gates_before, circuit.size());
      EXPECT_EQ(report.gates_after, out.size());
      EXPECT_EQ(report.depth_before, circuit.depth());
      EXPECT_EQ(report.depth_after, out.depth());
      EXPECT_EQ(report.cnot_cost_before, circuit.cnot_cost());
      EXPECT_EQ(report.cnot_cost_after, out.cnot_cost());
      std::int64_t gates = 0;
      std::int64_t depth = 0;
      std::int64_t cnots = 0;
      for (const PassReport& pr : report.passes) {
        gates += pr.gates_delta();
        depth += pr.depth_delta();
        cnots += pr.cnot_cost_delta();
        EXPECT_NE(PassPipeline::find(pr.pass), nullptr) << pr.pass;
      }
      EXPECT_EQ(gates, report.gates_delta()) << opt_level_name(level);
      EXPECT_EQ(depth, report.depth_delta()) << opt_level_name(level);
      EXPECT_EQ(cnots, report.cnot_cost_delta()) << opt_level_name(level);
    }
  }
}

// Satellite: the pipeline is idempotent — a second run at the same level
// changes nothing and reports all-zero deltas.
TEST(PassPipeline, IdempotentAtEveryLevel) {
  for (const Circuit& circuit : test::random_circuit_corpus()) {
    for (const OptLevel level :
         {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2}) {
      const Circuit once = optimize_circuit(circuit, verified_options(level));
      PipelineReport report;
      const Circuit twice =
          optimize_circuit(once, verified_options(level), &report);
      EXPECT_EQ(twice, once) << opt_level_name(level);
      EXPECT_EQ(report.iterations, 0) << opt_level_name(level);
      EXPECT_EQ(report.gates_delta(), 0);
      EXPECT_EQ(report.depth_delta(), 0);
      EXPECT_EQ(report.cnot_cost_delta(), 0);
      for (const PassReport& pr : report.passes) {
        EXPECT_FALSE(pr.changed) << pr.pass;
        EXPECT_EQ(pr.gates_delta(), 0) << pr.pass;
      }
    }
  }
}

// A pass that claims to preserve everything but corrupts the state: the
// verification hook must name it in a std::logic_error.
class CorruptingPass final : public Pass {
 public:
  std::string_view name() const override { return "corrupting-test-pass"; }
  unsigned preserves() const override { return kPreservesAll; }
  bool run(Circuit& circuit, const PassOptions&) const override {
    Circuit out(circuit.num_qubits());
    bool tweaked = false;
    for (const Gate& g : circuit.gates()) {
      if (!tweaked && g.kind() == GateKind::kRy) {
        out.append(Gate::ry(g.target(), g.theta() + 0.7));
        tweaked = true;
        continue;
      }
      out.append(g);
    }
    circuit = std::move(out);
    return tweaked;
  }
};

TEST(PassPipeline, VerifyHookCatchesCorruptingPass) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 0.4));
  circuit.append(Gate::cnot(0, 1));
  const CorruptingPass corrupting;
  PipelineOptions options;
  options.verify_each_pass = true;
  options.max_iterations = 1;
  const PassPipeline pipeline({&corrupting}, options);
  EXPECT_THROW(pipeline.run(circuit), std::logic_error);
  // With verification off the pipeline trusts the pass (release default).
  options.verify_each_pass = false;
  const PassPipeline trusting({&corrupting}, options);
  EXPECT_NO_THROW(trusting.run(circuit));
}

// The workflow-facing knob: O0 must leave the stitched stages alone, O2
// must cost no more than O0, and every level must still prepare the state.
TEST(PassPipeline, SolverThreadsOptLevelThrough) {
  Rng rng(0x50F7);
  const QuantumState target = make_random_uniform(5, 6, rng);
  WorkflowResult results[3];
  const OptLevel levels[3] = {OptLevel::kO0, OptLevel::kO1, OptLevel::kO2};
  for (int i = 0; i < 3; ++i) {
    WorkflowOptions options;
    options.opt_level = levels[i];
    // The cross-level cost comparison needs all three runs on the same
    // search path: under ctest load the default 1 s / 0.5 s kernel wall
    // budgets can exhaust mid-run and send one level down a fallback with
    // a different base circuit. Budgets are not what this test measures.
    options.exact.astar.time_budget_seconds = 0.0;
    options.exact.beam.time_budget_seconds = 0.0;
    const Solver solver(options);
    results[i] = solver.prepare(target);
    ASSERT_TRUE(results[i].found) << opt_level_name(levels[i]);
    EXPECT_TRUE(verify_preparation(results[i].circuit, target).ok)
        << opt_level_name(levels[i]);
  }
  EXPECT_TRUE(results[0].passes.passes.empty());
  EXPECT_FALSE(results[1].passes.passes.empty());
  EXPECT_LE(results[1].circuit.cnot_cost(), results[0].circuit.cnot_cost());
  EXPECT_LE(results[2].circuit.cnot_cost(), results[0].circuit.cnot_cost());
  EXPECT_EQ(results[0].passes.gates_delta(), 0);
}

}  // namespace
}  // namespace qsp
