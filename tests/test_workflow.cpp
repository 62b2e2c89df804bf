#include "flow/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/routing.hpp"
#include "circuit/lowering.hpp"
#include "circuit/qasm.hpp"
#include "core/search_cache.hpp"
#include "flow/methods.hpp"
#include "prep/mflow.hpp"
#include "service/equivalence_cache.hpp"
#include "service/synthesis_service.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

TEST(Workflow, TinyStatesUseExactDirectly) {
  // Unbudgeted kernels: the pinned CNOT count needs the exact tail to
  // complete, and under ctest load the default 1 s / 0.5 s wall budgets
  // can exhaust and divert to a fallback.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 6);
}

TEST(Workflow, NumThreadsReachesExactTail) {
  // WorkflowOptions::num_threads must flow into the exact tail's A*
  // kernel without changing the certified result.
  WorkflowOptions options;
  options.num_threads = 4;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  verify_preparation_or_throw(res.circuit, target);
  EXPECT_EQ(count_cnots_after_lowering(res.circuit), 6);
}

TEST(Workflow, SparseDispatch) {
  Rng rng(401);
  const Solver solver;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 6 + static_cast<int>(rng.next_below(5));
    const QuantumState target = make_random_uniform(n, n, rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_TRUE(res.sparse_path);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, DenseDispatch) {
  Rng rng(402);
  const Solver solver;
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 5 + static_cast<int>(rng.next_below(3));
    const QuantumState target = make_random_uniform(n, 1 << (n - 1), rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found);
    EXPECT_FALSE(res.sparse_path);
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, BeatsOrMatchesBestBaselinePerCategory) {
  Rng rng(403);
  // Sparse: ours vs m-flow.
  double ours_sparse = 0, mflow_sparse = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(9, 9, rng);
    const MethodRun ours = run_method(Method::kOurs, target);
    const MethodRun mflow = run_method(Method::kMFlow, target);
    ASSERT_TRUE(ours.ok && mflow.ok);
    ours_sparse += static_cast<double>(ours.cnots);
    mflow_sparse += static_cast<double>(mflow.cnots);
  }
  EXPECT_LT(ours_sparse, mflow_sparse);

  // Dense: ours vs n-flow.
  double ours_dense = 0, nflow_dense = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const QuantumState target = make_random_uniform(6, 32, rng);
    const MethodRun ours = run_method(Method::kOurs, target);
    const MethodRun nflow = run_method(Method::kNFlow, target);
    ASSERT_TRUE(ours.ok && nflow.ok);
    ours_dense += static_cast<double>(ours.cnots);
    nflow_dense += static_cast<double>(nflow.cnots);
  }
  EXPECT_LE(ours_dense, nflow_dense);
}

TEST(Workflow, HandlesSignedStatesViaFallback) {
  Rng rng(404);
  const Solver solver;
  for (int trial = 0; trial < 5; ++trial) {
    const QuantumState target = make_random_real(7, 7, rng);
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found);
    verify_preparation_or_throw(res.circuit, target);
  }
}

/// 18 mixed-sign states at n = 1..5: the two smallest cases by hand, then
/// alternately a uniform state over the whole register with one term
/// negated and random real amplitudes with both signs. Most of them take
/// the dense path with exact_max_qubits >= n.
std::vector<QuantumState> mixed_sign_corpus() {
  std::vector<QuantumState> corpus = {
      QuantumState(1, {Term{0, -0.6}, Term{1, 0.8}}),
      QuantumState(2, {Term{0, 1.0}, Term{3, -1.0}})};
  Rng rng(2401);
  for (int i = 0; corpus.size() < 18; ++i) {
    const int n = 1 + (i / 2) % 5;
    const std::uint64_t size = std::uint64_t{1} << n;
    std::vector<Term> terms;
    if (i % 2 == 0) {
      for (BasisIndex x = 0; x < size; ++x) terms.push_back(Term{x, 1.0});
      terms[rng.next_below(size)].amplitude = -1.0;
    } else {
      const int m = 2 + static_cast<int>(rng.next_below(size - 1));
      terms = make_random_real(n, m, rng).terms();
      const auto negative = [](const Term& t) { return t.amplitude < 0; };
      if (std::all_of(terms.begin(), terms.end(), negative) ||
          std::none_of(terms.begin(), terms.end(), negative)) {
        terms.front().amplitude = -terms.front().amplitude;
      }
    }
    corpus.emplace_back(n, std::move(terms));
  }
  return corpus;
}

/// Work-bounded kernels without wall budgets, at a given exact width.
WorkflowOptions mixed_sign_options(int exact_max_qubits) {
  WorkflowOptions options;
  options.exact_max_qubits = exact_max_qubits;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 1000;
  options.exact.beam.beam_width = 1;
  return options;
}

TEST(Workflow, MixedSignStatesVerify) {
  // The dense path's marginal holds magnitudes, so a mixed-sign target no
  // wider than exact_max_qubits used to come back with its signs lost,
  // e.g. the other Bell state for (|00> - |11>)/sqrt(2).
  for (const int width : {4, 6}) {
    const Solver solver(mixed_sign_options(width));
    for (const QuantumState& target : mixed_sign_corpus()) {
      const WorkflowResult res = solver.prepare(target);
      ASSERT_TRUE(res.found) << target.to_string();
      const VerificationResult check =
          verify_preparation(res.circuit, target);
      EXPECT_TRUE(check.ok) << "exact_max_qubits=" << width << " "
                            << target.to_string() << ": " << check.message;
    }
  }
}

TEST(Workflow, MixedSignQasmRequestsVerify) {
  // The same corpus through the service's QASM front door, with each
  // request written as perfbench writes its QASM requests.
  SynthesisServiceOptions service_options;
  service_options.num_workers = 2;
  SynthesisService service(service_options);
  for (const int width : {4, 6}) {
    for (const QuantumState& target : mixed_sign_corpus()) {
      const std::string qasm = to_qasm(mflow_prepare(target).circuit);
      const ServiceResponse response =
          service.submit_qasm(qasm, mixed_sign_options(width)).get();
      ASSERT_TRUE(response.result.found) << target.to_string();
      const VerificationResult check =
          verify_preparation(response.result.circuit, target);
      EXPECT_TRUE(check.ok) << "exact_max_qubits=" << width << " "
                            << target.to_string() << ": " << check.message;
    }
  }
}

TEST(Workflow, ExactTailHelperVerifies) {
  Rng rng(405);
  // Generous budgets so the exact kernel always completes regardless of
  // machine load (the default wall-clock budgets can expire when the test
  // suite runs highly parallel).
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 5'000'000;
  const Solver solver(options);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 8, rng);
    bool used_exact = false;
    const Circuit c = solver.prepare_via_exact_tail(target, &used_exact);
    EXPECT_TRUE(used_exact);
    verify_preparation_or_throw(c, target);
  }
}

TEST(Workflow, ExactTailPeelsSeparableQubits) {
  // 6-qubit state with a 2-qubit entangled core: tail must peel and use
  // the exact kernel despite n > exact_max_qubits.
  const QuantumState target = make_uniform(
      6, {0b000000, 0b000011, 0b110000, 0b110011, 0b001000, 0b001011,
          0b111000, 0b111011});
  // Support = Bell(q0,q1) x |+>(q3) x Bell(q4,q5)... cardinality 8.
  const Solver solver;
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, MethodRegistryNamesAndRuns) {
  EXPECT_EQ(method_name(Method::kMFlow), "m-flow");
  EXPECT_EQ(method_name(Method::kNFlow), "n-flow");
  EXPECT_EQ(method_name(Method::kHybrid), "hybrid");
  EXPECT_EQ(method_name(Method::kOurs), "ours");
  Rng rng(406);
  const QuantumState target = make_random_uniform(6, 6, rng);
  for (const Method m :
       {Method::kMFlow, Method::kNFlow, Method::kHybrid, Method::kOurs}) {
    const MethodRun run = run_method(m, target);
    ASSERT_TRUE(run.ok) << method_name(m);
    EXPECT_GE(run.cnots, 0) << method_name(m);
    verify_preparation_or_throw(run.circuit, target);
  }
}

TEST(Workflow, BorderlineDenseDualPathBeatsQubitReduction) {
  // |D^2_6> has n*m = 90 >= 2^6, so the fixed Fig.-5 dispatch would pay
  // the dense 2^6 - 2 = 62 CNOTs; the dual-path refinement runs the
  // sparse machinery too and must come in strictly cheaper.
  const QuantumState target = make_dicke(6, 2);
  const Solver solver;
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  verify_preparation_or_throw(res.circuit, target);
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  EXPECT_LT(count_cnots_after_lowering(res.circuit, elide), 62);
}

TEST(Workflow, CouplingOutputConformsAndVerifies) {
  // End-to-end coupling awareness: with a device set, the workflow output
  // must be native for the device (tightened respects_coupling) and still
  // prepare the target, with spare device wires back in |0>.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::grid(2, 3));
  const Solver solver(options);
  Rng rng(408);
  std::vector<QuantumState> targets;
  targets.push_back(make_ghz(5));
  targets.push_back(make_dicke(4, 2));
  targets.push_back(make_random_uniform(5, 5, rng));
  targets.push_back(make_random_uniform(6, 12, rng));
  for (const QuantumState& target : targets) {
    const WorkflowResult res = solver.prepare(target);
    ASSERT_TRUE(res.found) << target.to_string();
    EXPECT_EQ(res.circuit.num_qubits(), 6);
    EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling))
        << target.to_string();
    verify_preparation_or_throw(res.circuit, target);
  }
}

TEST(Workflow, BackendTargetProducesNativeVerifiedCircuit) {
  // End-to-end backend awareness: with a non-CNOT target the workflow
  // output is native for that backend (the staged lowering ran inside the
  // pipeline) and still prepares the state; the result names its target.
  Rng rng(415);
  const QuantumState dense = make_random_uniform(5, 20, rng);
  for (const Target& target : Target::builtin()) {
    WorkflowOptions options;
    options.target = target;
    const Solver solver(options);
    for (const QuantumState& state :
         {make_ghz(4), make_dicke(4, 2), dense}) {
      const WorkflowResult res = solver.prepare(state);
      ASSERT_TRUE(res.found) << target.name() << " " << state.to_string();
      EXPECT_EQ(res.target, target.name());
      if (!target.is_cnot()) {
        // The identity target keeps the historical contract (composite
        // rotations allowed, benches lower afterwards); every other
        // backend gets a fully legalized stream.
        EXPECT_TRUE(target.is_native_circuit(res.circuit))
            << target.name() << " " << state.to_string();
      }
      verify_preparation_or_throw(res.circuit, state);
    }
  }
}

TEST(Workflow, BackendTargetComposesWithCoupling) {
  // Routing then legalization: the legalized output must stay on the
  // device edges (native decompositions never leave the CNOT's wire pair)
  // and conform under the target-aware respects_coupling.
  for (const Target& target : {Target::cz(), Target::iswap()}) {
    WorkflowOptions options;
    options.target = target;
    options.coupling =
        std::make_shared<CouplingGraph>(CouplingGraph::line(5));
    const Solver solver(options);
    const QuantumState state = make_ghz(5);
    const WorkflowResult res = solver.prepare(state);
    ASSERT_TRUE(res.found) << target.name();
    EXPECT_TRUE(target.is_native_circuit(res.circuit)) << target.name();
    EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling, target))
        << target.name();
    verify_preparation_or_throw(res.circuit, state);
  }
}

TEST(Workflow, CouplingExactTailHostsCoreOnConnectedSubgraph) {
  // Bell(0,5) on a line: the core's wires {0, 5} induce a disconnected
  // subgraph, so the tail must grow a connected host through the middle
  // wires and still verify; the routed workflow output must conform.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(6));
  const Solver solver(options);
  const QuantumState far_bell = make_uniform(6, {0b000000, 0b100001});
  bool used_exact = false;
  const Circuit tail = solver.prepare_via_exact_tail(far_bell, &used_exact);
  EXPECT_TRUE(used_exact);
  verify_preparation_or_throw(tail, far_bell);

  const WorkflowResult res = solver.prepare(far_bell);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, far_bell);
}

TEST(Workflow, CouplingHeavyHexDevice) {
  // A 6-qubit GHZ hosted on the 18-qubit heavy-hex patch: the device is
  // wider than the target, so the routed result carries ancilla wires.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::heavy_hex(3));
  const Solver solver(options);
  const QuantumState target = make_ghz(6);
  const WorkflowResult res = solver.prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.circuit.num_qubits(), 18);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, CouplingHostCapFallsBackWhenCoreTooSpread) {
  // Bell(0,14) across the heavy-hex lattice: only two entangled wires,
  // but connecting them needs ~9 host qubits — beyond
  // exact_max_host_qubits, so the tail must skip the exact kernel (the
  // thresholds were sized for <= exact_max_qubits-entangled cores) and
  // the workflow must still deliver a conformant, verified circuit.
  WorkflowOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::heavy_hex(3));
  const Solver solver(options);
  const QuantumState far_bell =
      make_uniform(15, {0, (BasisIndex{1} << 14) | 1});
  const WorkflowResult res = solver.prepare(far_bell);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(res.circuit, *options.coupling));
  verify_preparation_or_throw(res.circuit, far_bell);

  // Raising the cap re-enables the exact kernel on the same instance.
  WorkflowOptions wide = options;
  wide.exact_max_host_qubits = 12;
  const WorkflowResult exact_res = Solver(wide).prepare(far_bell);
  ASSERT_TRUE(exact_res.found);
  EXPECT_TRUE(exact_res.used_exact_tail);
  EXPECT_TRUE(respects_coupling(exact_res.circuit, *options.coupling));
  verify_preparation_or_throw(exact_res.circuit, far_bell);
}

TEST(Workflow, CouplingValidation) {
  WorkflowOptions disconnected;
  disconnected.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph(4, {{0, 1}, {2, 3}}));
  EXPECT_THROW(Solver{disconnected}, std::invalid_argument);

  WorkflowOptions narrow;
  narrow.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const Solver solver(narrow);
  EXPECT_THROW(solver.prepare(make_ghz(5)), std::invalid_argument);
}

TEST(Workflow, TimedOutReported) {
  Rng rng(407);
  const QuantumState target = make_random_uniform(14, 128, rng);
  WorkflowOptions options;
  options.time_budget_seconds = 1e-9;
  const Solver solver(options);
  const WorkflowResult res = solver.prepare(target);
  // Sparse path (14*128 < 2^14): the reduction must hit the deadline.
  EXPECT_TRUE(res.timed_out || res.found);
}

TEST(Workflow, TimeBudgetAbortsRunawayKernelSearch) {
  // Regression: time_budget_seconds used to be checked only *between*
  // workflow stages, so an exact-tail search with unlimited per-search
  // budgets would blow the whole budget (minutes on this instance). The
  // deadline must now be wired into the kernels' SearchBudget: the search
  // aborts mid-flight and the search-free reduction fallback still
  // returns a verified circuit.
  Rng rng(408);
  const QuantumState target = make_random_uniform(5, 16, rng);
  WorkflowOptions options;
  options.exact_max_qubits = 5;          // fits-thresholds direct path
  options.exact.astar.time_budget_seconds = 0.0;  // "runaway": unlimited
  options.exact.astar.node_budget = 0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.time_budget_seconds = 0.05;
  const Solver solver(options);
  const Timer timer;
  const WorkflowResult res = solver.prepare(target);
  // Generous bound: the budget is 50ms, the fallback is search-free; the
  // margin absorbs sanitizer slowdowns. Without in-search enforcement
  // this instance searches for minutes.
  EXPECT_LT(timer.seconds(), 10.0);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.used_exact_tail);  // aborted mid-search, fell back
  // The budget truncation must be visible on the workflow result, not
  // just silently swallowed by the fallback.
  EXPECT_TRUE(res.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, UnconstrainedRunIsNotBudgetExhausted) {
  // Truly unconstrained: zero the per-kernel wall budgets too, or a
  // loaded ctest run can exhaust the default 1 s A* budget and set the
  // very flag this test asserts is clear.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const WorkflowResult res = solver.prepare(make_dicke(4, 2));
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.budget_exhausted);
}

TEST(Workflow, NumThreadsReachesBeamFallback) {
  // WorkflowOptions::num_threads must also drive the exact tail's beam
  // fallback, and the result must stay bit-identical to the
  // single-threaded workflow: the beam is deterministic across thread
  // counts.
  WorkflowOptions serial_options;
  serial_options.exact_max_qubits = 5;
  serial_options.exact.astar.node_budget = 50;  // force the beam fallback
  serial_options.exact.astar.time_budget_seconds = 0.0;
  // Unbudgeted beam: a deadline-truncated descent is (deliberately) not
  // deterministic, and this test pins bit-identity.
  serial_options.exact.beam.time_budget_seconds = 0.0;
  serial_options.exact.beam.beam_width = 256;
  serial_options.exact.beam.max_controls = -1;  // W_5 needs wide merges
  const QuantumState target = make_dicke(5, 1);
  const WorkflowResult ref = Solver(serial_options).prepare(target);
  ASSERT_TRUE(ref.found);
  ASSERT_TRUE(ref.used_exact_tail);  // beam result, via the fallback

  WorkflowOptions parallel_options = serial_options;
  parallel_options.num_threads = 4;
  const WorkflowResult res = Solver(parallel_options).prepare(target);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(res.used_exact_tail);
  EXPECT_TRUE(res.circuit == ref.circuit);
  // Both runs aborted the A* stage on its node budget before falling
  // back, so both must carry the flag.
  EXPECT_TRUE(ref.budget_exhausted);
  EXPECT_TRUE(res.budget_exhausted);
  verify_preparation_or_throw(res.circuit, target);
}

TEST(Workflow, TinyTermStatePreparesAndVerifies) {
  // A term that falls below the amplitude epsilon only once normalized
  // used to reach m-flow and abort the process there.
  const QuantumState target(
      8, {Term{0, 1e7}, Term{3, 1e7}, Term{200, 1e7}, Term{5, 1e-6}});
  WorkflowOptions options;
  options.time_budget_seconds = 0.0;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 1000;
  options.exact.beam.beam_width = 1;
  const WorkflowResult result = Solver(options).prepare(target);
  ASSERT_TRUE(result.found);
  verify_preparation_or_throw(result.circuit, target);
}

TEST(Workflow, SharedCacheModeServesRepeatsBitIdentically) {
  // Solver::cache: the second prepare() of the same target must serve the
  // exact tail from the equivalence cache and produce the identical
  // circuit.
  auto cache = std::make_shared<EquivalenceCache>();
  WorkflowOptions options;
  options.cache = cache;
  // Unbudgeted kernels: the insert/hit assertions need the exact tail to
  // run on both prepares even when ctest load would exhaust the default
  // wall budgets.
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  const Solver solver(options);
  const QuantumState target = make_dicke(4, 2);
  const WorkflowResult cold = solver.prepare(target);
  ASSERT_TRUE(cold.found);
  const auto cold_stats = cache->stats();
  EXPECT_GE(cold_stats.insertions, 1u);
  const WorkflowResult warm = solver.prepare(target);
  ASSERT_TRUE(warm.found);
  const auto warm_stats = cache->stats();
  EXPECT_GE(warm_stats.exact_hits, cold_stats.exact_hits + 1);
  EXPECT_EQ(cold.circuit, warm.circuit);
  verify_preparation_or_throw(warm.circuit, target);
}

TEST(Workflow, DenseOutputsUnchangedByCostBound) {
  // The dense path bounds its exact attempts by the competitor's cost, so
  // a search stops once it cannot win. It may drop only circuits the
  // selection would have discarded. Per request: the lowered CNOT count,
  // used_exact_tail and budget_exhausted, frozen from the unbounded
  // solver, on Table-V and Dicke states under perfbench's dense options
  // (1000-node A*, width-1 beam, no wall budgets). The corpus holds both
  // outcomes of the dense marginal attempt, dual-path attempts whose beam
  // an A* proof skips, marginals above the A* candidate cap, and exact
  // marginals that win by a single CNOT.
  struct Frozen {
    std::int64_t cnots;
    bool used_exact_tail;
    bool budget_exhausted;
  };
  std::vector<QuantumState> corpus;
  Rng rng(2024);
  for (int n = 5; n <= 8; ++n) {
    for (int i = 0; i < 2; ++i) {
      corpus.push_back(make_random_uniform(n, 1 << (n - 1), rng));
    }
  }
  for (const auto& [n, k] : {std::pair{5, 2}, {5, 3}, {6, 2}, {6, 3}, {6, 4},
                             {7, 2}, {7, 3}, {7, 4}, {7, 5}, {8, 3}, {8, 4}}) {
    corpus.push_back(make_dicke(n, k));
  }
  // n = 5 states whose exact marginal beats the stages by one CNOT, which
  // the strict bound must still let through.
  Rng narrow_win(8);
  for (const int m : {9, 10, 11}) {
    corpus.push_back(make_random_uniform(5, m, narrow_win));
  }
  const std::vector<Frozen> frozen = {
      {30, false, true},  {30, false, true},  {62, false, true},
      {62, false, true},  {126, false, true}, {126, false, true},
      {254, false, true}, {254, false, true}, {30, false, true},
      {30, false, true},  {55, false, true},  {62, false, true},
      {54, true, true},   {79, false, true},  {126, false, true},
      {126, false, true}, {79, true, true},   {254, false, true},
      {254, false, true}, {26, true, true},   {27, true, true},
      {29, true, true}};
  ASSERT_EQ(corpus.size(), frozen.size());

  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 1000;
  options.exact.beam.beam_width = 1;
  const Solver solver(options);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string ctx = "request " + std::to_string(i);
    const WorkflowResult res = solver.prepare(corpus[i]);
    ASSERT_TRUE(res.found) << ctx;
    EXPECT_FALSE(res.sparse_path) << ctx;
    EXPECT_EQ(count_cnots_after_lowering(res.circuit), frozen[i].cnots) << ctx;
    EXPECT_EQ(res.used_exact_tail, frozen[i].used_exact_tail) << ctx;
    EXPECT_EQ(res.budget_exhausted, frozen[i].budget_exhausted) << ctx;
    verify_preparation_or_throw(res.circuit, corpus[i]);
  }
}

/// Records the cost bound of every A* probe. It never answers, so each
/// search runs as it would without a cache.
class BoundSpy : public SearchCache {
 public:
  Lookup begin(const SlotState&, const CanonicalWitness&,
               const CacheFingerprint& fp, double, bool consult_only) override {
    if (!consult_only) astar_bounds.push_back(fp.attempt->cost_bound);
    return {};
  }
  void end(const SlotState&, const CanonicalWitness&, const CacheFingerprint&,
           const SynthesisResult*) override {}

  std::vector<std::int64_t> astar_bounds;
};

TEST(Workflow, NoExactAttemptRunsUnderABoundOfZero) {
  // A dual-path attempt whose m-flow gates alone reach the dense cost is
  // bounded by 0, and no circuit costs less than 0 CNOTs. Such attempts
  // end before the canonical key and the cache probe, and every output
  // stays as it is without a cache. Perfbench's dense options and inputs.
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 1000;
  options.exact.beam.beam_width = 1;
  const Solver plain(options);
  const auto spy = std::make_shared<BoundSpy>();
  options.cache = spy;
  const Solver spied(options);
  for (const std::uint64_t seed : {1, 5, 4242}) {
    Rng rng(seed);
    for (int n = 5; n <= 8; ++n) {
      for (int i = 0; i < 4; ++i) {
        const QuantumState target = make_random_uniform(n, 1 << (n - 1), rng);
        const std::string ctx =
            "seed " + std::to_string(seed) + " " + target.to_string();
        const WorkflowResult ref = plain.prepare(target);
        const WorkflowResult res = spied.prepare(target);
        ASSERT_TRUE(res.found) << ctx;
        EXPECT_TRUE(res.circuit == ref.circuit) << ctx;
        EXPECT_EQ(res.used_exact_tail, ref.used_exact_tail) << ctx;
        EXPECT_EQ(res.budget_exhausted, ref.budget_exhausted) << ctx;
      }
    }
  }
  ASSERT_FALSE(spy->astar_bounds.empty());
  for (const std::int64_t bound : spy->astar_bounds) EXPECT_GT(bound, 0);
}

}  // namespace
}  // namespace qsp
