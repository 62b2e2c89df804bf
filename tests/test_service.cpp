#include "service/synthesis_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arch/routing.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

ServiceRequest request_for(QuantumState state, WorkflowOptions options = {}) {
  ServiceRequest request;
  request.state = std::move(state);
  request.options = std::move(options);
  return request;
}

std::vector<QuantumState> family_batch() {
  return {make_ghz(4), make_w(4), make_dicke(4, 2)};
}

TEST(SynthesisService, ColdBatchPreparesAndVerifies) {
  SynthesisServiceOptions options;
  options.num_workers = 2;
  SynthesisService service(options);
  std::vector<ServiceRequest> batch;
  for (const QuantumState& state : family_batch()) {
    batch.push_back(request_for(state));
  }
  const std::vector<ServiceResponse> responses =
      service.run_batch(std::move(batch));
  const std::vector<QuantumState> targets = family_batch();
  ASSERT_EQ(responses.size(), targets.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].result.found);
    verify_preparation_or_throw(responses[i].result.circuit, targets[i]);
  }
  EXPECT_EQ(service.requests_served(), targets.size());
}

TEST(SynthesisService, WarmBatchIsBitIdenticalToCold) {
  SynthesisServiceOptions options;
  options.num_workers = 2;
  SynthesisService service(options);
  auto make_batch = [] {
    std::vector<ServiceRequest> batch;
    for (const QuantumState& state : family_batch()) {
      batch.push_back(request_for(state));
    }
    return batch;
  };
  const std::vector<ServiceResponse> cold = service.run_batch(make_batch());
  const EquivalenceCacheStats cold_stats = service.cache_stats();
  EXPECT_GE(cold_stats.insertions, 1u);

  const std::vector<ServiceResponse> warm = service.run_batch(make_batch());
  const EquivalenceCacheStats warm_stats = service.cache_stats();
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].result.found);
    // The whole workflow circuit, not just the tail: bit-identical.
    EXPECT_EQ(warm[i].result.circuit, cold[i].result.circuit) << i;
  }
  EXPECT_GT(warm_stats.hits, cold_stats.hits);
}

TEST(SynthesisService, RequestOptLevelAndTargetAreHonoured) {
  // Each request runs its own WorkflowOptions: an O0 request reports no
  // pass applications, the default O1 request reports the pipeline's
  // work, and a request's target comes back legalized for that target.
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  WorkflowOptions wants_o0;
  wants_o0.opt_level = OptLevel::kO0;
  const ServiceResponse raw =
      service.submit(request_for(make_w(4), wants_o0)).get();
  ASSERT_TRUE(raw.result.found);
  EXPECT_TRUE(raw.result.passes.passes.empty());
  EXPECT_EQ(raw.result.passes.gates_delta(), 0);
  const ServiceResponse cleaned = service.submit(request_for(make_w(4))).get();
  ASSERT_TRUE(cleaned.result.found);
  EXPECT_FALSE(cleaned.result.passes.passes.empty());
  EXPECT_LE(cleaned.result.circuit.cnot_cost(),
            raw.result.circuit.cnot_cost());
  verify_preparation_or_throw(cleaned.result.circuit, make_w(4));
  verify_preparation_or_throw(raw.result.circuit, make_w(4));

  WorkflowOptions wants_rzz;
  wants_rzz.target = Target::rzz();
  const ServiceResponse rzz =
      service.submit(request_for(make_ghz(4), wants_rzz)).get();
  ASSERT_TRUE(rzz.result.found);
  EXPECT_EQ(rzz.result.target, "rzz");
  EXPECT_TRUE(Target::rzz().is_native_circuit(rzz.result.circuit));
  verify_preparation_or_throw(rzz.result.circuit, make_ghz(4));
}

TEST(SynthesisService, SameClassVariantsShareOneSearch) {
  // "Per-user variants": a permuted copy of a cached state lands in the
  // same canonical class and is served by witness rewiring.
  Rng rng(53);
  QuantumState base(1);
  std::vector<int> perm{2, 0, 3, 1};
  QuantumState permuted(1);
  for (;;) {
    base = make_random_uniform(4, 5, rng);
    std::vector<Term> terms;
    for (const Term& t : base.terms()) {
      terms.push_back(Term{permute_bits(t.index, perm), t.amplitude});
    }
    permuted = QuantumState(4, std::move(terms));
    if (!(permuted == base)) break;  // need a genuine variant
  }

  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  // The rewired-hit assertion needs the cold search to actually reach the
  // exact tail and populate the cache: under ctest load the default
  // 1 s / 0.5 s kernel wall budgets can exhaust and divert the request to
  // a fallback that never inserts. Budgets are not what this test
  // measures.
  WorkflowOptions unconstrained;
  unconstrained.exact.astar.time_budget_seconds = 0.0;
  unconstrained.exact.beam.time_budget_seconds = 0.0;
  const ServiceResponse cold =
      service.submit(request_for(base, unconstrained)).get();
  ASSERT_TRUE(cold.result.found);
  const ServiceResponse warm =
      service.submit(request_for(permuted, unconstrained)).get();
  ASSERT_TRUE(warm.result.found);
  EXPECT_GE(service.cache_stats().rewired_hits, 1u);
  verify_preparation_or_throw(warm.result.circuit, permuted);
}

TEST(SynthesisService, CacheHitKeepsDeviceSizedRegisterAndConformance) {
  // Satellite regression mirroring PR 3's device-sized-register fix: a
  // cached tail template synthesized on a host patch must come back
  // remapped and routed so the response conforms to the requesting
  // device — same register width and respects_coupling as the cold path.
  const auto device =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(5));
  WorkflowOptions workflow;
  workflow.coupling = device;
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  const QuantumState target = make_ghz(4);

  const ServiceResponse cold =
      service.submit(request_for(target, workflow)).get();
  ASSERT_TRUE(cold.result.found);
  ASSERT_EQ(cold.result.circuit.num_qubits(), device->num_qubits());
  ASSERT_TRUE(respects_coupling(cold.result.circuit, *device));
  verify_preparation_or_throw(cold.result.circuit, target);

  const ServiceResponse warm =
      service.submit(request_for(target, workflow)).get();
  ASSERT_TRUE(warm.result.found);
  EXPECT_GE(service.cache_stats().hits, 1u);
  EXPECT_EQ(warm.result.circuit.num_qubits(), device->num_qubits());
  EXPECT_TRUE(respects_coupling(warm.result.circuit, *device));
  EXPECT_EQ(warm.result.circuit, cold.result.circuit);
  verify_preparation_or_throw(warm.result.circuit, target);
}

TEST(SynthesisService, ConcurrentIdenticalRequestsDeduplicateInFlight) {
  SynthesisServiceOptions options;
  options.num_workers = 4;
  SynthesisService service(options);
  WorkflowOptions workflow;
  // Plenty of head room so waiting threads never time out and fall back
  // to private searches on a loaded machine.
  workflow.exact.astar.time_budget_seconds = 60.0;
  const QuantumState target = make_dicke(4, 2);
  constexpr int kRequests = 6;
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit(request_for(target, workflow)));
  }
  std::vector<ServiceResponse> responses;
  for (auto& future : futures) responses.push_back(future.get());
  for (const ServiceResponse& response : responses) {
    ASSERT_TRUE(response.result.found);
    EXPECT_EQ(response.result.circuit, responses.front().result.circuit);
    verify_preparation_or_throw(response.result.circuit, target);
  }
  const EquivalenceCacheStats stats = service.cache_stats();
  // One kernel search total: the first request owns the class, every
  // concurrent duplicate waits on the in-flight marker and then hits.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kRequests) - 1);
}

TEST(SynthesisService, SearchLevelParallelismComposesWithWorkerPool) {
  // Requests carrying WorkflowOptions::num_threads run their exact-tail
  // searches on that many shards inside a service worker; the beam's
  // thread-count determinism means the answers are bit-identical to a
  // one-thread request for the same state. Each request carries its own
  // cache so both really search.
  SynthesisServiceOptions service_options;
  service_options.num_workers = 2;
  SynthesisService service(service_options);

  WorkflowOptions serial;
  serial.exact_max_qubits = 5;
  serial.exact.astar.node_budget = 50;  // force the beam fallback
  serial.exact.beam.time_budget_seconds = 0.0;
  serial.exact.beam.beam_width = 256;
  serial.exact.beam.max_controls = -1;
  WorkflowOptions parallel = serial;
  parallel.num_threads = 4;
  serial.cache = std::make_shared<EquivalenceCache>();
  parallel.cache = std::make_shared<EquivalenceCache>();

  const QuantumState target = make_dicke(5, 1);
  std::vector<ServiceRequest> batch;
  batch.push_back(request_for(target, serial));
  batch.push_back(request_for(target, parallel));
  const std::vector<ServiceResponse> responses =
      service.run_batch(std::move(batch));
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].result.found);
  ASSERT_TRUE(responses[1].result.found);
  EXPECT_TRUE(responses[0].result.circuit == responses[1].result.circuit);
  // Both aborted their A* stage on the tiny node budget: the truncation
  // must surface through the service response.
  EXPECT_TRUE(responses[0].result.budget_exhausted);
  EXPECT_TRUE(responses[1].result.budget_exhausted);
  verify_preparation_or_throw(responses[1].result.circuit, target);
}

TEST(SynthesisService, RequestExceptionsPropagateThroughFutures) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  WorkflowOptions workflow;
  // Disconnected device: the Solver constructor rejects it.
  workflow.coupling = std::make_shared<const CouplingGraph>(
      CouplingGraph(4, {{0, 1}}));
  auto future = service.submit(request_for(make_ghz(4), workflow));
  EXPECT_THROW(future.get(), std::invalid_argument);
  // The service stays healthy afterwards.
  const ServiceResponse ok = service.submit(request_for(make_ghz(3))).get();
  EXPECT_TRUE(ok.result.found);
}

TEST(SynthesisService, TinyTermStateDoesNotAbortTheService) {
  // The request used to abort in m-flow and take every in-flight request
  // with it; now it prepares next to an ordinary one.
  const QuantumState tiny(
      8, {Term{0, 1e7}, Term{3, 1e7}, Term{200, 1e7}, Term{5, 1e-6}});
  WorkflowOptions workflow;
  workflow.time_budget_seconds = 0.0;
  workflow.exact.astar.time_budget_seconds = 0.0;
  workflow.exact.beam.time_budget_seconds = 0.0;
  workflow.exact.astar.node_budget = 1000;
  workflow.exact.beam.beam_width = 1;
  SynthesisServiceOptions options;
  options.num_workers = 2;
  SynthesisService service(options);
  auto tiny_future = service.submit(request_for(tiny, workflow));
  auto other_future = service.submit(request_for(make_w(4), workflow));
  const ServiceResponse r = tiny_future.get();
  ASSERT_TRUE(r.result.found);
  verify_preparation_or_throw(r.result.circuit, tiny);
  const ServiceResponse other = other_future.get();
  ASSERT_TRUE(other.result.found);
  verify_preparation_or_throw(other.result.circuit, make_w(4));
}

/// Delegates to an equivalence cache and tallies the A* probes (the
/// beam's probes are consult-only) and the searches that ran.
class AStarTally : public SearchCache {
 public:
  Lookup begin(const SlotState& target, const CanonicalWitness& witness,
               const CacheFingerprint& fp, double max_wait_seconds,
               bool consult_only) override {
    if (!consult_only) ++probes;
    return cache.begin(target, witness, fp, max_wait_seconds, consult_only);
  }
  void end(const SlotState& target, const CanonicalWitness& witness,
           const CacheFingerprint& fp,
           const SynthesisResult* result) override {
    if (result != nullptr) {
      exhausted += result->stats.budget_exhausted ? 1 : 0;
      nodes_generated += result->stats.nodes_generated;
    }
    cache.end(target, witness, fp, result);
  }

  EquivalenceCache cache;
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> exhausted{0};
  std::atomic<std::uint64_t> nodes_generated{0};
};

TEST(SynthesisService, ExhaustedAttemptsReplayBitIdentically) {
  // Work-bounded requests whose A* runs out of node budget: a second pass
  // through the same cache replays every such attempt from its record, so
  // it generates no A* node, and each response equals a run without a
  // cache gate for gate. (The dense path's attempts bounded by 0 end
  // before they probe the cache, so nothing is remembered for them.)
  const auto work_bounded = [](std::uint64_t nodes,
                               std::shared_ptr<const CouplingGraph> device) {
    WorkflowOptions o;
    o.time_budget_seconds = 0.0;
    o.exact.time_budget_seconds = 0.0;
    o.exact.astar.time_budget_seconds = 0.0;
    o.exact.beam.time_budget_seconds = 0.0;
    o.exact.astar.node_budget = nodes;
    o.exact.beam.beam_width = 1;
    o.coupling = std::move(device);
    return o;
  };
  const auto device =
      std::make_shared<const CouplingGraph>(CouplingGraph::heavy_hex(3));
  std::vector<ServiceRequest> corpus;
  for (const QuantumState& dicke : {make_dicke(5, 2), make_dicke(6, 3)}) {
    corpus.push_back(request_for(dicke, work_bounded(20'000, device)));
  }
  Rng rng(5);
  for (int n = 5; n <= 7; ++n) {
    corpus.push_back(request_for(make_random_uniform(n, 1 << (n - 1), rng),
                                 work_bounded(1000, nullptr)));
  }

  std::vector<WorkflowResult> reference;
  for (const ServiceRequest& request : corpus) {
    reference.push_back(Solver(request.options).prepare(request.state));
  }
  auto tally = std::make_shared<AStarTally>();
  std::vector<ServiceRequest> batch = corpus;
  for (ServiceRequest& request : batch) request.options.cache = tally;
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);

  service.run_batch(batch);  // cold: searches and records
  const EquivalenceCacheStats cold = tally->cache.stats();
  const std::uint64_t cold_probes = tally->probes.load();
  const std::uint64_t exhausted = tally->exhausted.load();
  const std::uint64_t cold_nodes = tally->nodes_generated.load();
  EXPECT_GE(exhausted, corpus.size());
  EXPECT_EQ(cold.negative_hits, 0u);

  const std::vector<ServiceResponse> warm = service.run_batch(batch);
  const EquivalenceCacheStats stats = tally->cache.stats();
  EXPECT_EQ(tally->probes.load() - cold_probes, cold_probes);
  EXPECT_EQ(stats.negative_hits, exhausted);
  EXPECT_EQ(tally->exhausted.load(), exhausted);
  EXPECT_EQ(tally->nodes_generated.load(), cold_nodes);
  EXPECT_EQ(stats.insertions, cold.insertions);
  ASSERT_EQ(warm.size(), reference.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const WorkflowResult& got = warm[i].result;
    ASSERT_TRUE(got.found) << i;
    EXPECT_EQ(got.circuit, reference[i].circuit) << i;
    EXPECT_EQ(got.used_exact_tail, reference[i].used_exact_tail) << i;
    EXPECT_EQ(got.budget_exhausted, reference[i].budget_exhausted) << i;
    verify_preparation_or_throw(got.circuit, corpus[i].state);
  }
}

TEST(SynthesisService, PerRequestCacheOverrideWins) {
  // A request carrying its own cache must not touch the service cache.
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  WorkflowOptions workflow;
  workflow.cache = std::make_shared<EquivalenceCache>();
  const ServiceResponse r =
      service.submit(request_for(make_dicke(4, 2), workflow)).get();
  ASSERT_TRUE(r.result.found);
  EXPECT_EQ(service.cache_stats().lookups, 0u);
  EXPECT_GE(
      std::static_pointer_cast<EquivalenceCache>(workflow.cache)->stats()
          .lookups,
      1u);
}

}  // namespace
}  // namespace qsp
