// Self-tests of the benchmark itself (not of the library): the generator
// is pure and its first-seen classes are new, the tail rule keeps ten
// samples beyond its percentile, the latency summaries keep the quick
// mode of an alternating host, derived queue wait is never negative, a
// traced run emits every per-layer metric, non-zero wherever the workload
// runs its layer, and tracing leaves every output unchanged.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "circuit/dataflow.hpp"
#include "core/canonical.hpp"
#include "core/slot_state.hpp"
#include "runner.hpp"

namespace perfbench {
namespace {

constexpr Workload kWorkloads[] = {Workload::kSparse, Workload::kDense,
                                   Workload::kServiceMix};

TEST(Generator, SameSeedGivesTheSameRequestList) {
  for (Workload w : kWorkloads) {
    const WorkloadInputs a = generate_inputs(w, 7);
    const WorkloadInputs b = generate_inputs(w, 7);
    const WorkloadInputs c = generate_inputs(w, 8);
    EXPECT_EQ(request_list_digest(a.requests), request_list_digest(b.requests))
        << workload_name(w);
    EXPECT_EQ(request_list_digest(a.setup), request_list_digest(b.setup))
        << workload_name(w);
    EXPECT_NE(request_list_digest(a.requests), request_list_digest(c.requests))
        << workload_name(w);
  }
}

TEST(Generator, FirstSeenClassesAreNewAndDistinct) {
  const WorkloadInputs inputs = generate_inputs(Workload::kServiceMix, 1);
  std::set<qsp::CanonicalKey> classes;
  std::size_t first_seen = 0;
  for (const Request& r : inputs.requests) {
    if (!r.first_seen) continue;
    ++first_seen;
    const auto slot = qsp::SlotState::from_state(r.state);
    ASSERT_TRUE(slot.has_value()) << r.label;
    // Slot totals outside those of the warm fill (at most 6) and of the
    // dense classes (10, 20).
    EXPECT_GE(slot->total(), 7u) << r.label;
    EXPECT_NE(slot->total(), 10u) << r.label;
    EXPECT_TRUE(
        classes.insert(qsp::canonical_key(*slot, qsp::CanonicalLevel::kPU2Exact))
            .second)
        << r.label;
  }
  EXPECT_EQ(first_seen, inputs.requests.size() * 3 / 200);
  for (const Request& r : inputs.setup) EXPECT_FALSE(r.first_seen);
  EXPECT_TRUE(generate_inputs(Workload::kSparse, 1).setup.empty());
  EXPECT_TRUE(generate_inputs(Workload::kDense, 1).setup.empty());
}

TEST(TailRule, KeepsTenSamplesBeyondThePercentile) {
  for (std::size_t n = 1; n <= 2500; ++n) {
    std::vector<double> samples(n);
    std::iota(samples.begin(), samples.end(), 1.0);
    for (double cap : {99.0, 90.0}) {
      const double p = tail_percentile(n, cap);
      EXPECT_LE(p, cap);
      if (n >= (cap == 99.0 ? 1000u : 100u)) {
        EXPECT_EQ(p, cap) << n;
      }
      if (p == 50.0) continue;
      const double value = percentile(samples, p);
      const auto beyond = static_cast<std::size_t>(std::count_if(
          samples.begin(), samples.end(), [&](double s) { return s > value; }));
      EXPECT_GE(beyond, 10u) << "n=" << n << " p=" << p;
      EXPECT_EQ(beyond, samples_beyond(n, p));
    }
  }
  // Every workload keeps its fixed percentile valid over what its summary
  // ranks: the distinct requests of a one-shot list, or one service
  // window. The minimum run makes two passes or two windows.
  for (Workload w : kWorkloads) {
    const WorkloadSpec spec = workload_spec(w);
    const std::size_t ranked = spec.window_requests > 0
                                   ? spec.window_requests
                                   : generate_inputs(w, 1).requests.size();
    EXPECT_EQ(tail_percentile(ranked, spec.tail_percentile),
              spec.tail_percentile)
        << workload_name(w);
    EXPECT_EQ(spec.min_requests, 2 * ranked) << workload_name(w);
  }
}

TEST(Summary, KeepsTheQuickModeOfAHostThatAlternates) {
  // 200 requests, four passes; the host runs 1.5x slower in passes 1 and
  // 3, and for every fourth request of pass 0.
  std::vector<Call> calls;
  double clock_s = 0.0;
  for (std::size_t pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < 200; ++i) {
      const double quick_s = 1e-3 * static_cast<double>(1 + i);
      const bool slow = pass % 2 == 1 || (pass == 0 && i % 4 == 0);
      const double latency_s = slow ? 1.5 * quick_s : quick_s;
      clock_s += latency_s;
      calls.push_back(Call{i, latency_s, clock_s});
    }
  }
  const LatencySummary best = best_call_summary(calls, 99.0);
  EXPECT_EQ(best.samples, 200u);
  EXPECT_EQ(best.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(best.p50_ms, 100.0);
  EXPECT_DOUBLE_EQ(best.tail_ms, 180.0);
  EXPECT_DOUBLE_EQ(best.throughput_rps, 200.0 / (1e-3 * 200.0 * 201.0 / 2.0));

  // Windows of one pass each: the quickest of the four, pass 2, sets
  // every figure.
  const LatencySummary windows = window_summary(calls, 0.0, 200, 99.0);
  EXPECT_EQ(windows.windows, 4u);
  EXPECT_EQ(windows.samples, 200u);
  const LatencySummary quick_pass = window_summary(
      std::vector<Call>(calls.begin() + 400, calls.begin() + 600),
      calls[399].ready_s, 200, 99.0);
  EXPECT_DOUBLE_EQ(quick_pass.p50_ms, 100.0);
  EXPECT_DOUBLE_EQ(windows.p50_ms, quick_pass.p50_ms);
  EXPECT_DOUBLE_EQ(windows.tail_ms, quick_pass.tail_ms);
  EXPECT_NEAR(windows.throughput_rps, quick_pass.throughput_rps,
              1e-9 * quick_pass.throughput_rps);
  // A partial last window is dropped.
  calls.pop_back();
  EXPECT_EQ(window_summary(calls, 0.0, 200, 99.0).windows, 3u);
}

TEST(QueueWait, DerivedWaitIsNeverNegative) {
  EXPECT_EQ(derive_queue_wait(1.0, 0.2, 0.9, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(derive_queue_wait(2.0, 0.1, 0.5, 0.4), 1.0);

  // A burst into a one-worker service: every request after the first
  // waits behind the ones before it, and the derivation sees that.
  qsp::SynthesisServiceOptions options;
  options.num_workers = 1;
  qsp::SynthesisService service(options);
  const qsp::WorkflowOptions workflow =
      workflow_options(Workload::kSparse, nullptr);
  const WorkloadInputs inputs = generate_inputs(Workload::kSparse, 3);
  constexpr std::size_t kBurst = 8;
  std::vector<double> submitted;
  std::vector<std::future<qsp::ServiceResponse>> futures;
  for (std::size_t i = 0; i < kBurst; ++i) {
    submitted.push_back(now_s());
    futures.push_back(service.submit(
        qsp::ServiceRequest{inputs.requests[i].state, workflow}));
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    const qsp::ServiceResponse response = futures[i].get();
    const double ready = now_s();
    const double t0 = now_s();
    qsp::dataflow_lint(response.result.circuit, qsp::DataflowOptions{});
    const double lint = now_s() - t0;
    const double wait =
        derive_queue_wait(ready - submitted[i], 0.0, response.seconds, lint);
    EXPECT_GE(wait, 0.0);
    if (i > 0) {
      EXPECT_GT(wait, 0.0) << "request " << i;
    }
  }
}

struct LayerCase {
  Workload workload;
  std::size_t requests;
  std::vector<std::string> must_be_positive;
};

TEST(PerLayer, EveryMetricIsEmittedAndNonZeroWhereItsLayerRuns) {
  const std::vector<LayerCase> cases{
      {Workload::kSparse,
       26,
       {"flow.prepare_self_ms", "flow.sparse_path_share", "prep.mflow_ms",
        "prep.mflow_merges", "circuit.pipeline_ms", "circuit.lower_count_ms"}},
      {Workload::kDense,
       12,
       {"core.search_ms", "core.beam_ms", "core.expansions_per_s",
        "core.canonical_us", "core.moves_us", "core.heuristic_us",
        "core.canonical_share", "core.astar_searches", "core.nodes_expanded",
        "core.nodes_generated", "core.budget_exhausted_share",
        "core.beam_fallbacks", "core.arena_bytes_peak", "flow.prepare_self_ms",
        "flow.exact_attempts", "prep.mflow_ms", "prep.nflow_ms",
        "circuit.pipeline_ms", "circuit.lower_count_ms"}},
      // service.inflight_waits is left out: whether two requests of one
      // class overlap in flight depends on thread timing.
      {Workload::kServiceMix,
       300,
       {"core.search_ms", "core.beam_ms", "core.astar_searches",
        "core.nodes_generated", "core.optimal_share", "core.beam_fallbacks",
        "flow.prepare_self_ms", "flow.exact_attempts", "circuit.pipeline_ms",
        "circuit.dataflow_lint_ms", "arch.route_ms", "service.queue_wait_ms",
        "service.worker_busy_share", "service.cache_hit_rate",
        "service.rewired_hit_share", "service.cache_insertions",
        "service.cache_probe_us", "service.qasm_admit_ms",
        "service.cache_bytes"}},
  };
  const std::vector<Metric>& catalog = per_layer_metric_catalog();
  for (const LayerCase& c : cases) {
    Context ctx = make_context(c.workload, 1);
    ctx.spec.min_requests = c.requests;
    ctx.spec.replay_requests = 8;
    // perfbench::Setup: gtest's Test base declares a Setup() trap.
    const perfbench::Setup setup = set_up(ctx);
    OutputStore store;
    const Phase phase = run_phase(ctx, setup, 0.0, true, store);
    ASSERT_EQ(phase.traced.size(), c.requests);
    const std::vector<Metric> metrics =
        per_layer_metrics(layer_inputs(ctx, setup, phase));
    ASSERT_EQ(metrics.size(), catalog.size());
    std::map<std::string, double> values;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      EXPECT_EQ(metrics[i].name, catalog[i].name);
      EXPECT_EQ(metrics[i].unit, catalog[i].unit);
      EXPECT_GE(metrics[i].value, 0.0) << metrics[i].name;
      values[metrics[i].name] = metrics[i].value;
    }
    for (const std::string& name : c.must_be_positive) {
      EXPECT_GT(values.at(name), 0.0)
          << name << " on " << workload_name(c.workload);
    }
    if (c.workload == Workload::kServiceMix) {
      // Every first-seen request misses the warm cache, and some of them
      // certify and write it.
      const FirstSeenCounts fs =
          first_seen_counts(ctx.inputs.requests, phase.traced);
      EXPECT_GT(fs.requests, 0u);
      EXPECT_EQ(fs.misses, fs.requests);
      EXPECT_GT(fs.writes, 0u);
    }
  }
}

TEST(Trace, BeamRunByTheRecorderLeavesOutputsUnchanged) {
  // The traced loop answers beam probes itself; the outputs must be the
  // ones the untraced loop produces.
  Context ctx = make_context(Workload::kDense, 1);
  ctx.spec.min_requests = 12;
  const perfbench::Setup setup = set_up(ctx);
  OutputStore plain_store;
  OutputStore traced_store;
  const Phase plain = run_phase(ctx, setup, 0.0, false, plain_store);
  const Phase traced = run_phase(ctx, setup, 0.0, true, traced_store);
  ASSERT_EQ(plain.completed.size(), traced.completed.size());
  std::size_t beams = 0;
  for (std::size_t i = 0; i < plain.completed.size(); ++i) {
    EXPECT_EQ(plain.completed[i].output_key, traced.completed[i].output_key)
        << "request " << i;
  }
  for (const TracedRequest& t : traced.traced) {
    for (const SearchRecord& rec : t.recorder->searches()) {
      beams += rec.consult_only ? 1 : 0;
    }
  }
  EXPECT_GT(beams, 0u);
}

}  // namespace
}  // namespace perfbench
