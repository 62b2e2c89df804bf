#pragma once
// The benchmark's run machinery: set-up, the two closed loops, the output
// checks and the end-to-end summary. main.cpp drives one run with it; the
// self-tests run it on small request counts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "service/synthesis_service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Context {
  Workload workload = Workload::kSparse;
  WorkloadSpec spec;
  WorkloadInputs inputs;
  std::vector<std::uint64_t> request_digests;
  bool service = false;
};

/// Inputs for `seed` plus the per-request digests the checks key on.
Context make_context(Workload workload, std::uint64_t seed);

/// What one set-up builds: the device, the options, and the solver
/// (one-shot workloads) or the warm service (service_mix).
struct Setup {
  std::shared_ptr<const qsp::CouplingGraph> device;
  qsp::WorkflowOptions all_to_all;
  qsp::WorkflowOptions on_device;
  std::unique_ptr<qsp::Solver> solver;
  std::unique_ptr<qsp::SynthesisService> service;
  double seconds = 0.0;

  const qsp::WorkflowOptions& options_for(const Request& r) const {
    return r.on_device ? on_device : all_to_all;
  }
};

/// One timed set-up: the library's lazy statics, solver, service and
/// device construction and, on service_mix, the cache warm fill. Throws
/// when a warm-fill request fails.
Setup set_up(const Context& ctx);

/// One checked output per distinct (request state, device, circuit).
struct StoredOutput {
  std::size_t index = 0;
  std::shared_ptr<const qsp::Circuit> circuit;
  bool ok = false;
  std::int64_t cnots = 0;
  std::string error;
};

using OutputStore = std::unordered_map<std::uint64_t, StoredOutput>;

struct Completed {
  std::uint64_t seq = 0;
  std::size_t index = 0;
  double latency_s = 0.0;
  double ready_s = 0.0;
  /// Threw, returned found == false, or timed out.
  bool failed = false;
  std::uint64_t output_key = 0;
  bool used_exact_tail = false;
  bool budget_exhausted = false;
  bool sparse_path = false;
};

struct Phase {
  /// In completion order.
  std::vector<Completed> completed;
  std::vector<TracedRequest> traced;
  double start_s = 0.0;
  double wall_s = 0.0;
  /// Peak resident memory when spec.min_requests requests had completed.
  double peak_rss_mb = 0.0;
  qsp::EquivalenceCacheStats cache_before;
  qsp::EquivalenceCacheStats cache_after;
};

/// The timed closed loop: requests in list order (cycled) until `seconds`
/// have passed and at least spec.min_requests completed. One-shot
/// workloads run one client calling Solver::prepare; service_mix runs one
/// generator thread keeping kServiceOutstanding requests in flight.
/// `traced` attaches a RequestRecorder to every request.
Phase run_phase(const Context& ctx, const Setup& setup, double seconds,
                bool traced, OutputStore& store);

/// verify_preparation on every stored output, plus the device register
/// width and coupling conformance on device requests; CNOTs counted the
/// way run_method counts "ours". Spread over a few threads.
void check_outputs(const Context& ctx, const Setup& setup, OutputStore& store);

/// Baseline CNOTs for the same state: m-flow on the sparse path, n-flow on
/// the dense path (Table V), routed first on device requests.
class Baselines {
 public:
  Baselines(const Context& ctx, const Setup& setup)
      : ctx_(ctx), setup_(setup) {}
  double cnots(std::size_t index, bool sparse_path);

 private:
  const Context& ctx_;
  const Setup& setup_;
  std::unordered_map<std::size_t, double> memo_;
};

struct EndToEnd {
  /// latency_p50_ms, latency_tail_ms and throughput_rps: best_call_summary
  /// on the one-shot workloads, window_summary on service_mix.
  LatencySummary latency;
  /// Requests completed per second over the whole phase.
  double phase_rps = 0.0;
  double cnot_ratio = 0.0;
  double ok_share = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t digest_requests = 0;
  std::uint64_t outputs_digest = 0;
};

/// End-to-end numbers of a checked phase. The outputs digest and
/// cnot_ratio cover the first spec.min_requests requests.
EndToEnd summarize(const Context& ctx, const Phase& phase,
                   const OutputStore& store, Baselines& baselines);

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, double setup_s);

/// Inputs of per_layer_metrics for a traced phase.
LayerInputs layer_inputs(const Context& ctx, const Setup& setup,
                         const Phase& traced);

}  // namespace perfbench
