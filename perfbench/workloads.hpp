#pragma once
// Workloads of the end-to-end benchmark: seeded request generation, the
// work-bounded WorkflowOptions each workload runs with, and the small
// statistics the benchmark reports (nearest-rank percentiles, the tail rule,
// geometric means, FNV-1a digests). Everything here is a pure function of
// its arguments: the same seed always yields the same request list.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "flow/solver.hpp"
#include "state/quantum_state.hpp"

namespace perfbench {

enum class Workload { kSparse, kDense, kServiceMix };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

struct Request {
  qsp::QuantumState state{1};
  /// Human-readable origin, e.g. "rand12_33", "dicke6_3", "w5+x".
  std::string label;
  /// Run on the heavy_hex(3) device instead of all-to-all (service_mix).
  bool on_device = false;
  /// Non-empty: sent through SynthesisService::submit_qasm as this
  /// OpenQASM program, which prepares `state`.
  std::string qasm;
  /// service_mix: a state whose cache class neither the warm fill nor an
  /// earlier request of the list touches, so its first send is a miss.
  bool first_seen = false;
};

struct WorkloadInputs {
  /// Set-up requests: the cache warm fill of service_mix. Empty on the
  /// one-shot workloads, whose set-up runs no request.
  std::vector<Request> setup;
  /// The timed request list, cycled in order until the run ends.
  std::vector<Request> requests;
};

/// Fixed per-workload run shape.
struct WorkloadSpec {
  /// Requests every run completes before it may stop, whatever the clock
  /// says: two passes over a one-shot request list, two windows of
  /// service_mix. The outputs digest and cnot_ratio cover exactly this
  /// prefix.
  std::size_t min_requests = 0;
  /// The latency_tail_ms percentile. Fixed per workload so the metric
  /// keeps its meaning when a faster program completes more requests;
  /// the request list (one-shot) or a window (service_mix) keeps ten
  /// samples beyond it.
  double tail_percentile = 99.0;
  /// service_mix: completions per window of window_summary. 0 on the
  /// one-shot workloads, which use best_call_summary.
  std::size_t window_requests = 0;
  /// Requests replayed for the per-layer prep/circuit/arch costs in a
  /// traced run (the first distinct requests of the traced phase).
  std::size_t replay_requests = 0;
};

WorkloadSpec workload_spec(Workload workload);

/// The workload's inputs for `seed`. The program never sees the seed.
WorkloadInputs generate_inputs(Workload workload, std::uint64_t seed);

/// The service_mix device: IBM-style heavy-hex lattice, distance 3
/// (18 qubits).
std::shared_ptr<const qsp::CouplingGraph> make_device();

/// Work-bounded options: every wall-clock budget is 0 (unlimited) and
/// search is bounded by the A* node budget and the beam width alone, so a
/// request's work and output are a fixed function of its input.
qsp::WorkflowOptions workflow_options(
    Workload workload, std::shared_ptr<const qsp::CouplingGraph> device);

/// Worker threads of the service_mix SynthesisService (nproc - 1 on the
/// 4-core reference host) and requests its generator keeps outstanding.
constexpr int kServiceWorkers = 3;
constexpr int kServiceOutstanding = 4;

/// FNV-1a, 64-bit.
struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ull;
  void add(std::uint64_t value);
  void add_double(double value);
};

std::uint64_t state_digest(const qsp::QuantumState& state);
std::uint64_t circuit_digest(const qsp::Circuit& circuit);
/// Digest of a whole request list (states, devices, QASM texts, order).
std::uint64_t request_list_digest(const std::vector<Request>& requests);

/// Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);
/// Samples strictly above the nearest-rank position of percentile p.
std::size_t samples_beyond(std::size_t n, double p);
/// The highest of {cap, 90, 50} (not above `cap`) that keeps at least ten
/// samples beyond it; 50 when even that fails.
double tail_percentile(std::size_t n, double cap);
double geometric_mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// The timed latency figures of one phase.
///
/// The reference host alternates between a quick and a slow speed mode
/// (about 1.5x apart) for seconds at a time, and the slow share drifts
/// over minutes, so whole-run figures follow the host more than the
/// program. Both summaries keep what the quick mode shows:
/// best_call_summary takes each request's quickest call over several
/// passes of a one-shot request list; window_summary cuts a service
/// phase into windows of equal completion counts and takes the quicker
/// quartile of the per-window figures.
struct LatencySummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  double throughput_rps = 0.0;
  /// Latencies behind each percentile: distinct requests, or one
  /// window's completions.
  std::size_t samples = 0;
  /// Windows summarized; 0 for best_call_summary.
  std::size_t windows = 0;
};

/// One call of a request: its index in the request list, its latency
/// and when it completed (seconds on the now_s() clock).
struct Call {
  std::size_t index = 0;
  double latency_s = 0.0;
  double ready_s = 0.0;
};

/// One client calling back to back: per request, its quickest call.
/// p50 and the tail percentile are over those latencies (capped at
/// `cap`, ten samples beyond), and throughput is the rate of a client
/// whose every call takes its request's quickest time.
LatencySummary best_call_summary(const std::vector<Call>& calls, double cap);

/// Calls in completion order from a phase that started at `start_s`, cut
/// into windows of `window` completions (a last partial window is
/// dropped). Per window: p50, the tail percentile (capped at `cap`, ten
/// samples beyond) and the time since the previous window ended.
/// Reported: the lower quartile of each latency over the windows, and
/// `window` completions over the lower quartile of the window times.
LatencySummary window_summary(const std::vector<Call>& calls, double start_s,
                              std::size_t window, double cap);

/// The workflow's exact-tail admission rule: the state has a slot
/// decomposition with cardinality and compressed entangled width within
/// the options' thresholds. A copy of the private `fits_thresholds` lambda
/// in Solver::prepare (src/flow/solver.cpp), which has no public
/// equivalent; the prep and arch replays of the traced run need it, and it
/// must change when that lambda does.
bool fits_exact_thresholds(const qsp::QuantumState& state,
                           const qsp::WorkflowOptions& options);

}  // namespace perfbench
