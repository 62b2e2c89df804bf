#pragma once
// The traced run: spans recorded from outside the library, and the
// per-layer metrics derived from them and from replays.
//
// A RequestRecorder is a SearchCache handed to one request through
// WorkflowOptions::cache. Every exact-tail search of that request probes
// it, so it sees each search begin and (for certifying searchers) end,
// with the search's SearchStats. On one-shot workloads it claims
// ownership and stores nothing, leaving the search path unchanged; on
// service_mix it delegates to the service's shared cache. The beam
// fallback only probes (consult-only) and never hands a claim back, so
// the recorder answers a consult-only miss by running that same
// deterministic descent itself (BeamSynthesizer with the request's beam
// options) and timing it; the caller gets the result it would have
// computed. Layers the recorder cannot see (prep, circuit, arch) are
// measured by replaying their public functions on the request's own
// inputs after the run.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/beam.hpp"
#include "core/search_cache.hpp"
#include "flow/solver.hpp"
#include "service/equivalence_cache.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// One exact-tail search as seen through the cache hook.
struct SearchRecord {
  /// Consult-only probes come from the beam fallback.
  bool consult_only = false;
  qsp::SearchCache::Claim claim = qsp::SearchCache::Claim::kIndependent;
  double probe_start_s = 0.0;
  double probe_end_s = 0.0;
  /// Beam: the descent the recorder ran, from beam_start_s to end_s.
  double beam_start_s = 0.0;
  /// A*: the end() hand-back. An A* that runs on an independent claim
  /// never hands back; its span ends at the request's next probe (the
  /// beam fallback that follows a failed search) or, failing that, at the
  /// request's end.
  double end_s = 0.0;
  bool ended = false;
  bool optimal = false;
  qsp::SearchStats stats;
  /// The searched state and canonical level of an A*, kept for the kernel
  /// replays.
  std::optional<qsp::SlotState> target;
  qsp::CanonicalLevel level = qsp::CanonicalLevel::kPU2Exact;
};

class RequestRecorder final : public qsp::SearchCache {
 public:
  /// `delegate` == nullptr: one-shot mode (claim ownership, store
  /// nothing). `beam`: the request's WorkflowOptions::exact.beam; the
  /// coupling of each descent comes from its probe's fingerprint.
  RequestRecorder(std::shared_ptr<qsp::SearchCache> delegate,
                  qsp::BeamOptions beam);

  Lookup begin(const qsp::SlotState& target,
               const qsp::CanonicalWitness& witness,
               const qsp::CacheFingerprint& fp, double max_wait_seconds,
               bool consult_only) override;
  void end(const qsp::SlotState& target, const qsp::CanonicalWitness& witness,
           const qsp::CacheFingerprint& fp,
           const qsp::SynthesisResult* result) override;

  /// End every still-open A* span (one whose claim was never handed back)
  /// at `at_s`. begin() calls it for the next probe; the caller calls it
  /// once more at the request's end.
  void close_open_spans(double at_s);

  const std::vector<SearchRecord>& searches() const { return searches_; }

 private:
  std::shared_ptr<qsp::SearchCache> delegate_;
  qsp::BeamOptions beam_;
  // One request runs on one thread at a time, so no locking: the
  // request's future hands the records to the reader.
  std::vector<SearchRecord> searches_;
};

/// Everything the traced phase recorded about one completed request.
struct TracedRequest {
  std::uint64_t seq = 0;
  std::size_t index = 0;
  double submit_s = 0.0;
  double ready_s = 0.0;
  /// Time inside Solver::prepare: the latency on one-shot workloads,
  /// ServiceResponse::seconds on service_mix.
  double solver_s = 0.0;
  /// SynthesisService::submit_qasm call (lint, simulate, enqueue); 0 for
  /// plain submits.
  double admit_s = 0.0;
  bool found = false;
  bool sparse_path = false;
  bool used_exact_tail = false;
  int pipeline_iterations = 0;
  std::int64_t gates_removed = 0;
  std::shared_ptr<const qsp::Circuit> output;
  std::shared_ptr<RequestRecorder> recorder;
};

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  /// Index of the parent span in the same output vector; -1 for roots.
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Root span ("request") plus one child per probe and search.
void append_spans(const TracedRequest& traced, std::vector<Span>& out);
/// Write spans as a JSON array; false when the file cannot be written.
bool write_spans_json(const std::string& path, const std::vector<Span>& spans);

/// Queue wait of a service request, derived from outside: the latency
/// minus QASM admission, minus the time inside Solver::prepare, minus the
/// worker's per-response dataflow lint (replayed). Never negative.
double derive_queue_wait(double latency_s, double admit_s, double solver_s,
                         double lint_s);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Names and units of every per-layer metric, in report order.
const std::vector<Metric>& per_layer_metric_catalog();

struct LayerInputs {
  const std::vector<Request>* requests = nullptr;
  const std::vector<TracedRequest>* traced = nullptr;
  qsp::WorkflowOptions all_to_all;
  qsp::WorkflowOptions on_device;
  std::shared_ptr<const qsp::CouplingGraph> device;
  std::size_t replay_requests = 0;
  // service_mix only
  bool service = false;
  int workers = 0;
  double phase_wall_s = 0.0;
  qsp::EquivalenceCacheStats cache_before;
  qsp::EquivalenceCacheStats cache_after;
};

/// Every metric of per_layer_metric_catalog(), from the traced requests
/// plus replays; 0 where the workload does not run the layer.
std::vector<Metric> per_layer_metrics(const LayerInputs& inputs);

/// How the first-seen requests of a traced service_mix phase met the
/// shared cache: requests sent, requests whose exact-tail search found no
/// entry (an owner or independent claim instead of a hit), and requests
/// whose owned search certified, which the cache stores; plus the cache
/// writes of all other requests.
struct FirstSeenCounts {
  std::size_t requests = 0;
  std::size_t misses = 0;
  std::size_t writes = 0;
  std::size_t other_writes = 0;
};
FirstSeenCounts first_seen_counts(const std::vector<Request>& requests,
                                  const std::vector<TracedRequest>& traced);

}  // namespace perfbench
