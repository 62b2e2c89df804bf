#pragma once
// Long-lived synthesis service: a worker pool over the Fig.-5 workflow
// with a shared cross-request equivalence cache. Repeated requests
// (GHZ/W/Dicke families, parameter sweeps, per-user variants) reduce to
// the same canonical exact-tail classes, so the exact kernel's work is
// paid once and served from cache thereafter; concurrent requests for the
// same class are deduplicated in flight inside the cache. Each request
// runs its own WorkflowOptions (coupling, target, -O level, thread counts
// and budgets); the service only injects its cache into a request that
// carries none. Request- and search-level parallelism compose: a request
// carrying WorkflowOptions::num_threads > 1 runs its exact-tail A* and
// beam searches on that many shards inside its worker, so a small batch
// of heavy requests can still saturate the machine.

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/lint.hpp"
#include "flow/solver.hpp"
#include "service/equivalence_cache.hpp"
#include "state/quantum_state.hpp"
#include "util/thread_annotations.hpp"

namespace qsp {

struct SynthesisServiceOptions {
  /// Worker threads serving requests (0 = all hardware threads).
  int num_workers = 0;
  /// Configuration of the shared equivalence cache, which every request
  /// whose WorkflowOptions carries no cache of its own uses.
  EquivalenceCacheOptions cache;
  /// QASM front door (submit_qasm): reject programs wider than this
  /// before any amplitude work (the dense simulation behind a request is
  /// 8 * 2^n bytes). 0 = unlimited.
  int max_qasm_qubits = 20;
};

struct ServiceRequest {
  QuantumState state{1};
  WorkflowOptions options{};
};

struct ServiceResponse {
  WorkflowResult result;
  /// Wall-clock seconds the request spent inside its worker.
  double seconds = 0.0;
  /// Structured lint + dataflow diagnostics for the request: the QASM
  /// front door's request-lint warnings (errors reject before enqueue)
  /// followed by the dataflow analysis of the produced circuit (QL014
  /// off — the output sits on the register the result documents). Callers
  /// report rule codes to users instead of re-deriving them from strings.
  LintReport diagnostics;
};

/// Thrown by submit_qasm when the front-door lint rejects a request; the
/// structured report carries the rule codes. Derives from
/// std::invalid_argument (what() is the rendered report) so callers that
/// only catch the legacy type keep working.
class ServiceLintError : public std::invalid_argument {
 public:
  explicit ServiceLintError(LintReport report)
      : std::invalid_argument(report.to_string()), report_(std::move(report)) {}
  const LintReport& report() const { return report_; }

 private:
  LintReport report_;
};

class SynthesisService {
 public:
  explicit SynthesisService(SynthesisServiceOptions options = {});
  /// Drains the queue (pending jobs fail with an exception) and joins.
  ~SynthesisService();

  SynthesisService(const SynthesisService&) = delete;
  SynthesisService& operator=(const SynthesisService&) = delete;

  /// Enqueue one request; the future carries the response or the
  /// exception the workflow threw (e.g. an invalid device).
  std::future<ServiceResponse> submit(ServiceRequest request);

  /// Convenience: submit a whole batch and wait for every response, in
  /// order. Rethrows the first failed request's exception.
  std::vector<ServiceResponse> run_batch(std::vector<ServiceRequest> batch);

  /// Lint QASM text against the service's front-door policy: every
  /// structural rule plus the real-amplitude gate-set mask {x, ry, cx,
  /// cz} (z-axis and iSWAP gates make the prepared state complex, which
  /// the real-amplitude request type cannot carry). Pure query — nothing
  /// is enqueued; submit_qasm applies exactly this policy.
  LintReport lint_request(const std::string& qasm) const;

  /// QASM front door: lint the program (any error-severity diagnostic
  /// rejects with std::invalid_argument carrying the report, before any
  /// search spends budget), simulate the accepted circuit from |0...0>,
  /// and submit the prepared state as an ordinary request.
  std::future<ServiceResponse> submit_qasm(const std::string& qasm,
                                           WorkflowOptions options = {});

  const std::shared_ptr<EquivalenceCache>& cache() const { return cache_; }
  EquivalenceCacheStats cache_stats() const { return cache_->stats(); }
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Job {
    ServiceRequest request;
    std::promise<ServiceResponse> promise;
    /// Warning-severity diagnostics from the request's front-door lint
    /// (QASM requests); prepended to the response's diagnostics.
    LintReport request_lint;
  };

  std::future<ServiceResponse> enqueue(Job job);
  void worker_loop();

  SynthesisServiceOptions options_;
  std::shared_ptr<EquivalenceCache> cache_;

  Mutex mutex_;
  CondVar cv_;
  std::deque<Job> queue_ QSP_GUARDED_BY(mutex_);
  bool stopping_ QSP_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace qsp
