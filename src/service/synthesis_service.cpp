#include "service/synthesis_service.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuit/dataflow.hpp"
#include "sim/statevector.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Front-door lint policy: structural rules plus the real-amplitude gate
/// mask. Target/coupling conformance is deliberately not checked here —
/// request QASM describes the state to prepare, not the circuit the
/// workflow will emit for it.
LintOptions request_lint_options() {
  LintOptions options;
  options.allowed_kinds =
      lint_kind_bit(GateKind::kX) | lint_kind_bit(GateKind::kRy) |
      lint_kind_bit(GateKind::kCNOT) | lint_kind_bit(GateKind::kCZ);
  return options;
}

}  // namespace

SynthesisService::SynthesisService(SynthesisServiceOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<EquivalenceCache>(options_.cache)) {
  int workers = options_.num_workers;
  if (workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SynthesisService::~SynthesisService() {
  std::deque<Job> orphans;
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
    orphans.swap(queue_);
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  for (Job& job : orphans) {
    job.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("SynthesisService: shut down before request ran")));
  }
}

std::future<ServiceResponse> SynthesisService::submit(ServiceRequest request) {
  Job job;
  job.request = std::move(request);
  return enqueue(std::move(job));
}

std::future<ServiceResponse> SynthesisService::enqueue(Job job) {
  std::future<ServiceResponse> future = job.promise.get_future();
  {
    const MutexLock lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("SynthesisService: submit after shutdown");
    }
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return future;
}

std::vector<ServiceResponse> SynthesisService::run_batch(
    std::vector<ServiceRequest> batch) {
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(batch.size());
  for (ServiceRequest& request : batch) {
    futures.push_back(submit(std::move(request)));
  }
  std::vector<ServiceResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

LintReport SynthesisService::lint_request(const std::string& qasm) const {
  return lint_qasm(qasm, request_lint_options());
}

std::future<ServiceResponse> SynthesisService::submit_qasm(
    const std::string& qasm, WorkflowOptions options) {
  std::optional<Circuit> parsed;
  LintReport report = lint_qasm(qasm, request_lint_options(), &parsed);
  if (report.has_errors()) {
    // Structured rejection: callers read the rule codes off the report
    // (what() renders the same diagnostics for legacy catch sites).
    throw ServiceLintError(std::move(report));
  }
  const Circuit& circuit = *parsed;
  if (options_.max_qasm_qubits > 0 &&
      circuit.num_qubits() > options_.max_qasm_qubits) {
    std::ostringstream os;
    os << "SynthesisService: QASM request spans " << circuit.num_qubits()
       << " qubits; the service accepts at most " << options_.max_qasm_qubits;
    throw std::invalid_argument(os.str());
  }
  Statevector sv(circuit.num_qubits());
  sv.apply(circuit);
  Job job;
  job.request.state =
      QuantumState::from_dense(circuit.num_qubits(), sv.amplitudes());
  job.request.options = std::move(options);
  // Accepted with warnings: carry them into the response's structured
  // diagnostics so callers see the front-door findings alongside the
  // result's own dataflow analysis.
  job.request_lint = std::move(report);
  return enqueue(std::move(job));
}

void SynthesisService::worker_loop() {
  for (;;) {
    Job job;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop: a predicate lambda would read the guarded
      // fields outside annotated scope (see thread_annotations.hpp).
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping, queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      WorkflowOptions options = job.request.options;
      if (options.cache == nullptr) options.cache = cache_;
      const Timer timer;
      const Solver solver(options);
      ServiceResponse response;
      response.result = solver.prepare(job.request.state);
      response.seconds = timer.seconds();
      response.diagnostics = std::move(job.request_lint);
      if (response.result.found) {
        // Dataflow analysis of the produced circuit. QL014 stays off
        // here: the result's register contract is documented on
        // WorkflowResult, and the Solver already certifies routed
        // workspace wires statically before optimization.
        const LintReport dataflow =
            dataflow_lint(response.result.circuit, DataflowOptions{});
        for (const LintDiagnostic& d : dataflow.diagnostics) {
          response.diagnostics.diagnostics.push_back(d);
        }
      }
      served_.fetch_add(1, std::memory_order_relaxed);
      job.promise.set_value(std::move(response));
    } catch (...) {
      served_.fetch_add(1, std::memory_order_relaxed);
      job.promise.set_exception(std::current_exception());
    }
  }
}

}  // namespace qsp
