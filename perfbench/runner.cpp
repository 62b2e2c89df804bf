#include "runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "arch/routing.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"
#include "circuit/target.hpp"
#include "flow/methods.hpp"
#include "sim/verifier.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

// Keeps the set-up's registry lookups observable.
volatile std::size_t g_setup_sink = 0;

/// Peak resident set of this process, in MiB (Linux reports ru_maxrss
/// in KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Everything a finished request reports, from either loop.
struct Finished {
  std::uint64_t seq = 0;
  std::size_t index = 0;
  double submit_s = 0.0;
  double ready_s = 0.0;
  double solver_s = 0.0;
  double admit_s = 0.0;
  std::optional<qsp::WorkflowResult> result;  ///< empty: the call threw
  std::shared_ptr<RequestRecorder> recorder;
};

void record(const Context& ctx, Finished done, Phase& phase,
            OutputStore& store) {
  Completed c;
  c.seq = done.seq;
  c.index = done.index;
  c.latency_s = done.ready_s - done.submit_s;
  c.ready_s = done.ready_s;
  c.failed = !done.result.has_value() || !done.result->found ||
             done.result->timed_out;
  std::shared_ptr<const qsp::Circuit> output;
  if (!c.failed) {
    const qsp::WorkflowResult& r = *done.result;
    c.used_exact_tail = r.used_exact_tail;
    c.budget_exhausted = r.budget_exhausted;
    c.sparse_path = r.sparse_path;
    Fnv1a key;
    key.add(ctx.request_digests[done.index]);
    key.add(circuit_digest(r.circuit));
    c.output_key = key.hash;
    auto [it, inserted] = store.try_emplace(c.output_key);
    if (inserted) {
      it->second.index = done.index;
      it->second.circuit = std::make_shared<const qsp::Circuit>(r.circuit);
    }
    output = it->second.circuit;
  }
  if (done.recorder != nullptr) {
    done.recorder->close_open_spans(done.ready_s);
    TracedRequest t;
    t.seq = done.seq;
    t.index = done.index;
    t.submit_s = done.submit_s;
    t.ready_s = done.ready_s;
    t.solver_s = done.solver_s;
    t.admit_s = done.admit_s;
    t.found = !c.failed;
    t.sparse_path = c.sparse_path;
    t.used_exact_tail = c.used_exact_tail;
    if (!c.failed) {
      t.pipeline_iterations = done.result->passes.iterations;
      t.gates_removed = done.result->passes.gates_delta();
    }
    t.output = std::move(output);
    t.recorder = std::move(done.recorder);
    phase.traced.push_back(std::move(t));
  }
  phase.completed.push_back(c);
  // Peak memory once the fixed minimum-count prefix is done: later
  // requests only grow the benchmark's own records, so a faster program
  // that completes more of them does not read as a bigger one.
  if (phase.completed.size() == ctx.spec.min_requests) {
    phase.peak_rss_mb = peak_rss_mb();
  }
}

/// Closed loop, one client: Solver::prepare back to back.
Phase run_one_shot(const Context& ctx, const Setup& setup, double seconds,
                   bool traced, OutputStore& store) {
  Phase phase;
  const std::vector<Request>& requests = ctx.inputs.requests;
  const double start = now_s();
  phase.start_s = start;
  for (std::uint64_t seq = 0;; ++seq) {
    if (seq >= ctx.spec.min_requests && now_s() - start >= seconds) break;
    Finished done;
    done.seq = seq;
    done.index = static_cast<std::size_t>(seq % requests.size());
    const qsp::QuantumState& state = requests[done.index].state;
    std::optional<qsp::Solver> traced_solver;
    if (traced) {
      qsp::WorkflowOptions options = setup.all_to_all;
      done.recorder =
          std::make_shared<RequestRecorder>(nullptr, options.exact.beam);
      options.cache = done.recorder;
      traced_solver.emplace(options);
    }
    const qsp::Solver& solver = traced ? *traced_solver : *setup.solver;
    done.submit_s = now_s();
    try {
      done.result = solver.prepare(state);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request %llu (%s) threw: %s\n",
                   static_cast<unsigned long long>(seq),
                   requests[done.index].label.c_str(), e.what());
    }
    done.ready_s = now_s();
    done.solver_s = done.ready_s - done.submit_s;
    record(ctx, std::move(done), phase, store);
  }
  phase.wall_s = now_s() - start;
  return phase;
}

/// Closed loop, one generator thread keeping kServiceOutstanding
/// requests in flight against the service's workers. Completions are
/// detected by polling, so latency runs from submit to response ready.
/// The generator yields while requests are completing (a cache hit takes
/// about 0.1 ms) and parks once none has for kSpinSeconds, so it holds no
/// core while the workers run long searches; a parked generator sees a
/// completion at most kParkSeconds late.
constexpr double kSpinSeconds = 200e-6;
constexpr auto kParkSeconds = std::chrono::microseconds(100);

Phase run_service(const Context& ctx, const Setup& setup, double seconds,
                  bool traced, OutputStore& store) {
  Phase phase;
  qsp::SynthesisService& service = *setup.service;
  const std::vector<Request>& requests = ctx.inputs.requests;
  struct InFlight {
    std::future<qsp::ServiceResponse> future;
    Finished done;
  };
  std::vector<InFlight> inflight;
  const auto outstanding = static_cast<std::size_t>(kServiceOutstanding);
  phase.cache_before = service.cache_stats();
  const double start = now_s();
  phase.start_s = start;
  double last_event_s = start;
  std::uint64_t seq = 0;
  for (;;) {
    while (inflight.size() < outstanding &&
           (seq < ctx.spec.min_requests || now_s() - start < seconds)) {
      InFlight f;
      f.done.seq = seq;
      f.done.index = static_cast<std::size_t>(seq % requests.size());
      ++seq;
      const Request& r = requests[f.done.index];
      qsp::WorkflowOptions options = setup.options_for(r);
      if (traced) {
        f.done.recorder = std::make_shared<RequestRecorder>(
            service.cache(), options.exact.beam);
        options.cache = f.done.recorder;
      }
      f.done.submit_s = now_s();
      try {
        if (r.qasm.empty()) {
          f.future =
              service.submit(qsp::ServiceRequest{r.state, std::move(options)});
        } else {
          f.future = service.submit_qasm(r.qasm, std::move(options));
          f.done.admit_s = now_s() - f.done.submit_s;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %llu (%s) rejected: %s\n",
                     static_cast<unsigned long long>(f.done.seq),
                     r.label.c_str(), e.what());
        f.done.ready_s = now_s();
        record(ctx, std::move(f.done), phase, store);
        continue;
      }
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;
    bool any = false;
    for (std::size_t i = 0; i < inflight.size();) {
      if (inflight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      any = true;
      Finished done = std::move(inflight[i].done);
      done.ready_s = now_s();
      try {
        qsp::ServiceResponse response = inflight[i].future.get();
        done.solver_s = response.seconds;
        done.result = std::move(response.result);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %llu (%s) threw: %s\n",
                     static_cast<unsigned long long>(done.seq),
                     requests[done.index].label.c_str(), e.what());
      }
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      last_event_s = done.ready_s;
      record(ctx, std::move(done), phase, store);
    }
    if (any) continue;
    if (now_s() - last_event_s < kSpinSeconds) {
      std::this_thread::yield();
    } else {
      inflight.front().future.wait_for(kParkSeconds);
    }
  }
  phase.wall_s = now_s() - start;
  phase.cache_after = service.cache_stats();
  return phase;
}

}  // namespace

Context make_context(Workload workload, std::uint64_t seed) {
  Context ctx;
  ctx.workload = workload;
  ctx.spec = workload_spec(workload);
  ctx.service = workload == Workload::kServiceMix;
  ctx.inputs = generate_inputs(workload, seed);
  for (const Request& r : ctx.inputs.requests) {
    ctx.request_digests.push_back(state_digest(r.state));
  }
  return ctx;
}

Setup set_up(const Context& ctx) {
  Setup s;
  const double t0 = now_s();
  // The library's lazily built statics: the SIMD dispatch choice and the
  // pass and target registries. Every request needs them; set-up pays.
  g_setup_sink = g_setup_sink +
                 static_cast<std::size_t>(qsp::simd::active_isa()) +
                 qsp::PassPipeline::registry().size() +
                 qsp::lowering_pass_sequence().size() +
                 qsp::Target::builtin().size();
  s.all_to_all = workflow_options(ctx.workload, nullptr);
  if (ctx.service) {
    s.device = make_device();
    s.on_device = workflow_options(ctx.workload, s.device);
    qsp::SynthesisServiceOptions options;
    options.num_workers = kServiceWorkers;
    s.service = std::make_unique<qsp::SynthesisService>(options);
    std::vector<std::future<qsp::ServiceResponse>> warm;
    for (const Request& r : ctx.inputs.setup) {
      warm.push_back(
          s.service->submit(qsp::ServiceRequest{r.state, s.options_for(r)}));
    }
    for (auto& f : warm) {
      if (!f.get().result.found) {
        throw std::runtime_error("warm fill request failed");
      }
    }
  } else {
    s.solver = std::make_unique<qsp::Solver>(s.all_to_all);
  }
  s.seconds = now_s() - t0;
  return s;
}

Phase run_phase(const Context& ctx, const Setup& setup, double seconds,
                bool traced, OutputStore& store) {
  return ctx.service ? run_service(ctx, setup, seconds, traced, store)
                     : run_one_shot(ctx, setup, seconds, traced, store);
}

void check_outputs(const Context& ctx, const Setup& setup, OutputStore& store) {
  std::vector<StoredOutput*> pending;
  for (auto& [key, out] : store) pending.push_back(&out);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    qsp::LoweringOptions elide;
    elide.elide_zero_rotations = true;
    for (std::size_t i = next++; i < pending.size(); i = next++) {
      StoredOutput& out = *pending[i];
      const Request& r = ctx.inputs.requests[out.index];
      try {
        const qsp::VerificationResult v =
            qsp::verify_preparation(*out.circuit, r.state);
        out.ok = v.ok;
        if (!v.ok) out.error = v.message;
        if (out.ok && r.on_device &&
            (out.circuit->num_qubits() != setup.device->num_qubits() ||
             !qsp::respects_coupling(*out.circuit, *setup.device))) {
          out.ok = false;
          out.error = "not on the device register or off its coupling";
        }
        out.cnots = qsp::count_cnots_after_lowering(*out.circuit, elide);
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
      }
    }
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < std::min(4u, hw); ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  for (const auto& [key, out] : store) {
    if (!out.ok) {
      std::fprintf(stderr, "CHECK FAILED on request %zu (%s): %s\n", out.index,
                   ctx.inputs.requests[out.index].label.c_str(),
                   out.error.c_str());
    }
  }
}

double Baselines::cnots(std::size_t index, bool sparse_path) {
  const auto it = memo_.find(index);
  if (it != memo_.end()) return it->second;
  const Request& r = ctx_.inputs.requests[index];
  const qsp::MethodRun run = qsp::run_method(
      sparse_path ? qsp::Method::kMFlow : qsp::Method::kNFlow, r.state);
  double value = static_cast<double>(run.cnots);
  if (r.on_device) {
    value = static_cast<double>(qsp::lowered_cnot_count(
        qsp::route_circuit(run.circuit, *setup_.device)));
  }
  memo_.emplace(index, value);
  return value;
}

EndToEnd summarize(const Context& ctx, const Phase& phase,
                   const OutputStore& store, Baselines& baselines) {
  EndToEnd e;
  std::vector<Call> calls;
  for (const Completed& c : phase.completed) {
    calls.push_back(Call{c.index, c.latency_s, c.ready_s});
  }
  e.latency = ctx.service
                  ? window_summary(calls, phase.start_s,
                                   ctx.spec.window_requests,
                                   ctx.spec.tail_percentile)
                  : best_call_summary(calls, ctx.spec.tail_percentile);
  e.phase_rps = static_cast<double>(calls.size()) / phase.wall_s;
  e.peak_rss_mb = phase.peak_rss_mb;

  std::vector<const Completed*> by_seq;
  for (const Completed& c : phase.completed) by_seq.push_back(&c);
  std::sort(by_seq.begin(), by_seq.end(),
            [](const Completed* a, const Completed* b) {
              return a->seq < b->seq;
            });
  std::vector<double> ratios;
  Fnv1a digest;
  for (const Completed* c : by_seq) {
    const StoredOutput* out = c->failed ? nullptr : &store.at(c->output_key);
    const bool failed = out == nullptr || !out->ok;
    e.attempted += 1;
    e.failed += failed ? 1 : 0;
    if (c->seq >= ctx.spec.min_requests) continue;
    e.digest_requests += 1;
    if (failed) {
      digest.add(~std::uint64_t{0});
      continue;
    }
    digest.add(static_cast<std::uint64_t>(out->cnots));
    digest.add((c->used_exact_tail ? 1u : 0u) |
               (c->budget_exhausted ? 2u : 0u));
    const double base = baselines.cnots(c->index, c->sparse_path);
    if (base > 0.0 && out->cnots > 0) {
      ratios.push_back(static_cast<double>(out->cnots) / base);
    }
  }
  e.outputs_digest = digest.hash;
  e.cnot_ratio = geometric_mean(ratios);
  e.ok_share = 1.0 - static_cast<double>(e.failed) /
                         static_cast<double>(e.attempted);
  return e;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", e.latency.p50_ms, "ms"},
      {"latency_tail_ms", e.latency.tail_ms, "ms"},
      {"throughput_rps", e.latency.throughput_rps, "1/s"},
      {"cnot_ratio", e.cnot_ratio, "ratio"},
      {"ok_share", e.ok_share, "share"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
  };
}

LayerInputs layer_inputs(const Context& ctx, const Setup& setup,
                         const Phase& traced) {
  LayerInputs layers;
  layers.requests = &ctx.inputs.requests;
  layers.traced = &traced.traced;
  layers.all_to_all = setup.all_to_all;
  layers.on_device = setup.on_device;
  layers.device = setup.device;
  layers.replay_requests = ctx.spec.replay_requests;
  layers.service = ctx.service;
  layers.workers = kServiceWorkers;
  layers.phase_wall_s = traced.wall_s;
  layers.cache_before = traced.cache_before;
  layers.cache_after = traced.cache_after;
  return layers;
}

}  // namespace perfbench
