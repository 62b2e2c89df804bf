#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "arch/routing.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"
#include "core/beam.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "core/search_core.hpp"
#include "prep/mflow.hpp"
#include "prep/nflow.hpp"

namespace perfbench {

using Claim = qsp::SearchCache::Claim;

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

namespace {

/// The coupling graph a search runs against, rebuilt from the tail of its
/// cache fingerprint: "none" for all-to-all, else the graph's
/// CouplingGraph::fingerprint() ("n<qubits>:" and then "<a>-<b>;" per
/// edge), which names the graph's routed-cost surface exactly.
std::shared_ptr<const qsp::CouplingGraph> fingerprint_coupling(
    const std::string& id) {
  const std::string graph = id.substr(id.rfind('|') + 1);
  if (graph == "none") return nullptr;
  const auto fail = [&] {
    return std::runtime_error("unrecognized cache fingerprint: " + id);
  };
  std::istringstream in(graph);
  char n = 0, colon = 0;
  int qubits = 0;
  if (!(in >> n >> qubits >> colon) || n != 'n' || colon != ':') throw fail();
  std::vector<std::pair<int, int>> edges;
  int a = 0, b = 0;
  char dash = 0, semicolon = 0;
  while (in >> a >> dash >> b >> semicolon) {
    if (dash != '-' || semicolon != ';') throw fail();
    edges.emplace_back(a, b);
  }
  if (!in.eof()) throw fail();
  return std::make_shared<const qsp::CouplingGraph>(qubits, std::move(edges));
}

}  // namespace

RequestRecorder::RequestRecorder(std::shared_ptr<qsp::SearchCache> delegate,
                                 qsp::BeamOptions beam)
    : delegate_(std::move(delegate)), beam_(std::move(beam)) {
  beam_.cache = nullptr;
}

void RequestRecorder::close_open_spans(double at_s) {
  for (SearchRecord& rec : searches_) {
    if (rec.claim != Claim::kHit && !rec.ended && rec.end_s == 0.0) {
      rec.end_s = at_s;
    }
  }
}

qsp::SearchCache::Lookup RequestRecorder::begin(
    const qsp::SlotState& target, const qsp::CanonicalWitness& witness,
    const qsp::CacheFingerprint& fp, double max_wait_seconds,
    bool consult_only) {
  SearchRecord rec;
  rec.probe_start_s = now_s();
  close_open_spans(rec.probe_start_s);
  Lookup lookup;
  if (delegate_ != nullptr) {
    lookup = delegate_->begin(target, witness, fp, max_wait_seconds,
                              consult_only);
  } else {
    lookup.claim = consult_only ? Claim::kIndependent : Claim::kOwner;
  }
  rec.probe_end_s = now_s();
  rec.consult_only = consult_only;
  rec.claim = lookup.claim;
  rec.level = fp.level;
  if (lookup.claim == Claim::kHit) {
    rec.end_s = rec.probe_end_s;
    rec.ended = true;
  } else if (consult_only) {
    // The beam fallback: run the descent the caller is about to run and
    // hand it back as the probe's answer. The beam is deterministic, so
    // the caller returns the same result it would have computed, and
    // its time is measured where it is spent.
    qsp::BeamOptions options = beam_;
    options.coupling = fingerprint_coupling(fp.id);
    const qsp::BeamSynthesizer beam(options);
    rec.beam_start_s = now_s();
    lookup.result = beam.synthesize(target);
    rec.end_s = now_s();
    rec.ended = true;
    lookup.claim = Claim::kHit;
  } else {
    rec.target = target;
  }
  searches_.push_back(std::move(rec));
  return lookup;
}

void RequestRecorder::end(const qsp::SlotState& target,
                          const qsp::CanonicalWitness& witness,
                          const qsp::CacheFingerprint& fp,
                          const qsp::SynthesisResult* result) {
  const double at = now_s();
  for (auto it = searches_.rbegin(); it != searches_.rend(); ++it) {
    if (it->consult_only || it->claim != Claim::kOwner || it->ended) continue;
    it->end_s = at;
    it->ended = true;
    if (result != nullptr) {
      it->optimal = result->optimal;
      it->stats = result->stats;
    }
    break;
  }
  if (delegate_ != nullptr) delegate_->end(target, witness, fp, result);
}

void append_spans(const TracedRequest& traced, std::vector<Span>& out) {
  const auto root = static_cast<std::int64_t>(out.size());
  out.push_back({"request", traced.submit_s, traced.ready_s, -1, traced.seq});
  if (traced.admit_s > 0.0) {
    out.push_back({"service.qasm_admit", traced.submit_s,
                   traced.submit_s + traced.admit_s, root, traced.seq});
  }
  if (traced.recorder == nullptr) return;
  for (const SearchRecord& rec : traced.recorder->searches()) {
    out.push_back({rec.claim == Claim::kHit ? "cache.hit" : "cache.probe",
                   rec.probe_start_s, rec.probe_end_s, root, traced.seq});
    if (rec.claim == Claim::kHit) continue;
    out.push_back({rec.consult_only ? "exact.beam" : "exact.astar",
                   rec.consult_only ? rec.beam_start_s : rec.probe_end_s,
                   rec.end_s, root, traced.seq});
  }
}

bool write_spans_json(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("[\n", file);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%lld,\"request\":%llu}%s\n",
                 s.name, s.start_s, s.end_s, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

double derive_queue_wait(double latency_s, double admit_s, double solver_s,
                         double lint_s) {
  return std::max(0.0, latency_s - admit_s - solver_s - lint_s);
}

const std::vector<Metric>& per_layer_metric_catalog() {
  static const std::vector<Metric> catalog{
      {"core.search_ms", 0, "ms"},
      {"core.beam_ms", 0, "ms"},
      {"core.expansions_per_s", 0, "1/s"},
      {"core.canonical_us", 0, "us"},
      {"core.moves_us", 0, "us"},
      {"core.heuristic_us", 0, "us"},
      {"core.canonical_share", 0, "share"},
      {"core.astar_searches", 0, "count"},
      {"core.nodes_expanded", 0, "count"},
      {"core.nodes_generated", 0, "count"},
      {"core.budget_exhausted_share", 0, "share"},
      {"core.optimal_share", 0, "share"},
      {"core.beam_fallbacks", 0, "count"},
      {"core.arena_bytes_peak", 0, "bytes"},
      {"flow.prepare_self_ms", 0, "ms"},
      {"flow.exact_attempts", 0, "count"},
      {"flow.attempt_used_share", 0, "share"},
      {"flow.sparse_path_share", 0, "share"},
      {"prep.mflow_ms", 0, "ms"},
      {"prep.mflow_merges", 0, "count"},
      {"prep.nflow_ms", 0, "ms"},
      {"circuit.pipeline_ms", 0, "ms"},
      {"circuit.pipeline_iterations", 0, "count"},
      {"circuit.gates_removed", 0, "count"},
      {"circuit.lower_count_ms", 0, "ms"},
      {"circuit.dataflow_lint_ms", 0, "ms"},
      {"arch.route_ms", 0, "ms"},
      {"arch.routed_cnot_overhead", 0, "count"},
      {"service.queue_wait_ms", 0, "ms"},
      {"service.worker_busy_share", 0, "share"},
      {"service.cache_hit_rate", 0, "share"},
      {"service.rewired_hit_share", 0, "share"},
      {"service.inflight_waits", 0, "count"},
      {"service.cache_insertions", 0, "count"},
      {"service.cache_probe_us", 0, "us"},
      {"service.qasm_admit_ms", 0, "ms"},
      {"service.cache_bytes", 0, "bytes"},
  };
  return catalog;
}

namespace {

// Keeps replayed results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean seconds per call of `fn`, over `reps` back-to-back calls.
template <typename Fn>
double time_per_call(int reps, Fn&& fn) {
  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) fn();
  return (now_s() - t0) / reps;
}

struct KernelCosts {
  double canonical_s = 0.0;
  double moves_s = 0.0;
  double heuristic_s = 0.0;
};

/// Per-call costs of the search kernels on captured exact-tail roots.
KernelCosts replay_kernels(const std::vector<const SearchRecord*>& targets,
                           const qsp::WorkflowOptions& options) {
  KernelCosts costs;
  constexpr std::size_t kMaxTargets = 64;
  constexpr int kReps = 16;
  if (targets.empty()) return costs;
  const std::size_t step =
      std::max<std::size_t>(1, targets.size() / kMaxTargets);
  std::size_t used = 0;
  for (std::size_t i = 0; i < targets.size() && used < kMaxTargets; i += step) {
    const SearchRecord& rec = *targets[i];
    const qsp::SlotState& state = *rec.target;
    costs.canonical_s += time_per_call(kReps, [&] {
      g_sink = g_sink + qsp::canonical_key(state, rec.level).size();
    });
    costs.heuristic_s += time_per_call(kReps, [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(qsp::heuristic_lower_bound(
                            state, options.exact.astar.heuristic));
    });
    const qsp::MoveGenOptions move_options = qsp::search_move_gen_options(
        options.exact.astar.max_controls,
        options.exact.astar.full_candidate_cap, nullptr, rec.level);
    costs.moves_s += time_per_call(kReps / 4, [&] {
      for (const qsp::Move& mv : qsp::enumerate_moves(state, move_options)) {
        g_sink = g_sink + qsp::apply_move(state, mv).cardinality();
      }
    });
    ++used;
  }
  costs.canonical_s /= static_cast<double>(used);
  costs.moves_s /= static_cast<double>(used);
  costs.heuristic_s /= static_cast<double>(used);
  return costs;
}

/// The sparse path's cardinality reduction, stopped by the workflow's
/// exact-tail admission rule.
qsp::MFlowReduction reduce_to_thresholds(const qsp::QuantumState& state,
                                         const qsp::WorkflowOptions& options) {
  return qsp::mflow_reduce(
      state,
      [&](const qsp::QuantumState& s) {
        return fits_exact_thresholds(s, options);
      },
      options.mflow);
}

/// The circuit Solver::prepare (src/flow/solver.cpp) hands to
/// route_circuit for a device request that fits the exact thresholds
/// (its exact tail) or takes the sparse path (the exact tail of the
/// m-flow reduction, followed by the reduction's inverse).
qsp::Circuit unrouted_workflow_circuit(const qsp::Solver& solver,
                                       const qsp::QuantumState& state,
                                       bool fits) {
  const qsp::WorkflowOptions& options = solver.options();
  if (fits) return solver.prepare_via_exact_tail(state);
  const qsp::MFlowReduction reduction = reduce_to_thresholds(state, options);
  qsp::Circuit circuit = solver.prepare_via_exact_tail(reduction.reduced);
  qsp::Circuit forward(state.num_qubits());
  for (const qsp::Gate& g : reduction.forward_gates) forward.append(g);
  circuit.append(forward.adjoint());
  return circuit;
}

struct ReplayCosts {
  double mflow_s = 0.0;
  double mflow_merges = 0.0;
  double nflow_s = 0.0;
  double pipeline_s = 0.0;
  double lower_count_s = 0.0;
  double dataflow_lint_s = 0.0;
  double route_s = 0.0;
  double routed_overhead = 0.0;
  std::size_t requests = 0;
  std::size_t routed = 0;
};

/// Replays the prep, circuit and arch calls of one request on its own
/// input, timing each.
void replay_request(const LayerInputs& in, const TracedRequest& traced,
                    ReplayCosts& costs) {
  const Request& request = (*in.requests)[traced.index];
  qsp::WorkflowOptions options =
      request.on_device ? in.on_device : in.all_to_all;
  options.cache = nullptr;
  const qsp::QuantumState& state = request.state;
  const int n = state.num_qubits();
  const bool fits = fits_exact_thresholds(state, options);
  const bool sparse = traced.sparse_path;
  ++costs.requests;

  if (!fits) {
    if (sparse || state.cardinality() <= options.dual_path_max_cardinality) {
      const double t0 = now_s();
      const qsp::MFlowReduction reduction =
          reduce_to_thresholds(state, options);
      costs.mflow_s += now_s() - t0;
      costs.mflow_merges +=
          state.cardinality() - reduction.reduced.cardinality();
    }
    if (!sparse) {
      const int t = std::min(options.exact_max_qubits, n);
      const double t0 = now_s();
      const qsp::QuantumState marginal = qsp::nflow_marginal(state, t);
      const qsp::Circuit tail = qsp::nflow_prepare(marginal);
      const qsp::Circuit stages = qsp::nflow_stages(state, t);
      costs.nflow_s += now_s() - t0;
      g_sink = g_sink + tail.size() + stages.size();
    }
  }

  // The pass pipeline as Solver::prepare runs it, on the request solved
  // again at O0 (the raw stitched, routed circuit).
  qsp::WorkflowOptions raw = options;
  raw.opt_level = qsp::OptLevel::kO0;
  const qsp::WorkflowResult unoptimized = qsp::Solver(raw).prepare(state);
  qsp::PipelineOptions pipeline;
  pipeline.level = options.opt_level;
  if (!options.target.is_cnot()) {
    pipeline.lower_to_target = true;
    pipeline.pass.target = options.target;
    pipeline.pass.elide_zero_rotations = true;
  }
  if (pipeline.pass.target.coupling == nullptr) {
    pipeline.pass.target.coupling = options.coupling;
  }
  double t0 = now_s();
  g_sink = g_sink + qsp::optimize_circuit(unoptimized.circuit, pipeline).size();
  costs.pipeline_s += now_s() - t0;

  qsp::LoweringOptions elide;
  elide.elide_zero_rotations = true;
  t0 = now_s();
  g_sink = g_sink + static_cast<std::uint64_t>(
                        qsp::count_cnots_after_lowering(*traced.output, elide));
  costs.lower_count_s += now_s() - t0;

  if (in.service) {
    // The worker's per-response analysis.
    t0 = now_s();
    g_sink = g_sink + qsp::dataflow_lint(*traced.output, qsp::DataflowOptions{})
                          .diagnostics.size();
    costs.dataflow_lint_s += now_s() - t0;
  }
  if (request.on_device && in.device->num_qubits() > n) {
    // Solver::prepare's static ancilla certification of routed output.
    qsp::DataflowOptions gate;
    gate.num_data_wires = n;
    t0 = now_s();
    g_sink = g_sink +
             qsp::dataflow_lint(unoptimized.circuit, gate).diagnostics.size();
    costs.dataflow_lint_s += now_s() - t0;
  }

  if (request.on_device && (fits || sparse)) {
    const qsp::Solver solver(options);
    const qsp::Circuit unrouted =
        unrouted_workflow_circuit(solver, state, fits);
    t0 = now_s();
    const qsp::Circuit routed = qsp::route_circuit(unrouted, *in.device);
    costs.route_s += now_s() - t0;
    costs.routed_overhead += static_cast<double>(
        qsp::lowered_cnot_count(routed) -
        qsp::count_cnots_after_lowering(unrouted));
    ++costs.routed;
  }
}

}  // namespace

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  const std::vector<TracedRequest>& traced = *in.traced;
  const double requests =
      static_cast<double>(std::max<std::size_t>(1, traced.size()));

  double astar_s = 0.0, beam_s = 0.0, probe_s = 0.0, flow_self_s = 0.0;
  double astar_searches = 0.0, with_stats = 0.0, beams = 0.0, attempts = 0.0,
         probes = 0.0;
  double expanded = 0.0, generated = 0.0, exhausted = 0.0, optimal = 0.0;
  double arena_peak = 0.0, used = 0.0, sparse = 0.0, iterations = 0.0,
         removed = 0.0;
  std::vector<const SearchRecord*> kernel_targets;
  for (const TracedRequest& t : traced) {
    double children = 0.0;
    for (const SearchRecord& rec : t.recorder->searches()) {
      const double probe = rec.probe_end_s - rec.probe_start_s;
      probe_s += probe;
      probes += 1.0;
      children += probe;
      if (!rec.consult_only) attempts += 1.0;
      if (rec.claim == Claim::kHit) continue;
      if (rec.consult_only) {
        const double span = rec.end_s - rec.beam_start_s;
        children += span;
        beam_s += span;
        beams += 1.0;
        continue;
      }
      const double span = rec.end_s - rec.probe_end_s;
      children += span;
      astar_s += span;
      astar_searches += 1.0;
      if (rec.target.has_value()) kernel_targets.push_back(&rec);
      if (!rec.ended) continue;
      with_stats += 1.0;
      expanded += static_cast<double>(rec.stats.nodes_expanded);
      generated += static_cast<double>(rec.stats.nodes_generated);
      exhausted += rec.stats.budget_exhausted ? 1.0 : 0.0;
      optimal += rec.optimal ? 1.0 : 0.0;
      arena_peak = std::max(arena_peak,
                            static_cast<double>(rec.stats.arena_bytes_peak));
    }
    flow_self_s += t.solver_s - children;
    used += t.used_exact_tail ? 1.0 : 0.0;
    sparse += t.sparse_path ? 1.0 : 0.0;
    iterations += t.pipeline_iterations;
    removed += static_cast<double>(t.gates_removed);
  }
  const KernelCosts kernels = replay_kernels(kernel_targets, in.all_to_all);

  ReplayCosts replay;
  std::unordered_set<std::size_t> replayed;
  for (const TracedRequest& t : traced) {
    if (replayed.size() >= in.replay_requests) break;
    if (!t.found || t.output == nullptr || !replayed.insert(t.index).second) {
      continue;
    }
    replay_request(in, t, replay);
  }
  const double replays =
      static_cast<double>(std::max<std::size_t>(1, replay.requests));

  std::map<std::string, double> v;
  v["core.search_ms"] = 1e3 * astar_s / requests;
  v["core.beam_ms"] = 1e3 * beam_s / requests;
  v["core.expansions_per_s"] = ratio(expanded, astar_s);
  v["core.canonical_us"] = 1e6 * kernels.canonical_s;
  v["core.moves_us"] = 1e6 * kernels.moves_s;
  v["core.heuristic_us"] = 1e6 * kernels.heuristic_s;
  v["core.canonical_share"] = ratio(generated * kernels.canonical_s, astar_s);
  v["core.astar_searches"] = astar_searches / requests;
  v["core.nodes_expanded"] = ratio(expanded, with_stats);
  v["core.nodes_generated"] = ratio(generated, with_stats);
  v["core.budget_exhausted_share"] = ratio(exhausted, with_stats);
  v["core.optimal_share"] = ratio(optimal, with_stats);
  v["core.beam_fallbacks"] = beams / requests;
  v["core.arena_bytes_peak"] = arena_peak;
  v["flow.prepare_self_ms"] = 1e3 * flow_self_s / requests;
  v["flow.exact_attempts"] = attempts / requests;
  v["flow.attempt_used_share"] = ratio(used, attempts);
  v["flow.sparse_path_share"] = sparse / requests;
  v["prep.mflow_ms"] = 1e3 * replay.mflow_s / replays;
  v["prep.mflow_merges"] = replay.mflow_merges / replays;
  v["prep.nflow_ms"] = 1e3 * replay.nflow_s / replays;
  v["circuit.pipeline_ms"] = 1e3 * replay.pipeline_s / replays;
  v["circuit.pipeline_iterations"] = iterations / requests;
  v["circuit.gates_removed"] = removed / requests;
  v["circuit.lower_count_ms"] = 1e3 * replay.lower_count_s / replays;
  v["circuit.dataflow_lint_ms"] = 1e3 * replay.dataflow_lint_s / replays;
  v["arch.route_ms"] =
      1e3 * ratio(replay.route_s, static_cast<double>(replay.routed));
  v["arch.routed_cnot_overhead"] =
      ratio(replay.routed_overhead, static_cast<double>(replay.routed));

  if (in.service) {
    std::map<const qsp::Circuit*, double> lint_s;
    double queue_s = 0.0, busy_s = 0.0, admit_s = 0.0, admits = 0.0;
    for (const TracedRequest& t : traced) {
      double lint = 0.0;
      if (t.found && t.output != nullptr) {
        const auto [it, inserted] = lint_s.try_emplace(t.output.get(), 0.0);
        if (inserted) {
          it->second = time_per_call(1, [&] {
            g_sink = g_sink +
                     qsp::dataflow_lint(*t.output, qsp::DataflowOptions{})
                         .diagnostics.size();
          });
        }
        lint = it->second;
      }
      queue_s += derive_queue_wait(t.ready_s - t.submit_s, t.admit_s,
                                   t.solver_s, lint);
      busy_s += t.solver_s + lint;
      if (t.admit_s > 0.0) {
        admit_s += t.admit_s;
        admits += 1.0;
      }
    }
    const qsp::EquivalenceCacheStats& a = in.cache_after;
    const qsp::EquivalenceCacheStats& b = in.cache_before;
    v["service.queue_wait_ms"] = 1e3 * queue_s / requests;
    v["service.worker_busy_share"] =
        ratio(busy_s, in.workers * in.phase_wall_s);
    v["service.cache_hit_rate"] =
        ratio(static_cast<double>(a.hits - b.hits),
              static_cast<double>(a.lookups - b.lookups));
    v["service.rewired_hit_share"] =
        ratio(static_cast<double>(a.rewired_hits - b.rewired_hits),
              static_cast<double>(a.hits - b.hits));
    v["service.inflight_waits"] =
        static_cast<double>(a.inflight_waits - b.inflight_waits) / requests;
    v["service.cache_insertions"] =
        static_cast<double>(a.insertions - b.insertions) / requests;
    v["service.cache_probe_us"] = 1e6 * ratio(probe_s, probes);
    v["service.qasm_admit_ms"] = 1e3 * ratio(admit_s, admits);
    v["service.cache_bytes"] = static_cast<double>(a.bytes);
  }

  std::vector<Metric> metrics = per_layer_metric_catalog();
  for (Metric& m : metrics) m.value = v.count(m.name) != 0 ? v[m.name] : 0.0;
  return metrics;
}

FirstSeenCounts first_seen_counts(const std::vector<Request>& requests,
                                  const std::vector<TracedRequest>& traced) {
  FirstSeenCounts counts;
  for (const TracedRequest& t : traced) {
    if (t.recorder == nullptr) continue;
    bool missed = false;
    std::size_t writes = 0;
    for (const SearchRecord& rec : t.recorder->searches()) {
      if (rec.consult_only || rec.claim == Claim::kHit) continue;
      missed = true;
      writes += rec.claim == Claim::kOwner && rec.ended && rec.optimal;
    }
    if (!requests[t.index].first_seen) {
      counts.other_writes += writes;
      continue;
    }
    ++counts.requests;
    counts.misses += missed ? 1 : 0;
    counts.writes += writes > 0 ? 1 : 0;
  }
  return counts;
}

}  // namespace perfbench
