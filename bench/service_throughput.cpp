// Service-mode throughput: the cross-request equivalence cache's whole
// point is that repeated workloads (benchmark families, parameter sweeps,
// per-user variants of the same states) hit the same canonical classes,
// so the exact kernel's work is paid once. This bench measures a
// cold batch (every class searched) against warm batches (repeats plus
// permuted/translated per-user variants) through a live SynthesisService
// and reports throughput, speedup and cache hit rates — section (a) on an
// all-to-all register, section (b) on a line device where cached host
// templates must come back remapped and routed. Section (c) repeats two
// classes whose work-bounded A* never certifies (Dicke(5,2) and
// Dicke(6,3) on heavy_hex(3), 20k nodes, no wall budgets): the cold batch
// searches and records each exhaustion, and the warm repeats replay the
// records (negative hits) and run only the beam.
//
// JSON rows (qsp::bench::json_row): one per phase per section with
// requests, seconds, requests_per_second, hit_rate, plus a summary row
// with warm_over_cold; section (c) adds ms_per_request and negative_hits.
// QSP_BENCH_SMOKE=1 shrinks the sweep for CI; QSP_BENCH_FULL=1 widens it.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/routing.hpp"
#include "bench_common.hpp"
#include "service/synthesis_service.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace qsp;

QuantumState permuted_state(const QuantumState& state,
                            const std::vector<int>& perm) {
  std::vector<Term> terms;
  terms.reserve(state.terms().size());
  for (const Term& t : state.terms()) {
    terms.push_back(Term{permute_bits(t.index, perm), t.amplitude});
  }
  return QuantumState(state.num_qubits(), std::move(terms));
}

QuantumState translated_state(const QuantumState& state, BasisIndex mask) {
  std::vector<Term> terms;
  terms.reserve(state.terms().size());
  for (const Term& t : state.terms()) {
    terms.push_back(Term{t.index ^ mask, t.amplitude});
  }
  return QuantumState(state.num_qubits(), std::move(terms));
}

struct Workload {
  /// Unique-class cold batch.
  std::vector<QuantumState> bases;
  /// Same classes again: repeats plus per-user variants.
  std::vector<QuantumState> warm;
};

Workload build_workload(bool with_permuted_variants) {
  Workload w;
  w.bases.push_back(make_ghz(4));
  w.bases.push_back(make_w(4));
  w.bases.push_back(make_dicke(4, 2));
  Rng rng(4242);
  const int extra = bench::smoke_mode() ? 1 : (bench::full_mode() ? 9 : 5);
  for (int i = 0; i < extra; ++i) {
    w.bases.push_back(make_random_uniform(4, 5 + i % 4, rng));
  }
  const int rounds = bench::smoke_mode() ? 2 : (bench::full_mode() ? 8 : 4);
  const std::vector<int> perm{2, 0, 3, 1};
  for (int round = 0; round < rounds; ++round) {
    for (const QuantumState& base : w.bases) {
      w.warm.push_back(base);  // straight repeat: exact hit
      w.warm.push_back(translated_state(
          base, static_cast<BasisIndex>(rng.next_below(16))));
      if (with_permuted_variants) {
        w.warm.push_back(permuted_state(base, perm));
      }
    }
  }
  return w;
}

struct PhaseResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  double hit_rate = 0.0;
};

double throughput(const PhaseResult& phase) {
  return phase.seconds > 0.0
             ? static_cast<double>(phase.requests) / phase.seconds
             : 0.0;
}

int run_section(const std::string& name,
                const std::shared_ptr<const CouplingGraph>& device) {
  const Workload workload = build_workload(device == nullptr);
  WorkflowOptions workflow;
  workflow.coupling = device;
  workflow.opt_level = bench::bench_opt_level();
  // Generous kernel budgets: certified searches are served from the cache
  // as templates, but an attempt that runs under a wall budget is never
  // remembered when it exhausts (section (c) covers the work-bounded
  // ones), so a budget-exhausted beam fallback would re-search on every
  // repeat and understate the warm phase.
  workflow.exact.astar.time_budget_seconds = 120.0;
  workflow.exact.astar.node_budget = 20'000'000;

  SynthesisServiceOptions service_options;
  service_options.num_workers = std::max(bench::bench_threads(), 1);
  SynthesisService service(service_options);

  const auto run_phase = [&](const std::vector<QuantumState>& states,
                             PhaseResult& phase) -> int {
    std::vector<ServiceRequest> batch;
    batch.reserve(states.size());
    for (const QuantumState& state : states) {
      ServiceRequest request;
      request.state = state;
      request.options = workflow;
      batch.push_back(std::move(request));
    }
    const EquivalenceCacheStats before = service.cache_stats();
    const Timer timer;
    const std::vector<ServiceResponse> responses =
        service.run_batch(std::move(batch));
    phase.seconds = timer.seconds();
    phase.requests = states.size();
    const EquivalenceCacheStats after = service.cache_stats();
    const std::uint64_t lookups = after.lookups - before.lookups;
    phase.hit_rate = lookups == 0
                         ? 0.0
                         : static_cast<double>(after.hits - before.hits) /
                               static_cast<double>(lookups);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].result.found ||
          !verify_preparation(responses[i].result.circuit, states[i]).ok) {
        std::cerr << "VERIFICATION FAILED in " << name << " on request "
                  << i << "\n";
        return 1;
      }
      if (device != nullptr &&
          (responses[i].result.circuit.num_qubits() != device->num_qubits() ||
           !respects_coupling(responses[i].result.circuit, *device))) {
        std::cerr << "COUPLING CONFORMANCE FAILED in " << name
                  << " on request " << i << "\n";
        return 1;
      }
    }
    return 0;
  };

  PhaseResult cold;
  if (run_phase(workload.bases, cold) != 0) return 1;
  PhaseResult warm;
  if (run_phase(workload.warm, warm) != 0) return 1;

  const EquivalenceCacheStats stats = service.cache_stats();
  const double speedup = throughput(cold) > 0.0
                             ? throughput(warm) / throughput(cold)
                             : 0.0;

  TextTable table({"phase", "requests", "seconds", "req/s", "hit rate"});
  table.add_row({"cold", TextTable::fmt(static_cast<std::int64_t>(
                             cold.requests)),
                 TextTable::fmt(cold.seconds, 3),
                 TextTable::fmt(throughput(cold), 1),
                 TextTable::fmt(cold.hit_rate, 2)});
  table.add_row({"warm", TextTable::fmt(static_cast<std::int64_t>(
                             warm.requests)),
                 TextTable::fmt(warm.seconds, 3),
                 TextTable::fmt(throughput(warm), 1),
                 TextTable::fmt(warm.hit_rate, 2)});
  std::cout << "\n[" << name << "]\n" << table.render();
  std::cout << "warm/cold throughput: " << TextTable::fmt(speedup, 1)
            << "x  (exact hits " << stats.exact_hits << ", rewired "
            << stats.rewired_hits << ", evictions " << stats.evictions
            << ")\n";
  if (speedup < 2.0) {
    std::cout << "note: warm speedup below the 2x target on this host "
                 "(tiny cold searches or a loaded machine)\n";
  }

  const auto emit_phase = [&](const char* phase_name,
                              const PhaseResult& phase) {
    bench::json_row("service_throughput",
                    {{"instance", name + "/" + phase_name},
                     {"phase", phase_name},
                     {"requests", static_cast<std::int64_t>(phase.requests)},
                     {"seconds", phase.seconds},
                     {"requests_per_second", throughput(phase)},
                     {"hit_rate", phase.hit_rate},
                     {"threads", service_options.num_workers}});
  };
  emit_phase("cold", cold);
  emit_phase("warm", warm);
  bench::json_row("service_throughput",
                  {{"instance", name + "/summary"},
                   {"phase", "summary"},
                   {"warm_over_cold", speedup},
                   {"hit_rate", warm.hit_rate},
                   {"exact_hits",
                    static_cast<std::int64_t>(stats.exact_hits)},
                   {"rewired_hits",
                    static_cast<std::int64_t>(stats.rewired_hits)},
                   {"evictions", static_cast<std::int64_t>(stats.evictions)},
                   {"threads", service_options.num_workers}});
  return 0;
}

int run_exhausted_section() {
  const std::string name = "heavy_hex3_exhausted";
  const auto device =
      std::make_shared<const CouplingGraph>(CouplingGraph::heavy_hex(3));
  WorkflowOptions workflow;
  workflow.coupling = device;
  workflow.opt_level = bench::bench_opt_level();
  workflow.time_budget_seconds = 0.0;
  workflow.exact.time_budget_seconds = 0.0;
  workflow.exact.astar.time_budget_seconds = 0.0;
  workflow.exact.beam.time_budget_seconds = 0.0;
  workflow.exact.astar.node_budget = 20'000;
  workflow.exact.beam.beam_width = 1;

  SynthesisServiceOptions service_options;
  service_options.num_workers = std::max(bench::bench_threads(), 1);
  SynthesisService service(service_options);

  const std::vector<QuantumState> bases = {make_dicke(5, 2), make_dicke(6, 3)};
  const int rounds = bench::smoke_mode() ? 2 : (bench::full_mode() ? 16 : 6);
  std::vector<QuantumState> warm_states;
  for (int round = 0; round < rounds; ++round) {
    warm_states.insert(warm_states.end(), bases.begin(), bases.end());
  }

  struct Phase {
    double seconds = 0.0;
    std::size_t requests = 0;
    std::uint64_t negative_hits = 0;
    std::vector<Circuit> circuits;
  };
  const auto run_phase = [&](const std::vector<QuantumState>& states,
                             Phase& phase) -> int {
    std::vector<ServiceRequest> batch;
    for (const QuantumState& state : states) {
      batch.push_back(ServiceRequest{state, workflow});
    }
    const std::uint64_t before = service.cache_stats().negative_hits;
    const Timer timer;
    const std::vector<ServiceResponse> responses =
        service.run_batch(std::move(batch));
    phase.seconds = timer.seconds();
    phase.requests = states.size();
    phase.negative_hits = service.cache_stats().negative_hits - before;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const Circuit& circuit = responses[i].result.circuit;
      if (!responses[i].result.found ||
          !verify_preparation(circuit, states[i]).ok ||
          !respects_coupling(circuit, *device)) {
        std::cerr << "VERIFICATION FAILED in " << name << " on request " << i
                  << "\n";
        return 1;
      }
      phase.circuits.push_back(circuit);
    }
    return 0;
  };

  Phase cold;
  if (run_phase(bases, cold) != 0) return 1;
  Phase warm;
  if (run_phase(warm_states, warm) != 0) return 1;
  // A replayed record must answer exactly as the search it stands for.
  for (std::size_t i = 0; i < warm.circuits.size(); ++i) {
    if (warm.circuits[i] != cold.circuits[i % bases.size()]) {
      std::cerr << "WARM OUTPUT DIFFERS in " << name << " on request " << i
                << "\n";
      return 1;
    }
  }

  const auto ms_per_request = [](const Phase& phase) {
    return 1e3 * phase.seconds / static_cast<double>(phase.requests);
  };
  TextTable table(
      {"phase", "requests", "seconds", "ms/request", "negative hits"});
  for (const auto& [phase_name, phase] :
       {std::pair<const char*, const Phase&>{"cold", cold}, {"warm", warm}}) {
    table.add_row(
        {phase_name,
         TextTable::fmt(static_cast<std::int64_t>(phase.requests)),
         TextTable::fmt(phase.seconds, 3),
         TextTable::fmt(ms_per_request(phase), 2),
         TextTable::fmt(static_cast<std::int64_t>(phase.negative_hits))});
    bench::json_row(
        "service_throughput",
        {{"instance", name + "/" + phase_name},
         {"phase", phase_name},
         {"requests", static_cast<std::int64_t>(phase.requests)},
         {"seconds", phase.seconds},
         {"ms_per_request", ms_per_request(phase)},
         {"negative_hits", static_cast<std::int64_t>(phase.negative_hits)},
         {"threads", service_options.num_workers}});
  }
  std::cout << "\n[" << name << "]\n" << table.render();
  return 0;
}

}  // namespace

int main() {
  bench::print_banner(
      "service_throughput: cold vs warm batches through SynthesisService",
      "Repeated workloads against the cross-request equivalence cache: a\n"
      "cold batch pays one kernel search per canonical class; warm\n"
      "batches (repeats + permuted/translated per-user variants) are\n"
      "served from cache, bit-identical on repeats and rewired at equal\n"
      "certified cost on variants.");

  if (run_section("all_to_all", nullptr) != 0) return 1;
  const auto line5 =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(5));
  if (run_section("line5", line5) != 0) return 1;
  if (run_exhausted_section() != 0) return 1;

  std::cout << "\nWarm batches of (a) and (b) skip the exact kernel\n"
               "entirely; the hit rate is the fraction of tail searches\n"
               "answered from the cache (rewired hits are same-class\n"
               "variants served via the canonical witness). Warm batches\n"
               "of (c) skip only the A* attempts that ran out of nodes.\n";
  return 0;
}
