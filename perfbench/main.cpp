// End-to-end benchmark of the qsp library (see README.md beside this
// file for the metric and workload definitions).
//
//   perfbench --workload sparse|dense|service_mix --seed N --seconds S
//             --trace 0|1 [--trace-out spans.json]
//   perfbench --workload W --seed N --setup-only 1
//
// One run: generate the workload's inputs from the seed (untimed), set up
// (timed up to the first request), drive the timed closed loop for S
// seconds through the public entry points (Solver::prepare,
// SynthesisService::submit / submit_qasm), then check every output outside
// the timed region. setup_s is the median of kSetupRuns first set-ups:
// the run's own and those of fresh --setup-only processes, so every
// sample pays the library's one-time lazy set-up. With --trace 0 the last
// stdout line is a JSON object with the end-to-end metrics. With --trace 1
// the window is split: an untraced half, then a traced half whose spans
// feed the per-layer metrics; the tracing overhead (traced minus untraced
// end-to-end numbers) is printed and the JSON carries the per-layer
// metrics.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runner.hpp"
#include "util/simd.hpp"

namespace {

using namespace perfbench;

/// First set-ups behind setup_s: the run's own plus kSetupRuns - 1 fresh
/// processes.
constexpr int kSetupRuns = 9;

struct Args {
  Workload workload = Workload::kSparse;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sparse|dense|service_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "       perfbench --workload W --seed N --setup-only 1\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    const auto parse_u64 = [&](std::uint64_t& out) {
      const auto [end, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      return ec == std::errc() && end == value.data() + value.size();
    };
    std::uint64_t number = 0;
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w.has_value()) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(args.seed)) return std::nullopt;
    } else if (flag == "--seconds") {
      if (!parse_u64(number) || number == 0) return std::nullopt;
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = std::string(value);
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") return std::nullopt;
      args.setup_only = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return args;
}

void print_phase(const char* name, const EndToEnd& e) {
  const LatencySummary& l = e.latency;
  std::string basis = "each request's quickest call";
  if (l.windows > 0) {
    basis = "quicker quartile of " + std::to_string(l.windows) +
            " windows of " + std::to_string(l.samples) + " requests";
  }
  std::printf(
      "%s: %zu requests (%.2f req/s over the phase); %s: latency p50 %.4f "
      "ms, p%g %.4f ms (%zu samples, %zu beyond), %.2f req/s; cnot_ratio "
      "%.6f over the first %zu, failed %zu of %zu, peak RSS %.1f MiB, "
      "outputs digest %016llx\n",
      name, e.attempted, e.phase_rps, basis.c_str(), l.p50_ms,
      l.tail_percentile, l.tail_ms, l.samples,
      samples_beyond(l.samples, l.tail_percentile), l.throughput_rps,
      e.cnot_ratio, e.digest_requests, e.failed, e.attempted, e.peak_rss_mb,
      static_cast<unsigned long long>(e.outputs_digest));
}

/// service_mix: the shared cache's traffic over a phase, beside the
/// number of first-seen requests sent (the traced run attributes misses
/// and writes to them).
void print_cache_traffic(const char* name, const Context& ctx,
                         const Phase& phase) {
  std::size_t first_seen = 0;
  std::size_t first_pass = 0;
  for (const Completed& c : phase.completed) {
    if (!ctx.inputs.requests[c.index].first_seen) continue;
    ++first_seen;
    if (c.seq < ctx.inputs.requests.size()) ++first_pass;
  }
  const qsp::EquivalenceCacheStats& a = phase.cache_after;
  const qsp::EquivalenceCacheStats& b = phase.cache_before;
  std::printf(
      "%s cache traffic: %llu lookups, %llu hits, %llu misses, %llu "
      "insertions; %zu first-seen requests, %zu of them before the list "
      "cycled\n",
      name, static_cast<unsigned long long>(a.lookups - b.lookups),
      static_cast<unsigned long long>(a.hits - b.hits),
      static_cast<unsigned long long>(a.misses - b.misses),
      static_cast<unsigned long long>(a.insertions - b.insertions), first_seen,
      first_pass);
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// One first set-up in a fresh process: this executable with
/// --setup-only 1, whose stdout carries "setup_s <seconds>".
double fresh_setup_seconds(const Args& args) {
  char self[4096];
  const ssize_t length = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (length <= 0) {
    throw std::runtime_error("cannot locate the perfbench executable");
  }
  std::string command = "'";
  for (const char c : std::string_view(self, static_cast<std::size_t>(length))) {
    command += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  command += "' --workload ";
  command += workload_name(args.workload);
  command += " --seed " + std::to_string(args.seed) + " --setup-only 1";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot start a set-up run");
  double seconds = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::sscanf(line, "setup_s %lf", &seconds);
  }
  if (pclose(pipe) != 0 || seconds < 0.0) {
    throw std::runtime_error("set-up run failed");
  }
  return seconds;
}

int run_setup_only(const Args& args) {
  const Context ctx = make_context(args.workload, args.seed);
  const Setup setup = set_up(ctx);
  std::printf("setup_s %.9f\n", setup.seconds);
  return 0;
}

int run(const Args& args) {
  const Context ctx = make_context(args.workload, args.seed);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf(
      "inputs: %zu requests, %zu set-up requests, request-list digest "
      "%016llx\n",
      ctx.inputs.requests.size(), ctx.inputs.setup.size(),
      static_cast<unsigned long long>(
          request_list_digest(ctx.inputs.requests)));
  std::fflush(stdout);

  // The traced run reports per-layer metrics only, so it sets up once.
  std::vector<double> setup_times;
  for (int r = 1; r < kSetupRuns && !args.trace; ++r) {
    setup_times.push_back(fresh_setup_seconds(args));
  }
  Setup live = set_up(ctx);
  setup_times.insert(setup_times.begin(), live.seconds);
  const double setup_s = median(setup_times);
  // Printed after set-up, which pays for the ISA detection.
  std::printf("host: nproc=%u isa=%s build=%s\n",
              std::thread::hardware_concurrency(),
              qsp::simd::isa_name(qsp::simd::active_isa()),
              PERFBENCH_BUILD_TYPE);
  std::printf("setup_s: median %.6f s of %zu first set-ups (this process "
              "%.6f s)\n",
              setup_s, setup_times.size(), setup_times.front());
  std::fflush(stdout);

  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  OutputStore store;
  const Phase untraced = run_phase(ctx, live, window, false, store);
  std::optional<Phase> traced;
  if (args.trace) {
    if (ctx.service) {
      // The traced half starts from the same warm state as the untraced one.
      live = Setup{};
      live = set_up(ctx);
    }
    traced = run_phase(ctx, live, window, true, store);
  }
  check_outputs(ctx, live, store);

  Baselines baselines(ctx, live);
  const EndToEnd plain = summarize(ctx, untraced, store, baselines);
  print_phase(args.trace ? "untraced half" : "timed phase", plain);
  if (ctx.service) {
    print_cache_traffic(args.trace ? "untraced half" : "timed phase", ctx,
                        untraced);
  }
  const std::vector<Metric> plain_metrics = end_to_end_metrics(plain, setup_s);
  std::size_t attempted = plain.attempted;
  std::size_t failed = plain.failed;
  std::vector<Metric> report = plain_metrics;

  if (traced.has_value()) {
    const EndToEnd with_trace = summarize(ctx, *traced, store, baselines);
    print_phase("traced half", with_trace);
    if (ctx.service) {
      print_cache_traffic("traced half", ctx, *traced);
      const FirstSeenCounts fs =
          first_seen_counts(ctx.inputs.requests, traced->traced);
      std::printf(
          "first-seen requests (traced half): %zu sent, %zu missed the "
          "cache, %zu certified and wrote it; %zu writes by other "
          "requests\n",
          fs.requests, fs.misses, fs.writes, fs.other_writes);
    }
    attempted += with_trace.attempted;
    failed += with_trace.failed;
    const std::vector<Metric> traced_metrics =
        end_to_end_metrics(with_trace, setup_s);
    std::printf("tracing overhead (traced vs untraced half):\n");
    for (std::size_t i = 1; i < plain_metrics.size(); ++i) {
      const double a = plain_metrics[i].value;
      const double b = traced_metrics[i].value;
      std::printf(
          "  %-16s untraced %14.6f  traced %14.6f  diff %+.6f (%+.2f%%)\n",
          plain_metrics[i].name.c_str(), a, b, b - a,
          a != 0.0 ? 100.0 * (b - a) / a : 0.0);
    }

    report = per_layer_metrics(layer_inputs(ctx, live, *traced));
    std::printf("per-layer metrics (traced half):\n");
    for (const Metric& m : report) {
      std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      std::vector<Span> spans;
      for (const TracedRequest& t : traced->traced) append_spans(t, spans);
      if (write_spans_json(args.trace_out, spans)) {
        std::printf("spans: %zu written to %s\n", spans.size(),
                    args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.trace_out.c_str());
      }
    }
  }

  const bool correct = failed == 0;
  print_json(correct, attempted, failed, report);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    usage();
    return 2;
  }
  try {
    return args->setup_only ? run_setup_only(*args) : run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
