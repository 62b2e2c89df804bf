// Microbenchmarks for the exact-synthesis primitives: canonical keys,
// move enumeration, arc application, heuristics, the A* kernel at 1, 2
// and 8 threads on the paper's headline instance, statevector
// simulation, m-flow cardinality reduction, and Solver::prepare end to
// end on a fixed corpus.
//
// A hand-timed kernel sweep emits one canonical-schema json_row per
// kernel cell — this is what bench/baseline/micro_core.jsonl and
// tools/bench_compare.py consume. Each kernel row carries a
// deterministic output checksum: bench_compare uses it to prove that
// the scalar and AVX2 dispatch paths (util/simd.hpp) and the default and
// -march builds compute bit-identical results end to end, not just per
// primitive. Each row's time is the median of several windows taken in
// round-robin rounds over all rows, next to the spread between them.
//
// Usage: `micro_core` times the active ISA and writes to the json_row
// sink (stdout or QSP_BENCH_JSON). `micro_core --ab SCALAR.jsonl
// AVX2.jsonl` builds every row once per ISA and times the two in the
// same rounds, each window of one next to the same row's window of the
// other, so a slow spell of the host hits both sides of the comparison;
// each ISA's rows go to its own file, for bench_compare --strict.

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/lowering.hpp"
#include "core/astar.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "flow/solver.hpp"
#include "prep/mflow.hpp"
#include "prep/nflow.hpp"
#include "sim/statevector.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace qsp;

SlotState benchmark_state(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  return *SlotState::from_state(make_random_uniform(n, m, rng));
}

/// FNV-1a over raw bytes: the cross-ISA determinism witness attached to
/// every kernel row. `h` chains several buffers into one checksum.
std::uint64_t checksum_bytes(const void* data, std::size_t size,
                             std::uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t checksum_vector(const std::vector<T>& v) {
  return checksum_bytes(v.data(), v.size() * sizeof(T));
}

/// One hand-timed kernel row: a body to time, the checksum of its output
/// from one deterministic run, taken when the row is built, and the
/// timing windows.
struct KernelRow {
  const char* kernel;
  int n;
  std::uint64_t checksum;
  std::function<void()> body;
  std::vector<double> windows = {};
  std::uint64_t iters = 0;
};

/// Timing windows per row. Every round times each row once, so a row's
/// windows are spread over the whole run and a slow spell of the host
/// lands in few of them.
constexpr int kWindows = 7;

/// Repeat the row's body until one measurement window closes, and record
/// the window's seconds per iteration.
void time_window(KernelRow& row) {
  const double min_seconds = qsp::bench::smoke_mode() ? 0.02 : 0.15;
  const Timer timer;
  std::uint64_t n = 0;
  do {
    row.body();
    ++n;
  } while (timer.seconds() < min_seconds);
  row.iters += n;
  row.windows.push_back(timer.seconds() / static_cast<double>(n));
}

/// The rows of one dispatch ISA and where they are written.
struct Side {
  simd::Isa isa;
  std::ostream* out;
  std::vector<KernelRow> rows = {};
};

/// One row per kernel: `seconds_per_iter` is the median window and
/// `spread` is (second slowest - second fastest window) / median, the
/// noise that bench_compare --strict weighs a slowdown against. The two
/// extreme windows are left out so that one stray window cannot set it.
void emit_kernel_rows(Side& side) {
  for (KernelRow& row : side.rows) {
    std::vector<double>& w = row.windows;
    std::sort(w.begin(), w.end());
    const double median = w[w.size() / 2];
    qsp::bench::json_row(*side.out, "micro_core",
                         {{"kernel", row.kernel},
                          {"n", row.n},
                          {"seconds_per_iter", median},
                          {"spread", (w[w.size() - 2] - w[1]) / median},
                          {"iters", row.iters},
                          {"checksum", row.checksum},
                          {"isa", simd::isa_name(side.isa)}});
  }
}

void add_canonical_rows(std::vector<KernelRow>& rows) {
  struct Cell {
    const char* kernel;
    CanonicalLevel level;
    SlotState state;
  };
  // Uniform counts (m = 2n), where every translation is a candidate; then
  // the dense workload's shape, the count-heavy 4-qubit n-flow marginal of
  // a Table-V n = 8 state, where only the minimal-count translations run;
  // then Dicke(4,2), the exact branch and bound's symmetric worst case.
  Rng rng(1);
  const SlotState marginal = *SlotState::from_state(
      nflow_marginal(make_random_uniform(8, 128, rng), 4));
  const Cell cells[] = {
      {"canonical_u2", CanonicalLevel::kU2, benchmark_state(4, 8, 1)},
      {"canonical_u2", CanonicalLevel::kU2, benchmark_state(8, 16, 1)},
      {"canonical_pu2exact", CanonicalLevel::kPU2Exact,
       benchmark_state(4, 8, 1)},
      {"canonical_pu2exact", CanonicalLevel::kPU2Exact,
       benchmark_state(6, 12, 1)},
      {"canonical_pu2greedy", CanonicalLevel::kPU2Greedy,
       benchmark_state(6, 12, 1)},
      {"canonical_pu2greedy", CanonicalLevel::kPU2Greedy,
       benchmark_state(10, 20, 1)},
      {"canonical_pu2exact_marginal", CanonicalLevel::kPU2Exact, marginal},
      {"canonical_pu2greedy_marginal", CanonicalLevel::kPU2Greedy, marginal},
      {"canonical_pu2exact_dicke", CanonicalLevel::kPU2Exact,
       *SlotState::from_state(make_dicke(4, 2))},
  };
  for (const Cell& cell : cells) {
    rows.push_back({cell.kernel, cell.state.num_qubits(),
                    checksum_vector(canonical_key(cell.state, cell.level)),
                    [state = cell.state, level = cell.level,
                     key = CanonicalKey{}]() mutable {
                      key = canonical_key(state, level);
                    }});
  }
}

/// Field-wise checksums for struct outputs, so padding bytes never reach
/// the witness.
std::uint64_t checksum_moves(const std::vector<Move>& moves) {
  std::uint64_t h = checksum_bytes(nullptr, 0);
  for (const Move& mv : moves) {
    const std::int64_t fields[] = {static_cast<std::int64_t>(mv.kind),
                                   mv.target, mv.control,
                                   mv.control_positive ? 1 : 0, mv.cost};
    h = checksum_bytes(fields, sizeof fields, h);
    h = checksum_bytes(&mv.theta, sizeof mv.theta, h);
    for (const ControlLiteral& c : mv.controls) {
      const std::int64_t literal[] = {c.qubit, c.positive ? 1 : 0};
      h = checksum_bytes(literal, sizeof literal, h);
    }
  }
  return h;
}

std::uint64_t checksum_slots(const SlotState& s, std::uint64_t h) {
  for (const SlotEntry& e : s.entries()) {
    const std::uint64_t fields[] = {e.index, e.count};
    h = checksum_bytes(fields, sizeof fields, h);
  }
  return h;
}

/// Move generation and arc application, the per-expansion work of every
/// search besides canonicalization and the heuristic.
void add_move_rows(std::vector<KernelRow>& rows) {
  for (const int n : {4, 6, 8}) {
    const SlotState s = benchmark_state(n, 2 * n, 2);
    rows.push_back({"enumerate_moves", n,
                    checksum_moves(enumerate_moves(s, MoveGenOptions{})),
                    [s, moves = std::vector<Move>{}]() mutable {
                      moves = enumerate_moves(s, MoveGenOptions{});
                    }});
  }
  for (const int n : {4, 6}) {
    const SlotState s = benchmark_state(n, 2 * n, 3);
    const std::vector<Move> moves = enumerate_moves(s, MoveGenOptions{});
    std::uint64_t ck = checksum_bytes(nullptr, 0);
    for (const Move& mv : moves) ck = checksum_slots(apply_move(s, mv), ck);
    rows.push_back({"apply_move", n, ck,
                    [s, moves, total = std::uint64_t{0}]() mutable {
                      for (const Move& mv : moves) {
                        total += apply_move(s, mv).total();
                      }
                    }});
  }
}

void add_heuristic_rows(std::vector<KernelRow>& rows) {
  for (const int n : {6, 10, 14}) {
    const SlotState s = benchmark_state(n, n, 4);
    rows.push_back(
        {"heuristic_component", n,
         static_cast<std::uint64_t>(
             heuristic_lower_bound(s, HeuristicMode::kComponent)),
         [s, h = std::int64_t{0}]() mutable {
           h = heuristic_lower_bound(s, HeuristicMode::kComponent);
         }});
  }
}

/// Every gate's kind, wires and angle bits.
std::uint64_t checksum_gates(const std::vector<Gate>& gates,
                             std::uint64_t h) {
  for (const Gate& g : gates) {
    const int fields[] = {static_cast<int>(g.kind()), g.target()};
    h = checksum_bytes(fields, sizeof fields, h);
    for (const ControlLiteral& c : g.controls()) {
      const int literal[] = {c.qubit, c.positive ? 1 : 0};
      h = checksum_bytes(literal, sizeof literal, h);
    }
    const double theta = g.theta();
    h = checksum_bytes(&theta, sizeof theta, h);
    h = checksum_bytes(g.angles().data(), g.angles().size() * sizeof(double),
                       h);
  }
  return h;
}

/// Cost-aware m-flow reduction of a random uniform state down to the
/// exact tail's default cardinality (16), the blocking step of a sparse
/// request, at two of the sparse workload's shapes (m = 3n and m = 4n).
void add_mflow_rows(std::vector<KernelRow>& rows) {
  MFlowOptions options;
  options.strategy = MFlowOptions::PairStrategy::kCheapest;
  const auto stop = [](const QuantumState& s) { return s.cardinality() <= 16; };
  for (const auto& [n, m] : {std::pair{14, 42}, std::pair{20, 80}}) {
    Rng rng(5);
    const QuantumState target = make_random_uniform(n, m, rng);
    rows.push_back(
        {"mflow_reduce", n,
         checksum_gates(mflow_reduce(target, stop, options).forward_gates,
                        checksum_bytes(nullptr, 0)),
         [target, options, stop, gates = std::size_t{0}]() mutable {
           gates += mflow_reduce(target, stop, options).forward_gates.size();
         }});
  }
}

void add_compress_free_row(std::vector<KernelRow>& rows) {
  std::vector<BasisIndex> idx;
  for (BasisIndex x = 0; x < 16; ++x) idx.push_back(x);
  const SlotState s = SlotState::from_indices(4, idx);
  rows.push_back({"compress_free", 4, compress_free(s).total(),
                  [s, total = std::uint64_t{0}]() mutable {
                    total += compress_free(s).total();
                  }});
}

/// A row timing `gates`, applied in order, on its own copy of `sv`, with
/// as checksum the amplitudes after a single deterministic application
/// on another copy. The timing loop then iterates on its copy freely:
/// rotation drift there cannot leak into the checksum, so the row is
/// reproducible no matter how many iterations the windows admit.
template <typename SV>
KernelRow sv_kernel_row(const char* kernel, int n, SV sv,
                        std::vector<Gate> gates) {
  SV probe = sv;
  for (const Gate& g : gates) probe.apply(g);
  return {kernel, n, checksum_vector(probe.amplitudes()),
          [sv, gates]() mutable {
            for (const Gate& g : gates) sv.apply(g);
          }};
}

void add_statevector_rows(std::vector<KernelRow>& rows) {
  const int n = qsp::bench::smoke_mode() ? 14 : 18;
  const double theta = 0.3;
  const auto warmed = [](auto sv) {
    for (int q = 0; q < sv.num_qubits(); ++q) {
      sv.apply(Gate::ry(q, 0.2 + 0.01 * q));
    }
    return sv;
  };
  // Each sequence undoes itself (adjoint() negates the angles exactly).
  // CNOT on a non-trivial state: block swaps over contiguous strides.
  rows.push_back(sv_kernel_row("sv_cnot", n, warmed(Statevector(n)),
                               {Gate::cnot(0, n - 1), Gate::cnot(n - 1, 0)}));
  // Plain Ry: the dense rotate-pairs kernel, full 2^(n-1) pair sweep.
  const Gate ry = Gate::ry(n / 2, theta);
  rows.push_back(
      sv_kernel_row("sv_ry", n, warmed(Statevector(n)), {ry, ry.adjoint()}));
  // Multi-controlled Ry: masked pair sweep (run decomposition path).
  const Gate mcry = Gate::mcry({{1, true}, {n - 2, false}}, n / 2, theta);
  rows.push_back(sv_kernel_row("sv_mcry", n, warmed(Statevector(n)),
                               {mcry, mcry.adjoint()}));
  // Uniformly controlled Ry: per-pattern angles, table-driven runs.
  std::vector<double> angles(8);
  for (std::size_t s = 0; s < angles.size(); ++s) {
    angles[s] = 0.1 + 0.05 * static_cast<double>(s);
  }
  const Gate ucry = Gate::ucry({0, 1, n - 1}, n / 2, angles);
  rows.push_back(sv_kernel_row("sv_ucry", n, warmed(Statevector(n)),
                               {ucry, ucry.adjoint()}));
  // Complex path: Rz diagonal (unit-complex scaling) plus UCRz runs.
  const int nc = n - 2;
  angles.resize(4);
  for (std::size_t s = 0; s < angles.size(); ++s) {
    angles[s] = 0.2 + 0.05 * static_cast<double>(s);
  }
  const Gate rz = Gate::rz(nc / 2, theta);
  const Gate ucrz = Gate::ucrz({0, nc - 1}, nc / 2, angles);
  rows.push_back(sv_kernel_row("csv_rz_ucrz", nc,
                               warmed(ComplexStatevector(nc)),
                               {rz, ucrz, ucrz.adjoint(), rz.adjoint()}));
}

/// One canonical-schema json_row per exact-kernel instance (end-to-end
/// searches), with queue- and arena-pressure stats next to the timing.
void emit_search_rows(std::ostream& out) {
  struct Cell {
    const char* instance;
    QuantumState state;
  };
  Rng rng(9);
  const Cell cells[] = {{"Dicke(4,2)", make_dicke(4, 2)},
                        {"rand(4,5)", make_random_uniform(4, 5, rng)}};
  for (const Cell& cell : cells) {
    for (const int threads : {1, 2, 8}) {
      SearchOptions options;
      options.num_threads = threads;
      const SynthesisResult res =
          AStarSynthesizer(options).synthesize(cell.state);
      qsp::bench::json_row(
          out, "micro_core",
          {{"instance", cell.instance},
           {"method", "astar"},
           {"cnot_cost", res.cnot_cost},
           {"optimal", res.optimal},
           {"seconds", res.stats.seconds},
           {"threads", threads},
           {"sum_shard_peak_open_size", res.stats.sum_shard_peak_open_size},
           {"stale_pops", res.stats.stale_pops},
           {"arena_blocks", res.stats.arena_blocks},
           {"arena_bytes_peak", res.stats.arena_bytes_peak},
           {"isa", simd::isa_name(simd::active_isa())}});
    }
  }
}

/// Solver::prepare on a fixed seeded corpus of sparse, dense and Dicke
/// states, with node budgets only, so the outputs are deterministic. The
/// checksum covers every output gate's kind, wires and angle bits and
/// each output's lowered CNOT count: a build whose floating-point code
/// rounds differently (say, multiply-adds contracted into FMAs) cannot
/// match the baseline. The one pass is timed as `seconds`, which
/// bench_compare --strict does not gate.
void emit_solver_row(std::ostream& out) {
  std::vector<QuantumState> corpus;
  Rng rng(31);
  for (int n = 8; n <= 12; ++n) {
    corpus.push_back(make_random_uniform(n, 2 * n, rng));  // sparse path
  }
  for (int n = 5; n <= 7; ++n) {
    corpus.push_back(make_random_uniform(n, 1 << (n - 1), rng));  // dense
  }
  corpus.push_back(make_dicke(5, 2));
  corpus.push_back(make_dicke(6, 3));
  corpus.push_back(make_w(10));
  WorkflowOptions options;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  options.exact.astar.node_budget = 1000;
  options.exact.beam.beam_width = 1;
  const Solver solver(options);

  std::uint64_t ck = checksum_bytes(nullptr, 0);
  const Timer timer;
  for (const QuantumState& state : corpus) {
    const Circuit circuit = solver.prepare(state).circuit;
    ck = checksum_gates(circuit.gates(), ck);
    const std::int64_t cnots = count_cnots_after_lowering(circuit);
    ck = checksum_bytes(&cnots, sizeof cnots, ck);
  }
  qsp::bench::json_row(out, "micro_core",
                       {{"kernel", "solver_prepare"},
                        {"n", 12},
                        {"seconds", timer.seconds()},
                        {"checksum", ck},
                        {"isa", simd::isa_name(simd::active_isa())}});
}

std::vector<KernelRow> kernel_rows() {
  std::vector<KernelRow> rows;
  add_canonical_rows(rows);
  add_move_rows(rows);
  add_heuristic_rows(rows);
  add_compress_free_row(rows);
  add_mflow_rows(rows);
  add_statevector_rows(rows);
  return rows;
}

/// Builds each side's rows under its ISA (so each checksum is that ISA's
/// output), times them in kWindows rounds and emits them. Within a round
/// every row is timed once per side back to back, and the sides swap
/// places every round so neither always runs second.
void run(std::vector<Side>& sides) {
  for (Side& side : sides) {
    const simd::ScopedIsaForTesting isa(side.isa);
    side.rows = kernel_rows();
    for (const KernelRow& row : side.rows) row.body();  // touch caches
  }
  for (int round = 0; round < kWindows; ++round) {
    for (std::size_t i = 0; i < sides[0].rows.size(); ++i) {
      for (std::size_t k = 0; k < sides.size(); ++k) {
        Side& side = sides[round % 2 == 0 ? k : sides.size() - 1 - k];
        const simd::ScopedIsaForTesting isa(side.isa);
        time_window(side.rows[i]);
      }
    }
  }
  for (Side& side : sides) {
    const simd::ScopedIsaForTesting isa(side.isa);
    emit_kernel_rows(side);
    emit_search_rows(*side.out);
    emit_solver_row(*side.out);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::vector<Side> sides = {{simd::active_isa(), &qsp::bench::json_sink()}};
    run(sides);
    return 0;
  }
  if (argc != 4 || std::string(argv[1]) != "--ab") {
    std::cerr << "usage: micro_core [--ab SCALAR.jsonl AVX2.jsonl]\n";
    return 2;
  }
  if (!simd::avx2_supported()) {
    std::cerr << "micro_core --ab: AVX2 not supported on this CPU/build\n";
    return 1;
  }
  std::ofstream scalar(argv[2]);
  std::ofstream avx2(argv[3]);
  if (!scalar || !avx2) {
    std::cerr << "micro_core --ab: cannot open the output files\n";
    return 1;
  }
  std::vector<Side> sides = {{simd::Isa::kScalar, &scalar},
                             {simd::Isa::kAvx2, &avx2}};
  run(sides);
  return 0;
}
