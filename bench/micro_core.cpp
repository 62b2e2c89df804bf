// Microbenchmarks for the exact-synthesis primitives: canonical keys,
// move enumeration, arc application, heuristics, the A* kernel at 1, 2
// and 8 threads on the paper's headline instance, statevector
// simulation, and Solver::prepare end to end on a fixed corpus.
//
// A hand-timed kernel sweep emits one canonical-schema json_row per
// kernel cell — this is what bench/baseline/micro_core.jsonl and
// tools/bench_compare.py consume. Each kernel row carries a
// deterministic output checksum: bench_compare uses it to prove that
// the scalar and AVX2 dispatch paths (util/simd.hpp) and the default and
// -march builds compute bit-identical results end to end, not just per
// primitive.

#include <vector>

#include "bench_common.hpp"
#include "circuit/lowering.hpp"
#include "core/astar.hpp"
#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/moves.hpp"
#include "flow/solver.hpp"
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

/// Repeat `body` until the measurement window closes; returns seconds per
/// iteration. One untimed warmup run first.
template <typename F>
double time_kernel(F&& body, std::uint64_t* iters_out) {
  const double min_seconds = qsp::bench::smoke_mode() ? 0.02 : 0.15;
  body();  // warmup (touch caches, fault pages)
  Timer timer;
  std::uint64_t iters = 0;
  do {
    body();
    ++iters;
  } while (timer.seconds() < min_seconds);
  if (iters_out != nullptr) *iters_out = iters;
  return timer.seconds() / static_cast<double>(iters);
}

void kernel_row(const char* kernel, int n, double seconds_per_iter,
                std::uint64_t iters, std::uint64_t checksum) {
  qsp::bench::json_row(
      "micro_core",
      {{"kernel", kernel},
       {"n", n},
       {"seconds_per_iter", seconds_per_iter},
       {"iters", iters},
       {"checksum", checksum},
       {"isa", simd::isa_name(simd::active_isa())}});
}

void emit_canonical_rows() {
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
    CanonicalKey key;
    std::uint64_t iters = 0;
    const double spi = time_kernel(
        [&] { key = canonical_key(cell.state, cell.level); }, &iters);
    kernel_row(cell.kernel, cell.state.num_qubits(), spi, iters,
               checksum_vector(key));
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
void emit_move_rows() {
  for (const int n : {4, 6, 8}) {
    const SlotState s = benchmark_state(n, 2 * n, 2);
    const MoveGenOptions options;
    std::vector<Move> moves;
    std::uint64_t iters = 0;
    const double spi =
        time_kernel([&] { moves = enumerate_moves(s, options); }, &iters);
    kernel_row("enumerate_moves", n, spi, iters, checksum_moves(moves));
  }
  for (const int n : {4, 6}) {
    const SlotState s = benchmark_state(n, 2 * n, 3);
    const std::vector<Move> moves = enumerate_moves(s, MoveGenOptions{});
    std::uint64_t ck = checksum_bytes(nullptr, 0);
    for (const Move& mv : moves) ck = checksum_slots(apply_move(s, mv), ck);
    std::uint64_t total = 0;
    std::uint64_t iters = 0;
    const double spi = time_kernel(
        [&] {
          for (const Move& mv : moves) total += apply_move(s, mv).total();
        },
        &iters);
    (void)total;
    kernel_row("apply_move", n, spi, iters, ck);
  }
}

void emit_heuristic_rows() {
  for (const int n : {6, 10, 14}) {
    const SlotState s = benchmark_state(n, n, 4);
    std::int64_t h = 0;
    std::uint64_t iters = 0;
    const double spi = time_kernel(
        [&] { h = heuristic_lower_bound(s, HeuristicMode::kComponent); },
        &iters);
    kernel_row("heuristic_component", n, spi, iters,
               static_cast<std::uint64_t>(h));
  }
}

void emit_compress_free_row() {
  std::vector<BasisIndex> idx;
  for (BasisIndex x = 0; x < 16; ++x) idx.push_back(x);
  const SlotState s = SlotState::from_indices(4, idx);
  const std::uint64_t ck = compress_free(s).total();
  std::uint64_t total = 0;
  std::uint64_t iters = 0;
  const double spi = time_kernel(
      [&] { total += compress_free(s).total(); }, &iters);
  (void)total;
  kernel_row("compress_free", 4, spi, iters, ck);
}

/// Time one gate sequence on `sv`, attaching as checksum the amplitudes
/// after a single deterministic application on a copy of the initial
/// state. The timing loop then iterates on `sv` freely: rotation drift
/// there cannot leak into the checksum, so the row is reproducible no
/// matter how many iterations the measurement window admits.
template <typename SV, typename Body>
void sv_kernel_row(const char* kernel, int n, SV& sv, Body&& body) {
  SV probe = sv;
  body(probe);
  const std::uint64_t ck = checksum_vector(probe.amplitudes());
  std::uint64_t iters = 0;
  const double spi = time_kernel([&] { body(sv); }, &iters);
  kernel_row(kernel, n, spi, iters, ck);
}

void emit_statevector_rows() {
  const int n = qsp::bench::smoke_mode() ? 14 : 18;
  const double theta = 0.3;

  const auto warmed = [](int qubits) {
    Statevector sv(qubits);
    for (int q = 0; q < qubits; ++q) sv.apply(Gate::ry(q, 0.2 + 0.01 * q));
    return sv;
  };

  {
    // CNOT on a non-trivial state: block swaps over contiguous strides.
    Statevector sv = warmed(n);
    const Gate fwd = Gate::cnot(0, n - 1);
    const Gate bwd = Gate::cnot(n - 1, 0);
    sv_kernel_row("sv_cnot", n, sv, [&](Statevector& s) {
      s.apply(fwd);
      s.apply(bwd);
    });
  }

  {
    // Plain Ry: the dense rotate-pairs kernel, full 2^(n-1) pair sweep.
    Statevector sv = warmed(n);
    const Gate plus = Gate::ry(n / 2, theta);
    const Gate minus = Gate::ry(n / 2, -theta);
    sv_kernel_row("sv_ry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Multi-controlled Ry: masked pair sweep (run decomposition path).
    Statevector sv = warmed(n);
    const std::vector<ControlLiteral> controls = {{1, true}, {n - 2, false}};
    const Gate plus = Gate::mcry(controls, n / 2, theta);
    const Gate minus = Gate::mcry(controls, n / 2, -theta);
    sv_kernel_row("sv_mcry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Uniformly controlled Ry: per-pattern angles, table-driven runs.
    Statevector sv = warmed(n);
    const std::vector<int> controls = {0, 1, n - 1};
    std::vector<double> angles(8);
    std::vector<double> neg(8);
    for (std::size_t s = 0; s < angles.size(); ++s) {
      angles[s] = 0.1 + 0.05 * static_cast<double>(s);
      neg[s] = -angles[s];
    }
    const Gate plus = Gate::ucry(controls, n / 2, angles);
    const Gate minus = Gate::ucry(controls, n / 2, neg);
    sv_kernel_row("sv_ucry", n, sv, [&](Statevector& s) {
      s.apply(plus);
      s.apply(minus);
    });
  }

  {
    // Complex path: Rz diagonal (unit-complex scaling) plus UCRz runs.
    const int nc = n - 2;
    ComplexStatevector sv(nc);
    for (int q = 0; q < nc; ++q) sv.apply(Gate::ry(q, 0.2 + 0.01 * q));
    const std::vector<int> controls = {0, nc - 1};
    std::vector<double> angles(4);
    std::vector<double> neg(4);
    for (std::size_t s = 0; s < angles.size(); ++s) {
      angles[s] = 0.2 + 0.05 * static_cast<double>(s);
      neg[s] = -angles[s];
    }
    const Gate rz_plus = Gate::rz(nc / 2, theta);
    const Gate rz_minus = Gate::rz(nc / 2, -theta);
    const Gate uc_plus = Gate::ucrz(controls, nc / 2, angles);
    const Gate uc_minus = Gate::ucrz(controls, nc / 2, neg);
    sv_kernel_row("csv_rz_ucrz", nc, sv, [&](ComplexStatevector& s) {
      s.apply(rz_plus);
      s.apply(uc_plus);
      s.apply(uc_minus);
      s.apply(rz_minus);
    });
  }
}

/// One canonical-schema json_row per exact-kernel instance (end-to-end
/// searches), with queue- and arena-pressure stats next to the timing.
void emit_search_rows() {
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
          "micro_core",
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
void emit_solver_row() {
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
    for (const Gate& g : circuit.gates()) {
      const int fields[] = {static_cast<int>(g.kind()), g.target()};
      ck = checksum_bytes(fields, sizeof fields, ck);
      for (const ControlLiteral& c : g.controls()) {
        const int literal[] = {c.qubit, c.positive ? 1 : 0};
        ck = checksum_bytes(literal, sizeof literal, ck);
      }
      const double theta = g.theta();
      ck = checksum_bytes(&theta, sizeof theta, ck);
      ck = checksum_bytes(g.angles().data(),
                          g.angles().size() * sizeof(double), ck);
    }
    const std::int64_t cnots = count_cnots_after_lowering(circuit);
    ck = checksum_bytes(&cnots, sizeof cnots, ck);
  }
  qsp::bench::json_row("micro_core",
                       {{"kernel", "solver_prepare"},
                        {"n", 12},
                        {"seconds", timer.seconds()},
                        {"checksum", ck},
                        {"isa", simd::isa_name(simd::active_isa())}});
}

void emit_kernel_json() {
  emit_canonical_rows();
  emit_move_rows();
  emit_heuristic_rows();
  emit_compress_free_row();
  emit_statevector_rows();
  emit_search_rows();
  emit_solver_row();
}

}  // namespace

int main() {
  emit_kernel_json();
  return 0;
}
