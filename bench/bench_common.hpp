#pragma once
// Shared helpers for the table/figure reproduction binaries. Every binary
// runs a laptop-scale sweep by default and the paper-scale parameters when
// the environment variable QSP_BENCH_FULL=1 is set; QSP_BENCH_SMOKE=1
// shrinks the sweeps further for CI smoke runs.
//
// Alongside the text tables, every binary emits one machine-readable JSON
// line per table cell via json_row(...) so CI can diff CNOT counts and
// runtimes across commits. Lines go to stdout by default, or are appended
// to the file named by QSP_BENCH_JSON=<path>.

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>

#include "circuit/circuit.hpp"
#include "circuit/pass_pipeline.hpp"
#include "circuit/target.hpp"
#include "state/quantum_state.hpp"

namespace qsp::bench {

/// True when QSP_BENCH_FULL=1 (paper-scale sweeps).
bool full_mode();

/// True when QSP_BENCH_SMOKE=1 (CI smoke: tiniest sweeps, tight limits).
bool smoke_mode();

/// Worker threads for the exact kernel in bench sweeps, from
/// QSP_BENCH_THREADS (default 1 = one shard on the calling thread, 0 = all
/// hardware threads). The fig7 thread-scaling section sweeps its own
/// counts.
int bench_threads();

/// Pass-pipeline level for the workflow in bench sweeps, from
/// QSP_OPT_LEVEL (0/1/2; default 1, the historical cleanup). The
/// ablation_passes binary sweeps all levels regardless of this.
OptLevel bench_opt_level();

/// Backend target for the workflow in bench sweeps, from QSP_TARGET
/// (cnot/cz/iswap/rzz; default cnot, the historical gate set). Exits
/// with a diagnostic on an unknown name.
Target bench_target();

/// Standard banner: what is reproduced and how to widen the sweep.
void print_banner(const std::string& title, const std::string& description);

/// Verify the circuit when simulation is feasible: returns "yes", "NO"
/// (verification ran and failed) or "skipped" (register too wide or the
/// circuit too large to simulate in reasonable time).
std::string verify_cell(const Circuit& circuit, const QuantumState& target,
                        int max_sim_qubits = 16,
                        std::size_t max_gates = 200000);

/// Abort the bench with a message if verification ran and failed.
void check_verified(const std::string& cell, const std::string& context);

/// One key plus a pre-rendered JSON value; built implicitly from the
/// native types the benches report so call sites stay terse.
struct JsonField {
  JsonField(std::string key, const std::string& value);
  JsonField(std::string key, const char* value);
  JsonField(std::string key, double value);
  JsonField(std::string key, std::int64_t value);
  JsonField(std::string key, std::uint64_t value);
  JsonField(std::string key, int value);
  JsonField(std::string key, bool value);

  std::string key;
  std::string rendered;
};

/// Emit one JSON object per table cell: {"bench":<name>,...fields}. The
/// canonical schema is instance / cnot_cost / optimal / seconds / threads
/// (benches add cell-specific extras). Destination: stdout, or appended
/// to the file named by QSP_BENCH_JSON so table output stays clean.
void json_row(const std::string& bench,
              std::initializer_list<JsonField> fields);

/// The same row written to `out` (micro_core's A/B run writes one file per
/// ISA).
void json_row(std::ostream& out, const std::string& bench,
              std::initializer_list<JsonField> fields);

/// Where json_row writes: QSP_BENCH_JSON appended to, or stdout.
std::ostream& json_sink();

}  // namespace qsp::bench
