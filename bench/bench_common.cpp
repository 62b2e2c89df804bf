#include "bench_common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/verifier.hpp"

namespace qsp::bench {
namespace {

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && std::strcmp(env, "1") == 0;
}

std::string escape_json(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

bool full_mode() { return env_flag("QSP_BENCH_FULL"); }

bool smoke_mode() { return env_flag("QSP_BENCH_SMOKE"); }

int bench_threads() {
  const char* env = std::getenv("QSP_BENCH_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const int threads = std::atoi(env);
  return threads < 0 ? 1 : threads;
}

OptLevel bench_opt_level() {
  const char* env = std::getenv("QSP_OPT_LEVEL");
  if (env == nullptr || *env == '\0') return OptLevel::kO1;
  switch (std::atoi(env)) {
    case 0:
      return OptLevel::kO0;
    case 2:
      return OptLevel::kO2;
    default:
      return OptLevel::kO1;
  }
}

Target bench_target() {
  const char* env = std::getenv("QSP_TARGET");
  if (env == nullptr || *env == '\0') return Target::cnot();
  try {
    return Target::by_name(env);
  } catch (const std::exception& e) {
    std::cerr << "QSP_TARGET: " << e.what() << "\n";
    std::exit(1);
  }
}

void print_banner(const std::string& title, const std::string& description) {
  std::cout << "=== " << title << " ===\n";
  std::cout << description << "\n";
  if (smoke_mode()) {
    std::cout << "mode: SMOKE (CI-sized sweep)\n\n";
    return;
  }
  std::cout << (full_mode()
                    ? "mode: FULL (paper-scale parameters)\n"
                    : "mode: default (set QSP_BENCH_FULL=1 for the "
                      "paper-scale sweep)\n")
            << "\n";
}

std::string verify_cell(const Circuit& circuit, const QuantumState& target,
                        int max_sim_qubits, std::size_t max_gates) {
  if (circuit.num_qubits() > max_sim_qubits ||
      circuit.size() > max_gates) {
    return "skipped";
  }
  return verify_preparation(circuit, target).ok ? "yes" : "NO";
}

void check_verified(const std::string& cell, const std::string& context) {
  if (cell == "NO") {
    std::cerr << "VERIFICATION FAILED: " << context << "\n";
    std::exit(1);
  }
}

JsonField::JsonField(std::string k, const std::string& value)
    : key(std::move(k)), rendered("\"" + escape_json(value) + "\"") {}
JsonField::JsonField(std::string k, const char* value)
    : JsonField(std::move(k), std::string(value)) {}
JsonField::JsonField(std::string k, double value) : key(std::move(k)) {
  if (!std::isfinite(value)) {
    rendered = "null";
  } else {
    std::ostringstream out;
    out.precision(9);
    out << value;
    rendered = out.str();
  }
}
JsonField::JsonField(std::string k, std::int64_t value)
    : key(std::move(k)), rendered(std::to_string(value)) {}
JsonField::JsonField(std::string k, std::uint64_t value)
    : key(std::move(k)), rendered(std::to_string(value)) {}
JsonField::JsonField(std::string k, int value)
    : key(std::move(k)), rendered(std::to_string(value)) {}
JsonField::JsonField(std::string k, bool value)
    : key(std::move(k)), rendered(value ? "true" : "false") {}

/// The JSON sink, resolved once: append to QSP_BENCH_JSON if set (so a CI
/// sweep across several binaries lands in one file), stdout otherwise.
std::ostream& json_sink() {
  static std::ofstream* file = [] {
    const char* path = std::getenv("QSP_BENCH_JSON");
    if (path == nullptr || *path == '\0') return (std::ofstream*)nullptr;
    auto* out = new std::ofstream(path, std::ios::app);
    if (!out->is_open()) {
      std::cerr << "QSP_BENCH_JSON: cannot open " << path
                << ", falling back to stdout\n";
      delete out;
      return (std::ofstream*)nullptr;
    }
    return out;
  }();
  return file != nullptr ? *file : std::cout;
}

void json_row(const std::string& bench,
              std::initializer_list<JsonField> fields) {
  json_row(json_sink(), bench, fields);
}

void json_row(std::ostream& out, const std::string& bench,
              std::initializer_list<JsonField> fields) {
  out << "{\"bench\":\"" << escape_json(bench) << "\"";
  for (const JsonField& field : fields) {
    out << ",\"" << escape_json(field.key) << "\":" << field.rendered;
  }
  out << "}\n" << std::flush;
}

}  // namespace qsp::bench
