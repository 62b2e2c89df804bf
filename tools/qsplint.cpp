// qsplint: lint OpenQASM 2.0 files (and bench JSONL outputs) with the
// static circuit linter (src/circuit/lint.hpp) and the flow-sensitive
// dataflow engine (src/circuit/dataflow.hpp). Every diagnostic carries
// its rule code (QL000..QL014) and severity; --json emits the machine
// form. Exit codes: 0 clean, 1 diagnostics found (errors, or warnings
// under --strict/--werror), 2 usage or I/O error.
//
//   qsplint file.qasm ...                lint QASM files
//   qsplint --target cz file.qasm        + native-set conformance
//   qsplint --coupling line:6 file.qasm  + coupling conformance
//   qsplint --dataflow file.qasm         per-wire fact table + the
//                                        flow-sensitive rules QL011..QL014
//   qsplint --jsonl results.jsonl        lint each line's "qasm" field of
//                                        a bench JSONL output
//   qsplint --json ...                   JSON report per input
//   qsplint --strict ...                 warnings are failures too
//   qsplint --werror ...                 promote warnings to errors

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lint.hpp"
#include "circuit/target.hpp"

namespace {

using qsp::CouplingGraph;
using qsp::DataflowOptions;
using qsp::LintOptions;
using qsp::LintReport;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] file...\n"
      << "  --target NAME    check native-set conformance"
      << " (cnot|cz|iswap|rzz)\n"
      << "  --coupling SPEC  check coupling conformance; SPEC ="
      << " full:N|line:N|ring:N|star:N|grid:RxC|heavy-hex:D\n"
      << "  --dataflow       run the flow-sensitive dataflow analysis:"
      << " print the\n"
      << "                   per-wire fact table and the QL011..QL014"
      << " diagnostics\n"
      << "  --data-qubits N  with --dataflow: wires at or above N are"
      << " workspace\n"
      << "                   wires that must end provably |0> (QL014)\n"
      << "  --jsonl          inputs are bench JSONL files; lint each"
      << " line's \"qasm\" field\n"
      << "  --json           emit a JSON diagnostic array per input\n"
      << "  --strict         warnings are failures too\n"
      << "  --werror         promote warnings to errors\n"
      << "exit codes: 0 clean, 1 findings (errors, or warnings under"
      << " --strict/--werror),\n"
      << "            2 usage or I/O error\n";
  return 2;
}

std::optional<CouplingGraph> parse_coupling(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string family = spec.substr(0, colon);
  const std::string args = spec.substr(colon + 1);
  try {
    if (family == "grid") {
      const std::size_t x = args.find('x');
      if (x == std::string::npos) return std::nullopt;
      return CouplingGraph::grid(std::stoi(args.substr(0, x)),
                                 std::stoi(args.substr(x + 1)));
    }
    const int n = std::stoi(args);
    if (family == "full") return CouplingGraph::full(n);
    if (family == "line") return CouplingGraph::line(n);
    if (family == "ring") return CouplingGraph::ring(n);
    if (family == "star") return CouplingGraph::star(n);
    if (family == "heavy-hex") return CouplingGraph::heavy_hex(n);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return std::nullopt;
}

/// Extract and unescape the "qasm" string field of one JSON line emitted
/// by bench_common's json_row (flat string escaping: \" \\ \n \t \uXXXX).
std::optional<std::string> extract_qasm_field(const std::string& line) {
  const std::string key = "\"qasm\":\"";
  const std::size_t start = line.find(key);
  if (start == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = start + key.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) return std::nullopt;
    switch (line[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
        if (i + 4 >= line.size()) return std::nullopt;
        out += static_cast<char>(
            std::stoi(line.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default:
        out += line[i];
    }
  }
  return std::nullopt;  // unterminated string
}

struct Outcome {
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

struct Mode {
  bool json = false;
  bool werror = false;
  bool dataflow = false;
  /// --data-qubits: workspace wires start here (-1 = no workspace).
  int data_qubits = -1;
};

void print_report(const std::string& label, LintReport report,
                  const Mode& mode, Outcome& outcome,
                  const qsp::WireFacts* facts = nullptr) {
  if (mode.werror) {
    for (qsp::LintDiagnostic& d : report.diagnostics) {
      if (d.severity == qsp::LintSeverity::kWarning) {
        d.severity = qsp::LintSeverity::kError;
      }
    }
  }
  outcome.errors += report.count(qsp::LintSeverity::kError);
  outcome.warnings += report.count(qsp::LintSeverity::kWarning);
  if (mode.json) {
    std::cout << "{\"input\":\"" << label << "\",";
    if (facts != nullptr) std::cout << "\"facts\":" << facts->to_json() << ",";
    std::cout << "\"diagnostics\":" << report.to_json() << "}\n";
    return;
  }
  if (facts != nullptr) {
    for (const qsp::WireFact& fact : facts->wires) {
      std::cout << label << ": " << fact.to_string() << "\n";
    }
  }
  for (const qsp::LintDiagnostic& d : report.diagnostics) {
    std::cout << label << ": " << d.to_string() << "\n";
  }
}

/// One input in --dataflow mode: parse (the parse can fail with QL000),
/// then run the dataflow analysis and report the fact table plus the
/// flow-sensitive diagnostics. Structural *errors* (malformed circuits,
/// where the facts would be garbage) are kept; structural warnings
/// belong to the default mode and are not re-reported here — so
/// `--dataflow --werror` gates exactly on the flow-sensitive findings.
void run_dataflow(const std::string& label, const std::string& qasm,
                  const LintOptions& options, const Mode& mode,
                  Outcome& outcome) {
  std::optional<qsp::Circuit> parsed;
  LintReport report = qsp::lint_qasm(qasm, options, &parsed);
  if (!parsed.has_value()) {
    print_report(label, std::move(report), mode, outcome);
    return;
  }
  std::erase_if(report.diagnostics, [](const qsp::LintDiagnostic& d) {
    return d.severity != qsp::LintSeverity::kError;
  });
  DataflowOptions dataflow;
  dataflow.num_data_wires = mode.data_qubits;
  const LintReport flow = qsp::dataflow_lint(*parsed, dataflow);
  for (const qsp::LintDiagnostic& d : flow.diagnostics) {
    report.diagnostics.push_back(d);
  }
  const qsp::WireFacts facts = qsp::analyze_circuit(*parsed);
  print_report(label, std::move(report), mode, outcome, &facts);
}

}  // namespace

int main(int argc, char** argv) {
  LintOptions options;
  Mode mode;
  bool strict = false;
  bool jsonl = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      mode.json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--werror") {
      mode.werror = true;
    } else if (arg == "--dataflow") {
      mode.dataflow = true;
    } else if (arg == "--jsonl") {
      jsonl = true;
    } else if (arg == "--data-qubits") {
      if (++i >= argc) return usage(argv[0]);
      try {
        mode.data_qubits = std::stoi(argv[i]);
      } catch (const std::exception&) {
        std::cerr << argv[0] << ": bad --data-qubits '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--target") {
      if (++i >= argc) return usage(argv[0]);
      try {
        options.target = qsp::Target::by_name(argv[i]);
      } catch (const std::invalid_argument& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--coupling") {
      if (++i >= argc) return usage(argv[0]);
      auto coupling = parse_coupling(argv[i]);
      if (!coupling.has_value()) {
        std::cerr << argv[0] << ": bad coupling spec '" << argv[i] << "'\n";
        return 2;
      }
      options.coupling =
          std::make_shared<const CouplingGraph>(std::move(*coupling));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage(argv[0]);

  Outcome outcome;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in.is_open()) {
      std::cerr << argv[0] << ": cannot open " << path << "\n";
      return 2;
    }
    if (jsonl) {
      std::string line;
      std::size_t line_no = 0;
      std::size_t linted = 0;
      while (std::getline(in, line)) {
        ++line_no;
        const auto qasm = extract_qasm_field(line);
        if (!qasm.has_value()) continue;  // rows without circuits are fine
        ++linted;
        std::ostringstream label;
        label << path << ":" << line_no;
        if (mode.dataflow) {
          run_dataflow(label.str(), *qasm, options, mode, outcome);
        } else {
          print_report(label.str(), qsp::lint_qasm(*qasm, options), mode,
                       outcome);
        }
      }
      if (!mode.json) {
        std::cout << path << ": " << linted << " qasm row(s) linted\n";
      }
    } else {
      std::ostringstream text;
      text << in.rdbuf();
      if (mode.dataflow) {
        run_dataflow(path, text.str(), options, mode, outcome);
      } else {
        print_report(path, qsp::lint_qasm(text.str(), options), mode,
                     outcome);
      }
    }
  }

  if (outcome.errors > 0) return 1;
  if (strict && outcome.warnings > 0) return 1;
  return 0;
}
