#include "circuit/qasm.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace qsp {

std::string to_qasm(const Circuit& circuit, const LoweringOptions& options) {
  return to_qasm(circuit, Target::cnot(), options);
}

std::string to_qasm(const Circuit& circuit, const Target& target,
                    const LoweringOptions& options) {
  const Circuit lowered = lower_onto(circuit, target, options);
  std::ostringstream os;
  os.precision(17);
  os << "OPENQASM 2.0;\n";
  os << "include \"qelib1.inc\";\n";
  os << "qreg q[" << lowered.num_qubits() << "];\n";
  for (const Gate& g : lowered.gates()) {
    switch (g.kind()) {
      case GateKind::kX:
        os << "x q[" << g.target() << "];\n";
        break;
      case GateKind::kRy:
        os << "ry(" << g.theta() << ") q[" << g.target() << "];\n";
        break;
      case GateKind::kRz:
        os << "rz(" << g.theta() << ") q[" << g.target() << "];\n";
        break;
      case GateKind::kCNOT:
        QSP_ASSERT(g.controls()[0].positive);
        os << "cx q[" << g.controls()[0].qubit << "],q[" << g.target()
           << "];\n";
        break;
      case GateKind::kCZ:
        os << "cz q[" << g.controls()[0].qubit << "],q[" << g.target()
           << "];\n";
        break;
      case GateKind::kISwap:
        os << "iswap q[" << g.controls()[0].qubit << "],q[" << g.target()
           << "];\n";
        break;
      case GateKind::kRZZ:
        os << "rzz(" << g.theta() << ") q[" << g.controls()[0].qubit
           << "],q[" << g.target() << "];\n";
        break;
      default:
        QSP_ASSERT_MSG(false, "lower_onto() must remove composite gates");
    }
  }
  return os.str();
}

namespace {

/// Cursor over one statement line; methods throw with the line number and
/// text attached.
class LineParser {
 public:
  LineParser(const std::string& line, int line_number)
      : line_(line), line_number_(line_number) {}

  void skip_spaces() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_spaces();
    return pos_ >= line_.size();
  }

  /// Consume `token` (after spaces) or report failure.
  bool try_consume(const std::string& token) {
    skip_spaces();
    if (line_.compare(pos_, token.size(), token) != 0) return false;
    pos_ += token.size();
    return true;
  }

  void consume(const std::string& token) {
    if (!try_consume(token)) fail("expected '" + token + "'");
  }

  /// Lowercase identifier (gate mnemonic).
  std::string identifier() {
    skip_spaces();
    std::size_t start = pos_;
    while (pos_ < line_.size() &&
           std::isalpha(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected an identifier");
    return line_.substr(start, pos_ - start);
  }

  int qubit_ref() {
    consume("q");
    consume("[");
    skip_spaces();
    std::size_t start = pos_;
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a qubit index");
    // Bound before narrowing: a wide index must not wrap into a valid one.
    // strtol saturates on overflow, so the bound catches every digit run.
    const long idx = std::strtol(line_.c_str() + start, nullptr, 10);
    if (idx > kMaxQubits) {
      fail("qubit index " + line_.substr(start, pos_ - start) +
           " exceeds the " + std::to_string(kMaxQubits) + "-qubit limit");
    }
    consume("]");
    return static_cast<int>(idx);
  }

  double angle() {
    skip_spaces();
    const char* begin = line_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected an angle");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("from_qasm: " + what + " in line " +
                                std::to_string(line_number_) + ": " + line_);
  }

 private:
  const std::string& line_;
  const int line_number_;
  std::size_t pos_ = 0;
};

}  // namespace

Circuit from_qasm(const std::string& qasm) {
  std::istringstream is(qasm);
  std::optional<Circuit> circuit;
  std::string line;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    // Strip comments; skip blank lines and the fixed headers.
    const std::size_t comment = line.find("//");
    if (comment != std::string::npos) line.erase(comment);
    LineParser p(line, line_number);
    if (p.at_end()) continue;
    if (p.try_consume("OPENQASM")) continue;
    if (p.try_consume("include")) continue;
    if (p.try_consume("qreg")) {
      if (circuit.has_value()) p.fail("duplicate qreg");
      const int n = p.qubit_ref();
      p.consume(";");
      if (n < 1) p.fail("empty register");
      circuit.emplace(n);
      continue;
    }
    if (!circuit.has_value()) {
      p.fail("gate statement before qreg");
    }
    const std::string mnemonic = p.identifier();
    if (mnemonic == "x") {
      circuit->append(Gate::x(p.qubit_ref()));
    } else if (mnemonic == "ry" || mnemonic == "rz") {
      p.consume("(");
      const double theta = p.angle();
      p.consume(")");
      const int target = p.qubit_ref();
      circuit->append(mnemonic == "ry" ? Gate::ry(target, theta)
                                       : Gate::rz(target, theta));
    } else if (mnemonic == "cx") {
      const int control = p.qubit_ref();
      p.consume(",");
      const int target = p.qubit_ref();
      circuit->append(Gate::cnot(control, target));
    } else if (mnemonic == "cz" || mnemonic == "iswap") {
      const int a = p.qubit_ref();
      p.consume(",");
      const int b = p.qubit_ref();
      circuit->append(mnemonic == "cz" ? Gate::cz(a, b) : Gate::iswap(a, b));
    } else if (mnemonic == "rzz") {
      p.consume("(");
      const double theta = p.angle();
      p.consume(")");
      const int a = p.qubit_ref();
      p.consume(",");
      const int b = p.qubit_ref();
      circuit->append(Gate::rzz(a, b, theta));
    } else {
      p.fail("unsupported gate '" + mnemonic + "'");
    }
    p.consume(";");
    if (!p.at_end()) p.fail("trailing characters");
  }
  if (!circuit.has_value()) {
    throw std::invalid_argument("from_qasm: no qreg declaration");
  }
  return *circuit;
}

}  // namespace qsp
