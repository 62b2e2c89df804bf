#include "circuit/circuit.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "circuit/cost_model.hpp"
#include "util/bitops.hpp"

namespace qsp {

Circuit::Circuit(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("Circuit: qubit count out of range");
  }
}

void Circuit::append(Gate gate) {
  if (gate.max_qubit() >= num_qubits_) {
    throw std::invalid_argument("Circuit::append: gate exceeds register");
  }
  gates_.push_back(std::move(gate));
}

void Circuit::append(const Circuit& other) {
  if (other.num_qubits_ > num_qubits_) {
    throw std::invalid_argument("Circuit::append: register too narrow");
  }
  gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

Circuit Circuit::adjoint() const {
  Circuit out(num_qubits_);
  out.gates_.reserve(gates_.size());
  for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
    out.gates_.push_back(it->adjoint());
  }
  return out;
}

std::int64_t Circuit::cnot_cost() const {
  std::int64_t total = 0;
  for (const Gate& g : gates_) total += gate_cnot_cost(g);
  return total;
}

std::size_t Circuit::depth() const {
  std::vector<std::size_t> wire(static_cast<std::size_t>(num_qubits_), 0);
  std::size_t depth = 0;
  for (const Gate& g : gates_) {
    std::size_t layer = 0;
    for (const int q : g.qubits()) {
      layer = std::max(layer, wire[static_cast<std::size_t>(q)]);
    }
    ++layer;
    for (const int q : g.qubits()) {
      wire[static_cast<std::size_t>(q)] = layer;
    }
    depth = std::max(depth, layer);
  }
  return depth;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  for (const Gate& g : gates_) os << g.to_string() << '\n';
  return os.str();
}

std::string Circuit::draw() const {
  // One column per gate; wires as '-', controls as 'o'/'x' (positive /
  // negative), targets labelled per kind.
  std::vector<std::string> rows(static_cast<std::size_t>(num_qubits_));
  auto pad_all = [&](std::size_t w) {
    for (auto& r : rows) r.resize(w, '-');
  };
  for (const Gate& g : gates_) {
    const std::size_t col = rows[0].size() + 1;  // leave a wire gap
    std::string label;
    switch (g.kind()) {
      case GateKind::kX:
        label = "[X]";
        break;
      case GateKind::kRy:
      case GateKind::kCRy:
      case GateKind::kMCRy: {
        std::ostringstream ls;
        ls.setf(std::ios::fixed);
        ls.precision(2);
        ls << "[Ry " << g.theta() << ']';
        label = ls.str();
        break;
      }
      case GateKind::kCNOT:
        label = "(+)";
        break;
      case GateKind::kUCRy:
        label = "[UCRy]";
        break;
      case GateKind::kRz: {
        std::ostringstream ls;
        ls.setf(std::ios::fixed);
        ls.precision(2);
        ls << "[Rz " << g.theta() << ']';
        label = ls.str();
        break;
      }
      case GateKind::kUCRz:
        label = "[UCRz]";
        break;
      case GateKind::kCZ:
        label = "[CZ]";
        break;
      case GateKind::kISwap:
        label = "[iSW]";
        break;
      case GateKind::kRZZ: {
        std::ostringstream ls;
        ls.setf(std::ios::fixed);
        ls.precision(2);
        ls << "[RZZ " << g.theta() << ']';
        label = ls.str();
        break;
      }
    }
    pad_all(col);
    const std::size_t width = label.size();
    pad_all(col + width);
    auto& target_row = rows[static_cast<std::size_t>(g.target())];
    target_row.replace(col, width, label);
    for (const auto& c : g.controls()) {
      auto& crow = rows[static_cast<std::size_t>(c.qubit)];
      const char mark = (g.kind() == GateKind::kUCRy) ? 'u'
                        : c.positive                  ? 'o'
                                                      : 'x';
      crow[col + width / 2] = mark;
    }
  }
  pad_all(rows[0].size() + 1);
  std::ostringstream os;
  for (int q = 0; q < num_qubits_; ++q) {
    os << 'q' << q << ": " << rows[static_cast<std::size_t>(q)] << '\n';
  }
  return os.str();
}

}  // namespace qsp
