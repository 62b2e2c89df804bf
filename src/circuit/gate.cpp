#include "circuit/gate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qsp {
namespace {

void check_target(int target) {
  if (target < 0) throw std::invalid_argument("Gate: negative target");
}

void check_controls(const std::vector<ControlLiteral>& controls, int target) {
  for (std::size_t i = 0; i < controls.size(); ++i) {
    if (controls[i].qubit < 0) {
      throw std::invalid_argument("Gate: negative control qubit");
    }
    if (controls[i].qubit == target) {
      throw std::invalid_argument("Gate: control equals target");
    }
    for (std::size_t j = i + 1; j < controls.size(); ++j) {
      if (controls[i].qubit == controls[j].qubit) {
        throw std::invalid_argument("Gate: duplicate control qubit");
      }
    }
  }
}

}  // namespace

Gate Gate::x(int target) {
  check_target(target);
  Gate g;
  g.kind_ = GateKind::kX;
  g.target_ = target;
  return g;
}

Gate Gate::ry(int target, double theta) {
  check_target(target);
  Gate g;
  g.kind_ = GateKind::kRy;
  g.target_ = target;
  g.theta_ = theta;
  return g;
}

Gate Gate::cnot(int control, int target, bool positive) {
  check_target(target);
  Gate g;
  g.kind_ = GateKind::kCNOT;
  g.target_ = target;
  g.controls_ = {ControlLiteral{control, positive}};
  check_controls(g.controls_, target);
  return g;
}

Gate Gate::cry(int control, int target, double theta, bool positive) {
  check_target(target);
  Gate g;
  g.kind_ = GateKind::kCRy;
  g.target_ = target;
  g.theta_ = theta;
  g.controls_ = {ControlLiteral{control, positive}};
  check_controls(g.controls_, target);
  return g;
}

Gate Gate::mcry(std::vector<ControlLiteral> controls, int target,
                double theta) {
  check_target(target);
  check_controls(controls, target);
  if (controls.empty()) return ry(target, theta);
  if (controls.size() == 1) {
    return cry(controls[0].qubit, target, theta, controls[0].positive);
  }
  Gate g;
  g.kind_ = GateKind::kMCRy;
  g.target_ = target;
  g.theta_ = theta;
  g.controls_ = std::move(controls);
  std::sort(g.controls_.begin(), g.controls_.end(),
            [](const ControlLiteral& a, const ControlLiteral& b) {
              return a.qubit < b.qubit;
            });
  return g;
}

Gate Gate::ucry(std::vector<int> controls, int target,
                std::vector<double> angles) {
  check_target(target);
  if (angles.size() != (std::size_t{1} << controls.size())) {
    throw std::invalid_argument("ucry: angles size must be 2^controls");
  }
  std::vector<ControlLiteral> literals;
  literals.reserve(controls.size());
  for (const int c : controls) literals.push_back(ControlLiteral{c, true});
  check_controls(literals, target);
  Gate g;
  g.kind_ = GateKind::kUCRy;
  g.target_ = target;
  g.controls_ = std::move(literals);
  g.angles_ = std::move(angles);
  return g;
}

Gate Gate::rz(int target, double theta) {
  check_target(target);
  Gate g;
  g.kind_ = GateKind::kRz;
  g.target_ = target;
  g.theta_ = theta;
  return g;
}

Gate Gate::ucrz(std::vector<int> controls, int target,
                std::vector<double> angles) {
  Gate g = ucry(std::move(controls), target, std::move(angles));
  g.kind_ = GateKind::kUCRz;
  return g;
}

// Symmetric two-qubit natives: canonical wire order (the lower wire is
// stored as the positive control literal) so cz(a, b) == cz(b, a); the
// cnot factory validates the pair.
Gate Gate::cz(int a, int b) {
  Gate g = cnot(std::min(a, b), std::max(a, b));
  g.kind_ = GateKind::kCZ;
  return g;
}

Gate Gate::iswap(int a, int b) {
  Gate g = cnot(std::min(a, b), std::max(a, b));
  g.kind_ = GateKind::kISwap;
  return g;
}

Gate Gate::rzz(int a, int b, double theta) {
  Gate g = cnot(std::min(a, b), std::max(a, b));
  g.kind_ = GateKind::kRZZ;
  g.theta_ = theta;
  return g;
}

int Gate::num_controls() const { return static_cast<int>(controls_.size()); }

Gate Gate::adjoint() const {
  if (kind_ == GateKind::kISwap) {
    // iSwap's inverse (iSwap^3, or iSwap with -i phases) is not in the
    // gate set; negating nothing would silently return the wrong gate.
    throw std::logic_error("Gate::adjoint: iSwap has no in-set inverse");
  }
  Gate g = *this;
  g.theta_ = -theta_;
  for (double& a : g.angles_) a = -a;
  return g;
}

Gate Gate::remapped(const std::vector<int>& qubit_map) const {
  auto map = [&qubit_map](int q) {
    if (q < 0 || q >= static_cast<int>(qubit_map.size())) {
      throw std::invalid_argument("Gate::remapped: qubit outside map");
    }
    return qubit_map[static_cast<std::size_t>(q)];
  };
  const int t = map(target_);
  // The factories re-validate the mapped wires and restore each kind's
  // canonical form.
  Gate g = [&] {
    switch (kind_) {
      case GateKind::kX:
        return x(t);
      case GateKind::kRy:
        return ry(t, theta_);
      case GateKind::kRz:
        return rz(t, theta_);
      case GateKind::kCNOT:
        return cnot(map(controls_[0].qubit), t, controls_[0].positive);
      case GateKind::kCRy:
        return cry(map(controls_[0].qubit), t, theta_, controls_[0].positive);
      case GateKind::kMCRy: {
        std::vector<ControlLiteral> controls = controls_;
        for (ControlLiteral& c : controls) c.qubit = map(c.qubit);
        return mcry(std::move(controls), t, theta_);
      }
      case GateKind::kUCRy:
      case GateKind::kUCRz: {
        // The table is indexed by control position, so the order stays.
        std::vector<int> wires;
        wires.reserve(controls_.size());
        for (const ControlLiteral& c : controls_) {
          wires.push_back(map(c.qubit));
        }
        return kind_ == GateKind::kUCRy ? ucry(std::move(wires), t, angles_)
                                        : ucrz(std::move(wires), t, angles_);
      }
      case GateKind::kCZ:
        return cz(map(controls_[0].qubit), t);
      case GateKind::kISwap:
        return iswap(map(controls_[0].qubit), t);
      case GateKind::kRZZ:
        return rzz(map(controls_[0].qubit), t, theta_);
    }
    throw std::logic_error("Gate::remapped: unknown gate kind");
  }();
  // Only the wires change. A kind without an angle keeps its unused theta
  // bit for bit too: adjoint() leaves -0.0 there, and outputs that went
  // through a remap must hash as they did before it.
  g.theta_ = theta_;
  return g;
}

std::vector<int> Gate::qubits() const {
  std::vector<int> qs;
  qs.reserve(controls_.size() + 1);
  for (const auto& c : controls_) qs.push_back(c.qubit);
  qs.push_back(target_);
  return qs;
}

int Gate::max_qubit() const {
  int m = target_;
  for (const auto& c : controls_) m = std::max(m, c.qubit);
  return m;
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  auto controls_str = [&]() {
    std::string s;
    for (const auto& c : controls_) {
      if (!s.empty()) s += ',';
      if (!c.positive) s += '!';
      s += std::to_string(c.qubit);
    }
    return s;
  };
  switch (kind_) {
    case GateKind::kX:
      os << "X(q" << target_ << ')';
      break;
    case GateKind::kRy:
      os << "Ry(q" << target_ << ", " << theta_ << ')';
      break;
    case GateKind::kCNOT:
      os << "CNOT(" << controls_str() << " -> q" << target_ << ')';
      break;
    case GateKind::kCRy:
      os << "CRy(" << controls_str() << " -> q" << target_ << ", " << theta_
         << ')';
      break;
    case GateKind::kMCRy:
      os << "MCRy(" << controls_str() << " -> q" << target_ << ", " << theta_
         << ')';
      break;
    case GateKind::kUCRy:
      os << "UCRy(" << controls_str() << " -> q" << target_ << ", "
         << angles_.size() << " angles)";
      break;
    case GateKind::kRz:
      os << "Rz(q" << target_ << ", " << theta_ << ')';
      break;
    case GateKind::kUCRz:
      os << "UCRz(" << controls_str() << " -> q" << target_ << ", "
         << angles_.size() << " angles)";
      break;
    case GateKind::kCZ:
      os << "CZ(q" << controls_[0].qubit << ", q" << target_ << ')';
      break;
    case GateKind::kISwap:
      os << "iSWAP(q" << controls_[0].qubit << ", q" << target_ << ')';
      break;
    case GateKind::kRZZ:
      os << "RZZ(q" << controls_[0].qubit << ", q" << target_ << ", "
         << theta_ << ')';
      break;
  }
  return os.str();
}

bool is_identity_rotation(const Gate& gate) {
  const auto identity = [](double a) {
    return std::abs(a) <= kIdentityAngleEpsilon;
  };
  switch (gate.kind()) {
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kRz:
    case GateKind::kRZZ:
      return identity(gate.theta());
    case GateKind::kUCRy:
    case GateKind::kUCRz:
      return std::all_of(gate.angles().begin(), gate.angles().end(),
                         identity);
    case GateKind::kX:
    case GateKind::kCNOT:
    case GateKind::kCZ:
    case GateKind::kISwap:
      return false;
  }
  return false;
}

bool is_self_inverse(GateKind kind) {
  return kind == GateKind::kX || kind == GateKind::kCNOT ||
         kind == GateKind::kCZ;
}

}  // namespace qsp
