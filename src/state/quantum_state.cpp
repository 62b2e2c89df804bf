#include "state/quantum_state.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qsp {
namespace {

void check_qubit_count(int n) {
  if (n < 1 || n > kMaxQubits) {
    throw std::invalid_argument("QuantumState: qubit count out of range");
  }
}

/// Remove bit `q` from x, shifting higher bits down.
BasisIndex drop_bit(BasisIndex x, int q) {
  const BasisIndex low = x & ((BasisIndex{1} << q) - 1);
  const BasisIndex high = x >> (q + 1);
  return low | (high << q);
}

}  // namespace

QuantumState::QuantumState(int num_qubits) : num_qubits_(num_qubits) {
  check_qubit_count(num_qubits);
  terms_.push_back(Term{0, 1.0});
}

QuantumState::QuantumState(int num_qubits, std::vector<Term> terms)
    : num_qubits_(num_qubits), terms_(std::move(terms)) {
  check_qubit_count(num_qubits);
  for (const Term& t : terms_) {
    if ((t.index >> num_qubits_) != 0) {
      throw std::invalid_argument("QuantumState: index exceeds register");
    }
  }
  normalize_and_check();
}

QuantumState QuantumState::from_dense(int num_qubits,
                                      const std::vector<double>& amplitudes) {
  check_qubit_count(num_qubits);
  if (amplitudes.size() != (std::size_t{1} << num_qubits)) {
    throw std::invalid_argument("from_dense: wrong vector size");
  }
  std::vector<Term> terms;
  for (std::size_t i = 0; i < amplitudes.size(); ++i) {
    // Non-finite entries pass through so the constructor rejects them.
    if (!std::isfinite(amplitudes[i]) ||
        std::abs(amplitudes[i]) > kAmplitudeEpsilon) {
      terms.push_back(Term{static_cast<BasisIndex>(i), amplitudes[i]});
    }
  }
  return QuantumState(num_qubits, std::move(terms));
}

void QuantumState::normalize_and_check() {
  std::sort(terms_.begin(), terms_.end(),
            [](const Term& a, const Term& b) { return a.index < b.index; });
  // Merge duplicate indices (amplitudes add coherently).
  std::vector<Term> merged;
  merged.reserve(terms_.size());
  for (const Term& t : terms_) {
    if (!merged.empty() && merged.back().index == t.index) {
      merged.back().amplitude += t.amplitude;
    } else {
      merged.push_back(t);
    }
  }
  // NaN slips through every comparison below, and inf (including a sum
  // of huge duplicates) normalizes everything else to zero.
  for (const Term& t : merged) {
    if (!std::isfinite(t.amplitude)) {
      throw std::invalid_argument("QuantumState: non-finite amplitude");
    }
  }
  std::erase_if(merged, [](const Term& t) {
    return std::abs(t.amplitude) <= kAmplitudeEpsilon;
  });
  terms_ = std::move(merged);
  if (terms_.empty()) {
    throw std::invalid_argument("QuantumState: empty support");
  }
  const auto sum_of_squares = [this] {
    double sum = 0.0;
    for (const Term& t : terms_) sum += t.amplitude * t.amplitude;
    return sum;
  };
  double norm2 = sum_of_squares();
  if (norm2 <= kAmplitudeEpsilon) {
    throw std::invalid_argument("QuantumState: zero norm");
  }
  if (std::isinf(norm2)) {
    // Finite amplitudes whose squares overflow: divide by the largest
    // magnitude first. Inputs in range keep the plain sum, so their
    // normalized amplitudes stay bit-identical.
    double scale = 0.0;
    for (const Term& t : terms_) {
      scale = std::max(scale, std::abs(t.amplitude));
    }
    for (Term& t : terms_) t.amplitude /= scale;
    norm2 = sum_of_squares();
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (Term& t : terms_) t.amplitude *= inv;
  // A term that passed the filter above can fall to the epsilon once
  // scaled, and every consumer treats such a term as zero. Renormalizing
  // only when one goes keeps every other input's bits. The largest term
  // is at least 1/sqrt(m), so the support never empties.
  if (std::erase_if(terms_, [](const Term& t) {
        return std::abs(t.amplitude) <= kAmplitudeEpsilon;
      }) != 0) {
    const double reinv = 1.0 / std::sqrt(sum_of_squares());
    for (Term& t : terms_) t.amplitude *= reinv;
  }
}

double QuantumState::amplitude(BasisIndex x) const {
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), x,
      [](const Term& t, BasisIndex v) { return t.index < v; });
  if (it != terms_.end() && it->index == x) return it->amplitude;
  return 0.0;
}

bool QuantumState::is_ground() const {
  return terms_.size() == 1 && terms_[0].index == 0;
}

bool QuantumState::is_uniform(double tol) const {
  const double expected =
      1.0 / std::sqrt(static_cast<double>(terms_.size()));
  return std::all_of(terms_.begin(), terms_.end(), [&](const Term& t) {
    return std::abs(t.amplitude - expected) <= tol;
  });
}

double QuantumState::inner_product(const QuantumState& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("inner_product: qubit count mismatch");
  }
  double acc = 0.0;
  auto it_a = terms_.begin();
  auto it_b = other.terms_.begin();
  while (it_a != terms_.end() && it_b != other.terms_.end()) {
    if (it_a->index < it_b->index) {
      ++it_a;
    } else if (it_b->index < it_a->index) {
      ++it_b;
    } else {
      acc += it_a->amplitude * it_b->amplitude;
      ++it_a;
      ++it_b;
    }
  }
  return acc;
}

double QuantumState::fidelity(const QuantumState& other) const {
  const double ip = inner_product(other);
  return ip * ip;
}

bool QuantumState::approx_equal(const QuantumState& other, double tol) const {
  if (other.num_qubits_ != num_qubits_) return false;
  return fidelity(other) >= 1.0 - tol;
}

void QuantumState::check_qubit(int qubit) const {
  if (qubit < 0 || qubit >= num_qubits_) {
    throw std::out_of_range("QuantumState: qubit outside the register");
  }
}

std::vector<BasisIndex> QuantumState::cofactor_indices(int qubit,
                                                       int value) const {
  check_qubit(qubit);
  std::vector<BasisIndex> out;
  for (const Term& t : terms_) {
    if (get_bit(t.index, qubit) == value) {
      out.push_back(drop_bit(t.index, qubit));
    }
  }
  return out;
}

bool QuantumState::qubit_separable(int qubit, double tol) const {
  check_qubit(qubit);
  // Collect (rest-index, amplitude) for each branch of the qubit.
  std::vector<std::pair<BasisIndex, double>> zero, one;
  for (const Term& t : terms_) {
    auto& side = (get_bit(t.index, qubit) == 0) ? zero : one;
    side.emplace_back(drop_bit(t.index, qubit), t.amplitude);
  }
  if (zero.empty() || one.empty()) return true;  // constant qubit
  if (zero.size() != one.size()) return false;
  // Separable iff one[i].amplitude = r * zero[i].amplitude for a fixed r on
  // identical rest supports (both sides are sorted by construction).
  const double r = one.front().second / zero.front().second;
  for (std::size_t i = 0; i < zero.size(); ++i) {
    if (zero[i].first != one[i].first) return false;
    if (std::abs(one[i].second - r * zero[i].second) > tol) return false;
  }
  return true;
}

std::vector<double> QuantumState::to_dense() const {
  std::vector<double> dense(std::size_t{1} << num_qubits_, 0.0);
  for (const Term& t : terms_) dense[t.index] = t.amplitude;
  return dense;
}

std::string QuantumState::to_string() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  bool first = true;
  for (const Term& t : terms_) {
    if (!first) os << (t.amplitude < 0 ? " - " : " + ");
    if (first && t.amplitude < 0) os << '-';
    os << std::abs(t.amplitude) << '|' << to_bitstring(t.index, num_qubits_)
       << '>';
    first = false;
  }
  return os.str();
}

}  // namespace qsp
