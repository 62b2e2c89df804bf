#include "phase/complex_state.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qsp {

ComplexState::ComplexState(int num_qubits, std::vector<ComplexTerm> terms)
    : num_qubits_(num_qubits), terms_(std::move(terms)) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("ComplexState: qubit count out of range");
  }
  std::sort(terms_.begin(), terms_.end(),
            [](const ComplexTerm& a, const ComplexTerm& b) {
              return a.index < b.index;
            });
  std::vector<ComplexTerm> merged;
  merged.reserve(terms_.size());
  for (const ComplexTerm& t : terms_) {
    if ((t.index >> num_qubits_) != 0) {
      throw std::invalid_argument("ComplexState: index exceeds register");
    }
    if (!merged.empty() && merged.back().index == t.index) {
      merged.back().amplitude += t.amplitude;
    } else {
      merged.push_back(t);
    }
  }
  std::erase_if(merged, [](const ComplexTerm& t) {
    return std::abs(t.amplitude) <= kAmplitudeEpsilon;
  });
  terms_ = std::move(merged);
  if (terms_.empty()) {
    throw std::invalid_argument("ComplexState: empty support");
  }
  const auto normalize = [this] {
    double norm2 = 0.0;
    for (const ComplexTerm& t : terms_) norm2 += std::norm(t.amplitude);
    const double inv = 1.0 / std::sqrt(norm2);
    for (ComplexTerm& t : terms_) t.amplitude *= inv;
  };
  normalize();
  // As in QuantumState: a term that falls to the epsilon once scaled goes,
  // and only then is the state renormalized.
  if (std::erase_if(terms_, [](const ComplexTerm& t) {
        return std::abs(t.amplitude) <= kAmplitudeEpsilon;
      }) != 0) {
    normalize();
  }
}

ComplexState::ComplexState(const QuantumState& real)
    : num_qubits_(real.num_qubits()) {
  terms_.reserve(real.terms().size());
  for (const Term& t : real.terms()) {
    terms_.push_back(ComplexTerm{t.index, {t.amplitude, 0.0}});
  }
}

std::complex<double> ComplexState::amplitude(BasisIndex x) const {
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), x,
      [](const ComplexTerm& t, BasisIndex v) { return t.index < v; });
  if (it != terms_.end() && it->index == x) return it->amplitude;
  return {0.0, 0.0};
}

QuantumState ComplexState::magnitudes() const {
  std::vector<Term> terms;
  terms.reserve(terms_.size());
  for (const ComplexTerm& t : terms_) {
    terms.push_back(Term{t.index, std::abs(t.amplitude)});
  }
  return QuantumState(num_qubits_, std::move(terms));
}

std::vector<double> ComplexState::phases() const {
  std::vector<double> out;
  out.reserve(terms_.size());
  for (const ComplexTerm& t : terms_) out.push_back(std::arg(t.amplitude));
  return out;
}

bool ComplexState::is_real(double tol) const {
  const double global = std::arg(terms_.front().amplitude);
  for (const ComplexTerm& t : terms_) {
    const std::complex<double> rotated =
        t.amplitude * std::polar(1.0, -global);
    if (std::abs(rotated.imag()) > tol) return false;
  }
  return true;
}

double ComplexState::fidelity(const ComplexState& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("ComplexState::fidelity: width mismatch");
  }
  std::complex<double> ip{0.0, 0.0};
  auto it_a = terms_.begin();
  auto it_b = other.terms_.begin();
  while (it_a != terms_.end() && it_b != other.terms_.end()) {
    if (it_a->index < it_b->index) {
      ++it_a;
    } else if (it_b->index < it_a->index) {
      ++it_b;
    } else {
      ip += std::conj(it_a->amplitude) * it_b->amplitude;
      ++it_a;
      ++it_b;
    }
  }
  return std::norm(ip);
}

std::string ComplexState::to_string() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  bool first = true;
  for (const ComplexTerm& t : terms_) {
    if (!first) os << " + ";
    os << '(' << t.amplitude.real() << (t.amplitude.imag() < 0 ? "-" : "+")
       << std::abs(t.amplitude.imag()) << "i)|"
       << to_bitstring(t.index, num_qubits_) << '>';
    first = false;
  }
  return os.str();
}

ComplexState make_random_complex(int num_qubits, int m, Rng& rng) {
  const auto indices = rng.sample_distinct(std::uint64_t{1} << num_qubits,
                                           static_cast<std::size_t>(m));
  std::vector<ComplexTerm> terms;
  terms.reserve(indices.size());
  for (const auto x : indices) {
    const double mag = rng.next_double(0.2, 1.0);
    const double phase = rng.next_double(-3.14159265358979, 3.14159265358979);
    terms.push_back(ComplexTerm{static_cast<BasisIndex>(x),
                                std::polar(mag, phase)});
  }
  return ComplexState(num_qubits, std::move(terms));
}

}  // namespace qsp
