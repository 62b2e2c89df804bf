#include "state/quantum_state.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace qsp {
namespace {

template <typename Amp>
constexpr const char* kName =
    BasicState<Amp>::kComplex ? "ComplexState" : "QuantumState";

/// Throw std::invalid_argument naming the class.
template <typename Amp>
[[noreturn]] void reject(const char* what) {
  throw std::invalid_argument(std::string(kName<Amp>) + ": " + what);
}

template <typename Amp>
void check_qubit_count(int n) {
  if (n < 1 || n > kMaxQubits) reject<Amp>("qubit count out of range");
}

// The input rule reads a real amplitude as a complex one with a zero
// imaginary part: std::real and std::imag of a double are the double and
// 0, and std::norm of a double is its square. So each step below is one
// expression for both types, and the real type's arithmetic is the plain
// real arithmetic.

/// True when both parts are finite.
template <typename Amp>
bool is_finite(const Amp& a) {
  return std::isfinite(std::real(a)) && std::isfinite(std::imag(a));
}

/// The largest component magnitude, |a| for a real amplitude. Unlike
/// std::abs of a complex amplitude, it cannot overflow.
template <typename Amp>
double largest_part(const Amp& a) {
  return std::max(std::abs(std::real(a)), std::abs(std::imag(a)));
}

}  // namespace

template <typename Amp>
BasicState<Amp>::BasicState(int num_qubits) : num_qubits_(num_qubits) {
  check_qubit_count<Amp>(num_qubits);
  terms_.push_back(BasicTerm<Amp>{0, Amp{1.0}});
}

template <typename Amp>
BasicState<Amp>::BasicState(int num_qubits, std::vector<BasicTerm<Amp>> terms)
    : num_qubits_(num_qubits), terms_(std::move(terms)) {
  check_qubit_count<Amp>(num_qubits);
  for (const BasicTerm<Amp>& t : terms_) {
    if ((t.index >> num_qubits_) != 0) reject<Amp>("index exceeds register");
  }
  normalize_and_check();
}

template <typename Amp>
BasicState<Amp> BasicState<Amp>::from_dense(
    int num_qubits, const std::vector<Amp>& amplitudes) {
  check_qubit_count<Amp>(num_qubits);
  if (amplitudes.size() != (std::size_t{1} << num_qubits)) {
    throw std::invalid_argument("from_dense: wrong vector size");
  }
  std::vector<BasicTerm<Amp>> terms;
  for (std::size_t i = 0; i < amplitudes.size(); ++i) {
    // Non-finite entries pass through so the constructor rejects them.
    if (!is_finite(amplitudes[i]) ||
        std::abs(amplitudes[i]) > kAmplitudeEpsilon) {
      terms.push_back(
          BasicTerm<Amp>{static_cast<BasisIndex>(i), amplitudes[i]});
    }
  }
  return BasicState(num_qubits, std::move(terms));
}

template <typename Amp>
BasicState<Amp> BasicState<Amp>::from_real(const BasicState<double>& real) {
  // The real state already holds the invariants, so its bits carry over
  // without a second normalization.
  std::vector<BasicTerm<Amp>> terms;
  terms.reserve(real.terms().size());
  for (const BasicTerm<double>& t : real.terms()) {
    terms.push_back(BasicTerm<Amp>{t.index, Amp{t.amplitude}});
  }
  BasicState lifted(real.num_qubits());
  lifted.terms_ = std::move(terms);
  return lifted;
}

template <typename Amp>
void BasicState<Amp>::normalize_and_check() {
  std::sort(terms_.begin(), terms_.end(),
            [](const BasicTerm<Amp>& a, const BasicTerm<Amp>& b) {
              return a.index < b.index;
            });
  // Merge duplicate indices (amplitudes add coherently).
  std::vector<BasicTerm<Amp>> merged;
  merged.reserve(terms_.size());
  for (const BasicTerm<Amp>& t : terms_) {
    if (!merged.empty() && merged.back().index == t.index) {
      merged.back().amplitude += t.amplitude;
    } else {
      merged.push_back(t);
    }
  }
  // NaN slips through every comparison below, and inf (including a sum
  // of huge duplicates) normalizes everything else to zero.
  for (const BasicTerm<Amp>& t : merged) {
    if (!is_finite(t.amplitude)) reject<Amp>("non-finite amplitude");
  }
  std::erase_if(merged, [](const BasicTerm<Amp>& t) {
    return std::abs(t.amplitude) <= kAmplitudeEpsilon;
  });
  terms_ = std::move(merged);
  if (terms_.empty()) reject<Amp>("empty support");
  const auto sum_of_squares = [this] {
    double sum = 0.0;
    for (const BasicTerm<Amp>& t : terms_) sum += std::norm(t.amplitude);
    return sum;
  };
  double norm2 = sum_of_squares();
  if (norm2 <= kAmplitudeEpsilon) reject<Amp>("zero norm");
  if (std::isinf(norm2)) {
    // Finite amplitudes whose squares overflow: divide by the largest
    // component magnitude first. Inputs in range keep the plain sum, so
    // their normalized amplitudes stay bit-identical.
    double scale = 0.0;
    for (const BasicTerm<Amp>& t : terms_) {
      scale = std::max(scale, largest_part(t.amplitude));
    }
    for (BasicTerm<Amp>& t : terms_) t.amplitude /= scale;
    norm2 = sum_of_squares();
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (BasicTerm<Amp>& t : terms_) t.amplitude *= inv;
  // A term that passed the filter above can fall to the epsilon once
  // scaled, and every consumer treats such a term as zero. Renormalizing
  // only when one goes keeps every other input's bits. The largest term
  // is at least 1/sqrt(m), so the support never empties.
  if (std::erase_if(terms_, [](const BasicTerm<Amp>& t) {
        return std::abs(t.amplitude) <= kAmplitudeEpsilon;
      }) != 0) {
    const double reinv = 1.0 / std::sqrt(sum_of_squares());
    for (BasicTerm<Amp>& t : terms_) t.amplitude *= reinv;
  }
}

template <typename Amp>
Amp BasicState<Amp>::amplitude(BasisIndex x) const {
  const auto it = std::lower_bound(
      terms_.begin(), terms_.end(), x,
      [](const BasicTerm<Amp>& t, BasisIndex v) { return t.index < v; });
  if (it != terms_.end() && it->index == x) return it->amplitude;
  return Amp{};
}

template <typename Amp>
bool BasicState<Amp>::is_ground() const {
  return terms_.size() == 1 && terms_[0].index == 0;
}

template <typename Amp>
bool BasicState<Amp>::is_uniform(double tol) const {
  const double expected =
      1.0 / std::sqrt(static_cast<double>(terms_.size()));
  return std::all_of(terms_.begin(), terms_.end(),
                     [&](const BasicTerm<Amp>& t) {
                       return std::abs(t.amplitude - expected) <= tol;
                     });
}

template <typename Amp>
Amp BasicState<Amp>::inner_product(const BasicState& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("inner_product: qubit count mismatch");
  }
  Amp acc{};
  auto it_a = terms_.begin();
  auto it_b = other.terms_.begin();
  while (it_a != terms_.end() && it_b != other.terms_.end()) {
    if (it_a->index < it_b->index) {
      ++it_a;
    } else if (it_b->index < it_a->index) {
      ++it_b;
    } else {
      acc += conj_times(it_a->amplitude, it_b->amplitude);
      ++it_a;
      ++it_b;
    }
  }
  return acc;
}

template <typename Amp>
double BasicState<Amp>::fidelity(const BasicState& other) const {
  return std::norm(inner_product(other));
}

template <typename Amp>
bool BasicState<Amp>::approx_equal(const BasicState& other,
                                   double tol) const {
  if (other.num_qubits_ != num_qubits_) return false;
  return fidelity(other) >= 1.0 - tol;
}

template <typename Amp>
std::vector<Amp> BasicState<Amp>::to_dense() const {
  std::vector<Amp> dense(std::size_t{1} << num_qubits_, Amp{});
  for (const BasicTerm<Amp>& t : terms_) dense[t.index] = t.amplitude;
  return dense;
}

template <typename Amp>
BasicState<double> BasicState<Amp>::magnitudes() const
  requires kComplex
{
  std::vector<BasicTerm<double>> terms;
  terms.reserve(terms_.size());
  for (const BasicTerm<Amp>& t : terms_) {
    terms.push_back(BasicTerm<double>{t.index, std::abs(t.amplitude)});
  }
  return BasicState<double>(num_qubits_, std::move(terms));
}

template <typename Amp>
std::vector<double> BasicState<Amp>::phases() const
  requires kComplex
{
  std::vector<double> out;
  out.reserve(terms_.size());
  for (const BasicTerm<Amp>& t : terms_) out.push_back(std::arg(t.amplitude));
  return out;
}

template <typename Amp>
std::string BasicState<Amp>::to_string() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  bool first = true;
  for (const BasicTerm<Amp>& t : terms_) {
    if constexpr (kComplex) {
      if (!first) os << " + ";
      os << '(' << t.amplitude.real() << (t.amplitude.imag() < 0 ? "-" : "+")
         << std::abs(t.amplitude.imag()) << "i)";
    } else {
      if (!first) os << (t.amplitude < 0 ? " - " : " + ");
      if (first && t.amplitude < 0) os << '-';
      os << std::abs(t.amplitude);
    }
    os << '|' << to_bitstring(t.index, num_qubits_) << '>';
    first = false;
  }
  return os.str();
}

template class BasicState<double>;
template class BasicState<std::complex<double>>;

}  // namespace qsp
