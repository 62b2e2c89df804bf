#include "state/state_factory.hpp"

#include <cmath>
#include <stdexcept>

namespace qsp {

QuantumState make_ghz(int num_qubits) {
  const BasisIndex ones = (num_qubits >= 32)
                              ? ~BasisIndex{0}
                              : ((BasisIndex{1} << num_qubits) - 1);
  return QuantumState(num_qubits, {Term{0, 1.0}, Term{ones, 1.0}});
}

QuantumState make_w(int num_qubits) { return make_dicke(num_qubits, 1); }

QuantumState make_dicke(int num_qubits, int k) {
  if (k < 0 || k > num_qubits) {
    throw std::invalid_argument("make_dicke: k out of range");
  }
  std::vector<Term> terms;
  const BasisIndex limit = BasisIndex{1} << num_qubits;
  for (BasisIndex x = 0; x < limit; ++x) {
    if (popcount(x) == k) terms.push_back(Term{x, 1.0});
  }
  return QuantumState(num_qubits, std::move(terms));
}

QuantumState make_uniform(int num_qubits, std::vector<BasisIndex> indices) {
  std::vector<Term> terms;
  terms.reserve(indices.size());
  for (const BasisIndex x : indices) terms.push_back(Term{x, 1.0});
  QuantumState state(num_qubits, std::move(terms));
  if (state.cardinality() != static_cast<int>(indices.size())) {
    throw std::invalid_argument("make_uniform: duplicate indices");
  }
  return state;
}

QuantumState make_random_uniform(int num_qubits, int m, Rng& rng) {
  if (m < 1 || (num_qubits < kMaxQubits &&
                static_cast<std::uint64_t>(m) >
                    (std::uint64_t{1} << num_qubits))) {
    throw std::invalid_argument("make_random_uniform: bad cardinality");
  }
  const auto sampled = rng.sample_distinct(std::uint64_t{1} << num_qubits,
                                           static_cast<std::size_t>(m));
  std::vector<BasisIndex> indices;
  indices.reserve(sampled.size());
  for (const auto v : sampled) indices.push_back(static_cast<BasisIndex>(v));
  return make_uniform(num_qubits, std::move(indices));
}

QuantumState make_random_real(int num_qubits, int m, Rng& rng,
                              bool allow_negative) {
  const auto sampled = rng.sample_distinct(std::uint64_t{1} << num_qubits,
                                           static_cast<std::size_t>(m));
  std::vector<Term> terms;
  terms.reserve(sampled.size());
  for (const auto v : sampled) {
    // Avoid amplitudes too close to zero so cardinality is exactly m.
    double a = rng.next_double(0.1, 1.0);
    if (allow_negative && rng.next_bool()) a = -a;
    terms.push_back(Term{static_cast<BasisIndex>(v), a});
  }
  return QuantumState(num_qubits, std::move(terms));
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
