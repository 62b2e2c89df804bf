#pragma once
// Factories for the benchmark families of the paper: GHZ, W, Dicke states
// and the random uniform dense/sparse states of Table V, plus the random
// real and complex families beyond the paper's uniform benchmarks.

#include "state/quantum_state.hpp"
#include "util/rng.hpp"

namespace qsp {

/// |GHZ_n> = (|0...0> + |1...1>)/sqrt(2).
QuantumState make_ghz(int num_qubits);

/// |W_n> = Dicke state with exactly one qubit set.
QuantumState make_w(int num_qubits);

/// Dicke state |D^k_n>: uniform superposition of all n-bit strings of
/// Hamming weight k. Throws for k outside [0, n].
QuantumState make_dicke(int num_qubits, int k);

/// Uniform superposition over `indices` (each amplitude 1/sqrt(m)).
/// Indices must be distinct.
QuantumState make_uniform(int num_qubits, std::vector<BasisIndex> indices);

/// Random uniform state with `m` distinct basis states (Table V workloads:
/// dense m = 2^{n-1}, sparse m = n).
QuantumState make_random_uniform(int num_qubits, int m, Rng& rng);

/// Random state with `m` distinct basis states and i.i.d. signed random
/// amplitudes (generality beyond the paper's uniform benchmarks).
QuantumState make_random_real(int num_qubits, int m, Rng& rng,
                              bool allow_negative = true);

/// Random complex state with m distinct support indices, uniform random
/// phases and magnitudes bounded away from zero.
ComplexState make_random_complex(int num_qubits, int m, Rng& rng);

}  // namespace qsp
