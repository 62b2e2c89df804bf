#include "sim/statevector.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bitops.hpp"

// This TU is compiled with -ffp-contract=off (see CMakeLists.txt): the
// element formulas below are fixed mul/add/sub sequences, and a
// -march=x86-64-v3 build must not fuse them into FMAs, which round
// differently from the default build.

namespace qsp {
namespace {

template <typename Amp>
constexpr const char* kName =
    BasicStatevector<Amp>::kComplex ? "ComplexStatevector" : "Statevector";

template <typename Amp>
void check_width(int num_qubits, int other_qubits, const char* method) {
  if (other_qubits > num_qubits) {
    throw std::invalid_argument(
        std::string(kName<Amp>) + "::" + method + ": argument has " +
        std::to_string(other_qubits) + " qubits, register has " +
        std::to_string(num_qubits));
  }
}

// Every gate kind acts on the pairs (i, i + 2^target) over the indices i
// with the target bit clear whose control bits (for RZZ and iSWAP, the
// other wire's bit) match a pattern. Those indices form contiguous runs of
// length 2^countr_zero(tbit | ctrl_mask): within a run only bits below the
// lowest constrained bit vary. Each gate kind is one loop over runs, at
// every run length. The runs partition the index set and pairs are
// disjoint, so the order in which runs are visited changes no amplitude.

/// Invoke fn(lo, len) for each maximal contiguous run of indices i in
/// [0, size) with (i & (1 << target)) == 0 and (i & ctrl_mask) ==
/// ctrl_value. Preconditions: size is a power of two, target < log2(size),
/// ctrl_value is a subset of ctrl_mask, and the target bit is not in
/// ctrl_mask.
template <typename Fn>
void for_each_pair_run(std::size_t size, int target, BasisIndex ctrl_mask,
                       BasisIndex ctrl_value, Fn&& fn) {
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t constrained = tbit | ctrl_mask;
  const std::size_t run = std::size_t{1} << std::countr_zero(constrained);
  // Free bits above the run: the subset enumeration below walks them in
  // ascending order (s = (s - m) & m visits every submask of m once).
  const std::size_t free_high = (size - 1) & ~constrained & ~(run - 1);
  std::size_t s = 0;
  do {
    fn(s | ctrl_value, run);
    s = (s - free_high) & free_high;
  } while (s != 0);
}

bool uniformly_controlled(const Gate& gate) {
  return gate.kind() == GateKind::kUCRy || gate.kind() == GateKind::kUCRz;
}

// Pattern p of a uniformly controlled gate selects the pairs whose control
// bits spell p (control b is bit b of p) and rotates them by angles()[p].
// Every other pair gate has one pattern, its control literals, rotated by
// theta().

std::size_t num_patterns(const Gate& gate) {
  return uniformly_controlled(gate) ? gate.angles().size() : 1;
}

double pattern_angle(const Gate& gate, std::size_t p) {
  return uniformly_controlled(gate) ? gate.angles()[p] : gate.theta();
}

/// for_each_pair_run over the pairs of pattern p of `gate`.
template <typename Fn>
void for_each_pattern_run(const Gate& gate, std::size_t size, std::size_t p,
                          Fn&& fn) {
  const auto& controls = gate.controls();
  const bool uniform = uniformly_controlled(gate);
  BasisIndex mask = 0;
  BasisIndex value = 0;
  for (std::size_t b = 0; b < controls.size(); ++b) {
    const BasisIndex bit = BasisIndex{1} << controls[b].qubit;
    mask |= bit;
    if (uniform ? ((p >> b) & 1) != 0 : controls[b].positive) value |= bit;
  }
  for_each_pair_run(size, gate.target(), mask, value,
                    std::forward<Fn>(fn));
}

template <typename Amp>
void swap_pairs(Amp* a, Amp* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) std::swap(a[i], b[i]);
}

/// Ry(theta) = [[co, -si], [si, co]] with co = cos(theta/2) and si =
/// sin(theta/2). A real scalar times a complex amplitude scales its two
/// components, so both instantiations round identically per component.
template <typename Amp>
void rotate_pairs(Amp* a, Amp* b, std::size_t n, double co, double si) {
  for (std::size_t i = 0; i < n; ++i) {
    const Amp x = a[i];
    const Amp y = b[i];
    a[i] = co * x - si * y;
    b[i] = si * x + co * y;
  }
}

template <typename Amp>
void negate(Amp* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = -a[i];
}

/// a[i] *= w for a unit complex w, as x*re + y*(-im) and y*re + x*im:
/// bit for bit the textbook product x*re - y*im, y*re + x*im, without the
/// special-value recovery that finite amplitudes never need. The sign
/// sits in the constant because GCC turns a subtract/add pair of products
/// into fused multiply-add/subtract (vfmaddsub) on FMA targets even under
/// -ffp-contract=off, which would round differently from the default
/// build.
void scale(std::complex<double>* a, std::size_t n, std::complex<double> w) {
  const double re = w.real();
  const double im = w.imag();
  const double neg_im = -im;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a[i].real();
    const double y = a[i].imag();
    a[i] = {x * re + y * neg_im, y * re + x * im};
  }
}

}  // namespace

template <typename Amp>
BasicStatevector<Amp>::BasicStatevector(int num_qubits)
    : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument(std::string(kName<Amp>) +
                                ": qubit count out of range");
  }
  amp_.assign(std::size_t{1} << num_qubits, Amp{0.0});
  amp_[0] = Amp{1.0};
}

template <typename Amp>
BasicStatevector<Amp>::BasicStatevector(const State& state)
    : num_qubits_(state.num_qubits()),
      amp_(std::size_t{1} << state.num_qubits()) {
  for (const auto& t : state.terms()) amp_[t.index] = t.amplitude;
}

template <typename Amp>
void BasicStatevector<Amp>::apply(const Gate& gate) {
  if (gate.max_qubit() >= num_qubits_) {
    throw std::invalid_argument(std::string(kName<Amp>) +
                                "::apply: gate exceeds register");
  }
  Amp* amp = amp_.data();
  const std::size_t size = amp_.size();
  const std::size_t stride = std::size_t{1} << gate.target();
  switch (gate.kind()) {
    case GateKind::kX:
    case GateKind::kCNOT:
      for_each_pattern_run(gate, size, 0, [&](std::size_t lo, std::size_t n) {
        swap_pairs(amp + lo, amp + lo + stride, n);
      });
      return;
    case GateKind::kCZ:
      // diag(1, 1, 1, -1): negate the upper amplitude of each pair whose
      // control is set. Real-safe, so CZ-legalized circuits keep the real
      // instantiation.
      for_each_pattern_run(gate, size, 0, [&](std::size_t lo, std::size_t n) {
        negate(amp + lo + stride, n);
      });
      return;
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kUCRy:
      for (std::size_t p = 0; p < num_patterns(gate); ++p) {
        const double theta = pattern_angle(gate, p);
        const double co = std::cos(theta / 2);
        const double si = std::sin(theta / 2);
        for_each_pattern_run(gate, size, p,
                             [&](std::size_t lo, std::size_t n) {
                               rotate_pairs(amp + lo, amp + lo + stride, n,
                                            co, si);
                             });
      }
      return;
    case GateKind::kRz:
    case GateKind::kUCRz:
      if constexpr (kComplex) {
        // Rz(theta) = diag(e^{-i theta/2}, e^{+i theta/2}).
        for (std::size_t p = 0; p < num_patterns(gate); ++p) {
          const double theta = pattern_angle(gate, p);
          const Amp w_lo = std::polar(1.0, -theta / 2);
          const Amp w_hi = std::polar(1.0, theta / 2);
          for_each_pattern_run(gate, size, p,
                               [&](std::size_t lo, std::size_t n) {
                                 scale(amp + lo, n, w_lo);
                                 scale(amp + lo + stride, n, w_hi);
                               });
        }
        return;
      }
      break;
    case GateKind::kRZZ:
      if constexpr (kComplex) {
        // exp(-i theta/2 Z(x)Z): e^{-i theta/2} where the two wires agree,
        // e^{+i theta/2} where they differ. The pairs split by the other
        // wire's value.
        const Amp agree = std::polar(1.0, -gate.theta() / 2);
        const Amp differ = std::polar(1.0, gate.theta() / 2);
        const BasisIndex wire = BasisIndex{1} << gate.controls()[0].qubit;
        for (const BasisIndex value : {BasisIndex{0}, wire}) {
          const Amp w_lo = value == 0 ? agree : differ;
          const Amp w_hi = value == 0 ? differ : agree;
          for_each_pair_run(size, gate.target(), wire, value,
                            [&](std::size_t lo, std::size_t n) {
                              scale(amp + lo, n, w_lo);
                              scale(amp + lo + stride, n, w_hi);
                            });
        }
        return;
      }
      break;
    case GateKind::kISwap:
      if constexpr (kComplex) {
        // |10> -> i|01>, |01> -> i|10>; |00> and |11> untouched. Each run
        // holds the indices with the other wire set and the target clear;
        // their partners flip both bits.
        const BasisIndex wire = BasisIndex{1} << gate.controls()[0].qubit;
        const Amp phase_i{0.0, 1.0};
        for_each_pair_run(size, gate.target(), wire, wire,
                          [&](std::size_t lo, std::size_t n) {
                            Amp* partner = amp + (lo - wire + stride);
                            swap_pairs(amp + lo, partner, n);
                            scale(amp + lo, n, phase_i);
                            scale(partner, n, phase_i);
                          });
        return;
      }
      break;
  }
  // Only the real instantiation gets here, on a kind whose phases need
  // complex amplitudes.
  throw std::invalid_argument(
      "Statevector: Rz, UCRz, RZZ and iSWAP need the complex simulator");
}

template <typename Amp>
void BasicStatevector<Amp>::apply(const Circuit& circuit) {
  if (circuit.num_qubits() > num_qubits_) {
    throw std::invalid_argument(std::string(kName<Amp>) +
                                "::apply: register too narrow");
  }
  for (const Gate& g : circuit.gates()) apply(g);
}

template <typename Amp>
double BasicStatevector<Amp>::norm() const {
  double acc = 0.0;
  for (const Amp& a : amp_) acc += std::norm(a);
  return std::sqrt(acc);
}

template <typename Amp>
Amp BasicStatevector<Amp>::inner_product(
    const BasicStatevector& other) const {
  check_width<Amp>(num_qubits_, other.num_qubits_, "inner_product");
  Amp acc{};
  for (std::size_t i = 0; i < other.amp_.size(); ++i) {
    acc += conj_times(amp_[i], other.amp_[i]);
  }
  return acc;
}

template <typename Amp>
Amp BasicStatevector<Amp>::inner_product(const State& state) const {
  check_width<Amp>(num_qubits_, state.num_qubits(), "inner_product");
  Amp acc{};
  for (const auto& t : state.terms()) {
    acc += conj_times(amp_[t.index], t.amplitude);
  }
  return acc;
}

template <typename Amp>
double BasicStatevector<Amp>::fidelity(const State& state) const {
  check_width<Amp>(num_qubits_, state.num_qubits(), "fidelity");
  return std::norm(inner_product(state));
}

template <typename Amp>
auto BasicStatevector<Amp>::to_state() const -> State {
  return State::from_dense(num_qubits_, amp_);
}

template class BasicStatevector<double>;
template class BasicStatevector<std::complex<double>>;

}  // namespace qsp
