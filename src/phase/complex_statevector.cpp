#include "phase/complex_statevector.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sim/apply_runs.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace qsp {
namespace {

// See sim/statevector.cpp: short pair runs keep the strided seed-shape
// loop; this TU is compiled with -ffp-contract=off so both paths keep a
// fixed element shape on -march builds.
constexpr std::size_t kMinWideRun = 8;

std::size_t pair_run_length(int target, BasisIndex ctrl_mask) {
  return std::size_t{1}
         << std::countr_zero((std::size_t{1} << target) | ctrl_mask);
}

}  // namespace

ComplexStatevector::ComplexStatevector(int num_qubits)
    : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument(
        "ComplexStatevector: qubit count out of range");
  }
  amp_.assign(std::size_t{1} << num_qubits, {0.0, 0.0});
  amp_[0] = {1.0, 0.0};
}

ComplexStatevector::ComplexStatevector(const ComplexState& state)
    : num_qubits_(state.num_qubits()) {
  amp_.assign(std::size_t{1} << num_qubits_, {0.0, 0.0});
  for (const ComplexTerm& t : state.terms()) amp_[t.index] = t.amplitude;
}

void ComplexStatevector::apply_pairs(const Gate& gate, bool z_axis) {
  // Pattern handling covers Ry/Rz (no controls), CRy/MCRy (fixed
  // pattern) and UCRy/UCRz (angle table) uniformly. Rotation scalars are
  // computed once per pattern instead of once per amplitude pair; long
  // pair runs go through the wide kernels, fragmented index sets (low
  // target or control bit) keep the strided seed-shape loop. Both paths
  // compute the same element shape, and path choice depends only on the
  // gate, never on the ISA.
  const auto& controls = gate.controls();
  const bool is_uc = gate.kind() == GateKind::kUCRy ||
                     gate.kind() == GateKind::kUCRz;
  const std::size_t stride = std::size_t{1} << gate.target();
  const std::size_t size = amp_.size();
  // std::complex<double> is layout-compatible with double[2]; the wide
  // kernels see the interleaved (re, im) stream.
  double* flat = reinterpret_cast<double*>(amp_.data());

  // Per-pattern rotation scalars: for Ry (co, si), for Rz the lower and
  // upper diagonal phases e^{-i theta/2} / e^{+i theta/2}.
  const std::size_t num_patterns = is_uc ? gate.angles().size() : 1;
  std::vector<std::complex<double>> w_lo(num_patterns), w_hi(num_patterns);
  std::vector<double> co(num_patterns), si(num_patterns);
  for (std::size_t s = 0; s < num_patterns; ++s) {
    const double theta = is_uc ? gate.angles()[s] : gate.theta();
    if (z_axis) {
      w_lo[s] = std::polar(1.0, -theta / 2);
      w_hi[s] = std::polar(1.0, theta / 2);
    } else {
      co[s] = std::cos(theta / 2);
      si[s] = std::sin(theta / 2);
    }
  }
  BasisIndex mask = 0;
  BasisIndex fixed_value = 0;
  for (const auto& c : controls) {
    mask |= BasisIndex{1} << c.qubit;
    if (!is_uc && c.positive) fixed_value |= BasisIndex{1} << c.qubit;
  }

  if (pair_run_length(gate.target(), mask) >= kMinWideRun) {
    for (std::size_t pattern = 0; pattern < num_patterns; ++pattern) {
      BasisIndex value = fixed_value;
      if (is_uc) {
        for (std::size_t b = 0; b < controls.size(); ++b) {
          if ((pattern >> b) & 1) value |= BasisIndex{1} << controls[b].qubit;
        }
      }
      runs::for_each_pair_run(
          size, gate.target(), mask, value,
          [&](std::size_t lo, std::size_t len) {
            if (z_axis) {
              wideops::complex_scale_d(flat + 2 * lo, len,
                                       w_lo[pattern].real(),
                                       w_lo[pattern].imag());
              wideops::complex_scale_d(flat + 2 * (lo + stride), len,
                                       w_hi[pattern].real(),
                                       w_hi[pattern].imag());
            } else {
              // Real scalars rotate the re/im components independently:
              // one pair rotation over 2*len interleaved doubles.
              wideops::rotate_pairs_d(flat + 2 * lo,
                                      flat + 2 * (lo + stride), 2 * len,
                                      co[pattern], si[pattern]);
            }
          });
    }
    return;
  }

  for (std::size_t base = 0; base < size; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      std::size_t pattern = 0;
      if (is_uc) {
        for (std::size_t b = 0; b < controls.size(); ++b) {
          if (get_bit(static_cast<BasisIndex>(i), controls[b].qubit) != 0) {
            pattern |= std::size_t{1} << b;
          }
        }
      } else if ((static_cast<BasisIndex>(i) & mask) != fixed_value) {
        continue;
      }
      const std::complex<double> a = amp_[i];
      const std::complex<double> b = amp_[i + stride];
      if (z_axis) {
        // Same element shape as wideops::complex_scale_d.
        amp_[i] = {a.real() * w_lo[pattern].real() -
                       a.imag() * w_lo[pattern].imag(),
                   a.imag() * w_lo[pattern].real() +
                       a.real() * w_lo[pattern].imag()};
        amp_[i + stride] = {b.real() * w_hi[pattern].real() -
                                b.imag() * w_hi[pattern].imag(),
                            b.imag() * w_hi[pattern].real() +
                                b.real() * w_hi[pattern].imag()};
      } else {
        amp_[i] = co[pattern] * a - si[pattern] * b;
        amp_[i + stride] = si[pattern] * a + co[pattern] * b;
      }
    }
  }
}

void ComplexStatevector::apply(const Gate& gate) {
  if (gate.max_qubit() >= num_qubits_) {
    throw std::invalid_argument(
        "ComplexStatevector::apply: gate exceeds register");
  }
  const std::size_t stride = std::size_t{1} << gate.target();
  double* flat = reinterpret_cast<double*>(amp_.data());
  const auto swap_runs = [&](BasisIndex mask, BasisIndex value) {
    if (pair_run_length(gate.target(), mask) >= kMinWideRun) {
      runs::for_each_pair_run(
          amp_.size(), gate.target(), mask, value,
          [&](std::size_t lo, std::size_t len) {
            wideops::swap_ranges_d(flat + 2 * lo, flat + 2 * (lo + stride),
                                   2 * len);
          });
      return;
    }
    for (std::size_t base = 0; base < amp_.size(); base += 2 * stride) {
      for (std::size_t i = base; i < base + stride; ++i) {
        if ((static_cast<BasisIndex>(i) & mask) == value) {
          std::swap(amp_[i], amp_[i + stride]);
        }
      }
    }
  };
  switch (gate.kind()) {
    case GateKind::kX:
      swap_runs(0, 0);
      break;
    case GateKind::kCNOT: {
      const ControlLiteral c = gate.controls()[0];
      const BasisIndex cbit = BasisIndex{1} << c.qubit;
      swap_runs(cbit, c.positive ? cbit : 0);
      break;
    }
    case GateKind::kRy:
    case GateKind::kCRy:
    case GateKind::kMCRy:
    case GateKind::kUCRy:
      apply_pairs(gate, /*z_axis=*/false);
      break;
    case GateKind::kRz:
    case GateKind::kUCRz:
      apply_pairs(gate, /*z_axis=*/true);
      break;
    case GateKind::kCZ: {
      // diag(1, 1, 1, -1): negate amplitudes with both wires set.
      const BasisIndex both = (BasisIndex{1} << gate.controls()[0].qubit) |
                              (BasisIndex{1} << gate.target());
      for (std::size_t i = 0; i < amp_.size(); ++i) {
        if ((static_cast<BasisIndex>(i) & both) == both) amp_[i] = -amp_[i];
      }
      break;
    }
    case GateKind::kRZZ: {
      // exp(-i theta/2 Z(x)Z): e^{-i theta/2} on equal wire bits,
      // e^{+i theta/2} on unequal.
      const std::complex<double> eq = std::polar(1.0, -gate.theta() / 2);
      const std::complex<double> ne = std::polar(1.0, gate.theta() / 2);
      const BasisIndex a = BasisIndex{1} << gate.controls()[0].qubit;
      const BasisIndex b = BasisIndex{1} << gate.target();
      for (std::size_t i = 0; i < amp_.size(); ++i) {
        const bool ba = (static_cast<BasisIndex>(i) & a) != 0;
        const bool bb = (static_cast<BasisIndex>(i) & b) != 0;
        amp_[i] *= (ba == bb) ? eq : ne;
      }
      break;
    }
    case GateKind::kISwap: {
      // |01> -> i|10>, |10> -> i|01>; diagonal states untouched.
      const BasisIndex a = BasisIndex{1} << gate.controls()[0].qubit;
      const BasisIndex b = BasisIndex{1} << gate.target();
      const std::complex<double> phase_i{0.0, 1.0};
      for (std::size_t i = 0; i < amp_.size(); ++i) {
        const BasisIndex bi = static_cast<BasisIndex>(i);
        if ((bi & a) != 0 && (bi & b) == 0) {
          const std::size_t j = static_cast<std::size_t>((bi ^ a) | b);
          const std::complex<double> lo = amp_[i];
          amp_[i] = phase_i * amp_[j];
          amp_[j] = phase_i * lo;
        }
      }
      break;
    }
  }
}

void ComplexStatevector::apply(const Circuit& circuit) {
  if (circuit.num_qubits() > num_qubits_) {
    throw std::invalid_argument(
        "ComplexStatevector::apply: register too narrow");
  }
  for (const Gate& g : circuit.gates()) apply(g);
}

double ComplexStatevector::norm() const {
  double acc = 0.0;
  for (const auto& a : amp_) acc += std::norm(a);
  return std::sqrt(acc);
}

double ComplexStatevector::fidelity(const ComplexState& state) const {
  QSP_ASSERT(state.num_qubits() <= num_qubits_);
  std::complex<double> ip{0.0, 0.0};
  for (const ComplexTerm& t : state.terms()) {
    ip += std::conj(t.amplitude) * amp_[t.index];
  }
  return std::norm(ip);
}

ComplexState ComplexStatevector::to_state() const {
  std::vector<ComplexTerm> terms;
  for (std::size_t i = 0; i < amp_.size(); ++i) {
    if (std::abs(amp_[i]) > ComplexState::kAmplitudeEpsilon) {
      terms.push_back(ComplexTerm{static_cast<BasisIndex>(i), amp_[i]});
    }
  }
  return ComplexState(num_qubits_, std::move(terms));
}

}  // namespace qsp
