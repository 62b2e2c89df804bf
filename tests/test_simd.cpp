// Differential tests for the runtime-dispatched SIMD layer: every wide
// primitive's AVX2 variant must be bit-identical to its scalar variant
// on randomized corpora (including empty, sub-vector, and ragged-tail
// lengths), and whole-pipeline consumers (simulators, canonicalization,
// heuristics) must be invariant under the active ISA. All comparisons
// are bitwise — floating-point results go through std::bit_cast so a
// -0.0 / +0.0 or last-ulp divergence fails loudly.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/slot_state.hpp"
#include "phase/complex_statevector.hpp"
#include "sim/statevector.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

// Lengths covering the empty case, partial vectors, whole vectors, and
// ragged tails around the 4-wide AVX2 step.
const std::vector<std::size_t> kLengths = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 31, 64, 100, 257};

bool HaveAvx2() {
#if QSP_WIDEOPS_HAVE_AVX2
  return simd::avx2_supported();
#else
  return false;
#endif
}

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n,
                                        int index_bits) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) {
    const std::uint64_t index =
        rng.next_u64() & ((std::uint64_t{1} << index_bits) - 1);
    const std::uint64_t count = rng.next_u64() & 0xFFFFFFFFull;
    w = (index << 32) | count;
  }
  return out;
}

std::vector<double> random_doubles(Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  for (auto& x : out) x = rng.next_double(-2.0, 2.0);
  return out;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " diverges at element " << i;
  }
}

#if QSP_WIDEOPS_HAVE_AVX2

TEST(SimdDifferential, CopyXorHigh32) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(11);
  for (const std::size_t n : kLengths) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto src = random_words(rng, n, kMaxQubits);
      const auto mask = static_cast<std::uint32_t>(rng.next_u64());
      std::vector<std::uint64_t> a(n), b(n);
      wideops::copy_xor_high32_scalar(a.data(), src.data(), n, mask);
      wideops::copy_xor_high32_avx2(b.data(), src.data(), n, mask);
      EXPECT_EQ(a, b) << "n=" << n;
      // In-place form (dst == src) used by the canonical scan.
      auto c = src;
      wideops::copy_xor_high32_avx2(c.data(), c.data(), n, mask);
      EXPECT_EQ(a, c) << "in-place n=" << n;
    }
  }
}

TEST(SimdDifferential, Shl1High32) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(13);
  for (const std::size_t n : kLengths) {
    // Full-width indices: the shift must wrap mod 2^32 like u32 math.
    const auto src = random_words(rng, n, 32);
    std::vector<std::uint64_t> a(n), b(n);
    wideops::shl1_high32_scalar(a.data(), src.data(), n);
    wideops::shl1_high32_avx2(b.data(), src.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(SimdDifferential, OrBitFromHigh32) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(14);
  for (const std::size_t n : kLengths) {
    for (int bit = 0; bit < kMaxQubits; ++bit) {
      const auto base = random_words(rng, n, 32);
      const auto words = random_words(rng, n, kMaxQubits);
      std::vector<std::uint64_t> a(n), b(n);
      wideops::or_bit_from_high32_scalar(a.data(), base.data(), words.data(),
                                         n, bit);
      wideops::or_bit_from_high32_avx2(b.data(), base.data(), words.data(), n,
                                       bit);
      EXPECT_EQ(a, b) << "n=" << n << " bit=" << bit;
    }
  }
}

TEST(SimdDifferential, BitColumnOrAnd) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(15);
  for (const std::size_t n : kLengths) {
    for (int bit = 0; bit < kMaxQubits; ++bit) {
      // Entry-word layout: the tested bit lives in the low half. Bias
      // columns toward constant so the all/any branches are both hit.
      std::vector<std::uint64_t> words(n);
      const bool force = rng.next_bool();
      const bool value = rng.next_bool();
      for (auto& w : words) {
        std::uint64_t low = rng.next_u64() & 0xFFFFFFFFull;
        if (force) {
          low = value ? (low | (std::uint64_t{1} << bit))
                      : (low & ~(std::uint64_t{1} << bit));
        }
        w = (rng.next_u64() << 32) | low;
      }
      const auto a = wideops::bit_column_or_and_scalar(words.data(), n, bit);
      const auto b = wideops::bit_column_or_and_avx2(words.data(), n, bit);
      EXPECT_EQ(a.any, b.any) << "n=" << n << " bit=" << bit;
      EXPECT_EQ(a.all, b.all) << "n=" << n << " bit=" << bit;
    }
  }
}

TEST(SimdDifferential, WeightSums) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(16);
  for (const std::size_t n : kLengths) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng.next_u64();
    for (int bit_a = 0; bit_a < kMaxQubits; bit_a += 3) {
      for (int bit_b = 1; bit_b < kMaxQubits; bit_b += 5) {
        EXPECT_EQ(wideops::weight_sum_if_bit_scalar(words.data(), n, bit_a),
                  wideops::weight_sum_if_bit_avx2(words.data(), n, bit_a));
        EXPECT_EQ(
            wideops::weight_sum_if_bits_scalar(words.data(), n, bit_a, bit_b),
            wideops::weight_sum_if_bits_avx2(words.data(), n, bit_a, bit_b));
      }
    }
  }
}

TEST(SimdDifferential, RotatePairs) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(17);
  for (const std::size_t n : kLengths) {
    const auto a0 = random_doubles(rng, n);
    const auto b0 = random_doubles(rng, n);
    const double co = rng.next_double(-1.0, 1.0);
    const double si = rng.next_double(-1.0, 1.0);
    auto a1 = a0, b1 = b0, a2 = a0, b2 = b0;
    wideops::rotate_pairs_d_scalar(a1.data(), b1.data(), n, co, si);
    wideops::rotate_pairs_d_avx2(a2.data(), b2.data(), n, co, si);
    expect_bitwise_equal(a1, a2, "rotate_pairs lower");
    expect_bitwise_equal(b1, b2, "rotate_pairs upper");
  }
}

TEST(SimdDifferential, SwapRanges) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(18);
  for (const std::size_t n : kLengths) {
    const auto a0 = random_doubles(rng, n);
    const auto b0 = random_doubles(rng, n);
    auto a1 = a0, b1 = b0, a2 = a0, b2 = b0;
    wideops::swap_ranges_d_scalar(a1.data(), b1.data(), n);
    wideops::swap_ranges_d_avx2(a2.data(), b2.data(), n);
    expect_bitwise_equal(a1, a2, "swap lower");
    expect_bitwise_equal(b1, b2, "swap upper");
  }
}

TEST(SimdDifferential, ComplexScale) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(19);
  for (const std::size_t n : kLengths) {
    const auto v0 = random_doubles(rng, 2 * n);
    const double re = rng.next_double(-1.0, 1.0);
    const double im = rng.next_double(-1.0, 1.0);
    auto v1 = v0, v2 = v0;
    wideops::complex_scale_d_scalar(v1.data(), n, re, im);
    wideops::complex_scale_d_avx2(v2.data(), n, re, im);
    expect_bitwise_equal(v1, v2, "complex_scale");
  }
}

TEST(SimdDifferential, ParitySignedSum) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(20);
  for (const std::size_t n : kLengths) {
    const auto v = random_doubles(rng, n);
    for (int rep = 0; rep < 8; ++rep) {
      const auto mask = static_cast<std::uint32_t>(rng.next_u64());
      const double s = wideops::parity_signed_sum_d_scalar(v.data(), n, mask);
      const double a = wideops::parity_signed_sum_d_avx2(v.data(), n, mask);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s),
                std::bit_cast<std::uint64_t>(a))
          << "n=" << n << " mask=" << mask;
    }
  }
}

#endif  // QSP_WIDEOPS_HAVE_AVX2

// ---------------------------------------------------------------------------
// Whole-pipeline ISA invariance: the same computation under forced scalar
// and forced AVX2 dispatch must produce bitwise-identical results.
// ---------------------------------------------------------------------------

Circuit random_mixed_circuit(Rng& rng, int n, int gates, bool z_axis) {
  Circuit c(n);
  for (int g = 0; g < gates; ++g) {
    const int target =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    // Any other qubit for controlled kinds; single-qubit registers stick
    // to the uncontrolled gates below.
    const int other = n >= 2 ? (target + 1 +
                                static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(n - 1)))) %
                                   n
                             : target;
    const std::uint64_t kinds = n >= 2 ? (z_axis ? 6 : 5) : (z_axis ? 3 : 2);
    const std::uint64_t pick = rng.next_below(kinds);
    // Map the restricted single-qubit draw onto {x, ry, rz}.
    switch (n >= 2 ? pick : (pick == 2 ? 5 : pick * 2)) {
      case 0:
        c.append(Gate::x(target));
        break;
      case 1:
        c.append(Gate::cnot(other, target, rng.next_bool()));
        break;
      case 2:
        c.append(Gate::ry(target, rng.next_double(-3.0, 3.0)));
        break;
      case 3:
        c.append(Gate::mcry({{other, rng.next_bool()}}, target,
                            rng.next_double(-3.0, 3.0)));
        break;
      case 4: {
        std::vector<double> angles(2);
        for (auto& t : angles) t = rng.next_double(-3.0, 3.0);
        c.append(Gate::ucry({other}, target, std::move(angles)));
        break;
      }
      case 5:
        c.append(Gate::rz(target, rng.next_double(-3.0, 3.0)));
        break;
    }
  }
  return c;
}

TEST(SimdInvariance, StatevectorBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(21);
  for (int n = 1; n <= 10; ++n) {
    const Circuit c = random_mixed_circuit(rng, n, 40, /*z_axis=*/false);
    Statevector scalar_sv(n);
    {
      simd::ScopedIsaForTesting force(simd::Isa::kScalar);
      scalar_sv.apply(c);
    }
    Statevector avx_sv(n);
    {
      simd::ScopedIsaForTesting force(simd::Isa::kAvx2);
      avx_sv.apply(c);
    }
    expect_bitwise_equal(scalar_sv.amplitudes(), avx_sv.amplitudes(),
                         "statevector amplitudes");
  }
}

TEST(SimdInvariance, ComplexStatevectorBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(22);
  for (int n = 1; n <= 10; ++n) {
    Circuit c = random_mixed_circuit(rng, n, 40, /*z_axis=*/true);
    std::vector<double> angles(4);
    for (auto& t : angles) t = rng.next_double(-3.0, 3.0);
    if (n >= 3) c.append(Gate::ucrz({0, n - 1}, 1, std::move(angles)));
    ComplexStatevector scalar_sv(n);
    {
      simd::ScopedIsaForTesting force(simd::Isa::kScalar);
      scalar_sv.apply(c);
    }
    ComplexStatevector avx_sv(n);
    {
      simd::ScopedIsaForTesting force(simd::Isa::kAvx2);
      avx_sv.apply(c);
    }
    ASSERT_EQ(scalar_sv.amplitudes().size(), avx_sv.amplitudes().size());
    EXPECT_EQ(std::memcmp(scalar_sv.amplitudes().data(),
                          avx_sv.amplitudes().data(),
                          scalar_sv.amplitudes().size() *
                              sizeof(std::complex<double>)),
              0);
  }
}

SlotState random_slot_state(Rng& rng, int n, std::size_t cardinality) {
  std::vector<SlotEntry> entries;
  for (const std::uint64_t x :
       rng.sample_distinct(std::uint64_t{1} << n, cardinality)) {
    entries.push_back(SlotEntry{static_cast<BasisIndex>(x),
                                static_cast<std::uint32_t>(
                                    1 + rng.next_below(7))});
  }
  return SlotState(n, std::move(entries));
}

TEST(SimdInvariance, CanonicalAndHeuristicBitIdentical) {
  if (!HaveAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  Rng rng(23);
  for (int n = 1; n <= kMaxQubits; ++n) {
    const std::size_t card = 1 + rng.next_below(std::min<std::uint64_t>(
                                     12, std::uint64_t{1} << n));
    const SlotState s = random_slot_state(rng, n, card);
    for (const CanonicalLevel level :
         {CanonicalLevel::kNone, CanonicalLevel::kU2,
          CanonicalLevel::kPU2Greedy, CanonicalLevel::kPU2Exact}) {
      CanonicalKey scalar_key;
      CanonicalWitness scalar_wit;
      std::int64_t scalar_h = 0;
      std::vector<int> scalar_sep;
      {
        simd::ScopedIsaForTesting force(simd::Isa::kScalar);
        scalar_key = canonical_key(s, level);
        scalar_wit = canonical_witness(s, level);
        scalar_h = heuristic_lower_bound(s, HeuristicMode::kComponent);
        for (int q = 0; q < n; ++q) {
          scalar_sep.push_back(static_cast<int>(s.qubit_separable(q)) |
                               (static_cast<int>(s.qubit_constant(q)) << 1));
        }
      }
      simd::ScopedIsaForTesting force(simd::Isa::kAvx2);
      EXPECT_EQ(scalar_key, canonical_key(s, level)) << "n=" << n;
      const CanonicalWitness avx_wit = canonical_witness(s, level);
      EXPECT_EQ(scalar_wit.key, avx_wit.key) << "n=" << n;
      EXPECT_EQ(scalar_wit.translation, avx_wit.translation) << "n=" << n;
      EXPECT_EQ(scalar_wit.permutation, avx_wit.permutation) << "n=" << n;
      EXPECT_EQ(scalar_h, heuristic_lower_bound(s, HeuristicMode::kComponent))
          << "n=" << n;
      for (int q = 0; q < n; ++q) {
        EXPECT_EQ(scalar_sep[static_cast<std::size_t>(q)],
                  static_cast<int>(s.qubit_separable(q)) |
                      (static_cast<int>(s.qubit_constant(q)) << 1))
            << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(SimdDispatch, ReportsSupportedIsa) {
  const simd::Isa isa = simd::active_isa();
  if (isa == simd::Isa::kAvx2) {
    EXPECT_TRUE(simd::avx2_supported());
  }
  EXPECT_NE(simd::isa_name(isa), nullptr);
}

}  // namespace
}  // namespace qsp
