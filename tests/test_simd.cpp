// Differential tests for the runtime-dispatched SIMD layer: every wide
// (integer) primitive's AVX2 variant must compute the same words as its
// scalar variant on randomized corpora (including empty, sub-vector, and
// ragged-tail lengths), and the consumers (canonicalization, heuristics,
// slot-column tests) must be invariant under the active ISA.

#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/canonical.hpp"
#include "core/heuristic.hpp"
#include "core/slot_state.hpp"
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

#endif  // QSP_WIDEOPS_HAVE_AVX2

// ISA invariance of the consumers: the same computation under forced
// scalar and forced AVX2 dispatch must produce identical results.

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
