#include "util/bitops.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/simd.hpp"

#if QSP_WIDEOPS_HAVE_AVX2
#include <immintrin.h>
// Per-function target attribute: the AVX2 kernels are compiled into this
// TU without a global -mavx2, so the same binary runs on non-AVX2 hosts
// (dispatch never reaches them there).
#define QSP_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace qsp {

BasisIndex swap_bits(BasisIndex x, int a, int b) {
  const int va = get_bit(x, a);
  const int vb = get_bit(x, b);
  if (va == vb) return x;
  return flip_bit(flip_bit(x, a), b);
}

BasisIndex permute_bits(BasisIndex x, const std::vector<int>& perm) {
  BasisIndex out = 0;
  for (std::size_t q = 0; q < perm.size(); ++q) {
    if (get_bit(x, static_cast<int>(q)) != 0) out = flip_bit(out, perm[q]);
  }
  // Bits at positions >= perm.size() are required to be clear.
  QSP_ASSERT((x >> perm.size()) == 0);
  return out;
}

std::string to_bitstring(BasisIndex x, int n) {
  QSP_ASSERT(n >= 0 && n <= kMaxQubits);
  std::string s(static_cast<std::size_t>(n), '0');
  for (int q = 0; q < n; ++q) {
    if (get_bit(x, q) != 0) s[static_cast<std::size_t>(n - 1 - q)] = '1';
  }
  return s;
}

BasisIndex from_bitstring(const std::string& s) {
  if (s.empty() || s.size() > static_cast<std::size_t>(kMaxQubits)) {
    throw std::invalid_argument("from_bitstring: bad width");
  }
  BasisIndex x = 0;
  const int n = static_cast<int>(s.size());
  for (int i = 0; i < n; ++i) {
    const char c = s[static_cast<std::size_t>(i)];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("from_bitstring: non-binary character");
    }
    if (c == '1') x = flip_bit(x, n - 1 - i);
  }
  return x;
}

int gray_change_bit(std::uint32_t i) {
  // gray(i) ^ gray(i+1) has exactly one bit set: the lowest zero... in fact
  // it equals the position of the lowest set bit of (i+1).
  return std::countr_zero(i + 1);
}

namespace wideops {

namespace {

constexpr std::uint64_t kLowHalf = 0x00000000FFFFFFFFull;
constexpr std::uint64_t kHighHalf = 0xFFFFFFFF00000000ull;

// Column chunk size for the early-exit scans. Chunk boundaries are the
// same in both variants, but results never depend on where a scan stops:
// once a column is known mixed the remaining words cannot change any/all.
constexpr std::size_t kColumnChunk = 64;

inline bool use_avx2() {
#if QSP_WIDEOPS_HAVE_AVX2
  return simd::active_isa() == simd::Isa::kAvx2;
#else
  return false;
#endif
}

}  // namespace

// --------------------------- scalar variants -------------------------------

void copy_xor_high32_scalar(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t n, std::uint32_t mask) {
  const std::uint64_t m = static_cast<std::uint64_t>(mask) << 32;
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] ^ m;
}

void shl1_high32_scalar(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t w = src[i];
    dst[i] = ((w & kHighHalf) << 1) | (w & kLowHalf);
  }
}

void or_bit_from_high32_scalar(std::uint64_t* dst, const std::uint64_t* base,
                               const std::uint64_t* words, std::size_t n,
                               int bit) {
  const int shift = 32 + bit;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = base[i] | (((words[i] >> shift) & 1u) << 32);
  }
}

ColumnBits bit_column_or_and_scalar(const std::uint64_t* words, std::size_t n,
                                    int bit) {
  const std::uint64_t m = std::uint64_t{1} << bit;
  std::uint64_t orw = 0;
  std::uint64_t andw = ~std::uint64_t{0};
  std::size_t i = 0;
  while (i < n) {
    const std::size_t end = std::min(n, i + kColumnChunk);
    for (; i < end; ++i) {
      orw |= words[i];
      andw &= words[i];
    }
    if ((orw & m) != 0 && (andw & m) == 0) break;  // column mixed: decided
  }
  return ColumnBits{(orw & m) != 0, (andw & m) != 0};
}

std::uint64_t weight_sum_if_bit_scalar(const std::uint64_t* words,
                                       std::size_t n, int bit) {
  const std::uint64_t m = std::uint64_t{1} << bit;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((words[i] & m) != 0) sum += words[i] >> 32;
  }
  return sum;
}

std::uint64_t weight_sum_if_bits_scalar(const std::uint64_t* words,
                                        std::size_t n, int bit_a, int bit_b) {
  const std::uint64_t m =
      (std::uint64_t{1} << bit_a) | (std::uint64_t{1} << bit_b);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((words[i] & m) == m) sum += words[i] >> 32;
  }
  return sum;
}

// ---------------------------- AVX2 variants --------------------------------

#if QSP_WIDEOPS_HAVE_AVX2

QSP_TARGET_AVX2
void copy_xor_high32_avx2(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n, std::uint32_t mask) {
  const std::uint64_t m = static_cast<std::uint64_t>(mask) << 32;
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(v, vm));
  }
  for (; i < n; ++i) dst[i] = src[i] ^ m;
}

QSP_TARGET_AVX2
void shl1_high32_avx2(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n) {
  const __m256i vlow = _mm256_set1_epi64x(static_cast<long long>(kLowHalf));
  const __m256i vhigh = _mm256_set1_epi64x(static_cast<long long>(kHighHalf));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i out = _mm256_or_si256(
        _mm256_slli_epi64(_mm256_and_si256(v, vhigh), 1),
        _mm256_and_si256(v, vlow));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), out);
  }
  if (i < n) shl1_high32_scalar(dst + i, src + i, n - i);
}

QSP_TARGET_AVX2
void or_bit_from_high32_avx2(std::uint64_t* dst, const std::uint64_t* base,
                             const std::uint64_t* words, std::size_t n,
                             int bit) {
  const __m128i shift = _mm_cvtsi32_si128(32 + bit);
  const __m256i vone = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + i));
    const __m256i bitv =
        _mm256_and_si256(_mm256_srl_epi64(w, shift), vone);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_or_si256(b, _mm256_slli_epi64(bitv, 32)));
  }
  if (i < n) or_bit_from_high32_scalar(dst + i, base + i, words + i, n - i,
                                       bit);
}

QSP_TARGET_AVX2
ColumnBits bit_column_or_and_avx2(const std::uint64_t* words, std::size_t n,
                                  int bit) {
  const std::uint64_t m = std::uint64_t{1} << bit;
  std::uint64_t orw = 0;
  std::uint64_t andw = ~std::uint64_t{0};
  std::size_t i = 0;
  while (i < n) {
    const std::size_t chunk_end = std::min(n, i + kColumnChunk);
    __m256i vor = _mm256_setzero_si256();
    __m256i vand = _mm256_set1_epi64x(-1);
    for (; i + 4 <= chunk_end; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
      vor = _mm256_or_si256(vor, v);
      vand = _mm256_and_si256(vand, v);
    }
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vor);
    orw |= tmp[0] | tmp[1] | tmp[2] | tmp[3];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vand);
    andw &= tmp[0] & tmp[1] & tmp[2] & tmp[3];
    for (; i < chunk_end; ++i) {
      orw |= words[i];
      andw &= words[i];
    }
    if ((orw & m) != 0 && (andw & m) == 0) break;  // column mixed: decided
  }
  return ColumnBits{(orw & m) != 0, (andw & m) != 0};
}

QSP_TARGET_AVX2
std::uint64_t weight_sum_if_bit_avx2(const std::uint64_t* words,
                                     std::size_t n, int bit) {
  const std::uint64_t m = std::uint64_t{1} << bit;
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
  __m256i vsum = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i sel = _mm256_cmpeq_epi64(_mm256_and_si256(v, vm), vm);
    const __m256i w = _mm256_srli_epi64(v, 32);
    vsum = _mm256_add_epi64(vsum, _mm256_and_si256(w, sel));
  }
  alignas(32) std::uint64_t tmp[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vsum);
  std::uint64_t sum = tmp[0] + tmp[1] + tmp[2] + tmp[3];
  for (; i < n; ++i) {
    if ((words[i] & m) != 0) sum += words[i] >> 32;
  }
  return sum;
}

QSP_TARGET_AVX2
std::uint64_t weight_sum_if_bits_avx2(const std::uint64_t* words,
                                      std::size_t n, int bit_a, int bit_b) {
  const std::uint64_t m =
      (std::uint64_t{1} << bit_a) | (std::uint64_t{1} << bit_b);
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
  __m256i vsum = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    const __m256i sel = _mm256_cmpeq_epi64(_mm256_and_si256(v, vm), vm);
    const __m256i w = _mm256_srli_epi64(v, 32);
    vsum = _mm256_add_epi64(vsum, _mm256_and_si256(w, sel));
  }
  alignas(32) std::uint64_t tmp[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), vsum);
  std::uint64_t sum = tmp[0] + tmp[1] + tmp[2] + tmp[3];
  for (; i < n; ++i) {
    if ((words[i] & m) == m) sum += words[i] >> 32;
  }
  return sum;
}

#endif  // QSP_WIDEOPS_HAVE_AVX2

// --------------------------- dispatch wrappers -----------------------------

void copy_xor_high32(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n, std::uint32_t mask) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return copy_xor_high32_avx2(dst, src, n, mask);
#endif
  copy_xor_high32_scalar(dst, src, n, mask);
}

void shl1_high32(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return shl1_high32_avx2(dst, src, n);
#endif
  shl1_high32_scalar(dst, src, n);
}

void or_bit_from_high32(std::uint64_t* dst, const std::uint64_t* base,
                        const std::uint64_t* words, std::size_t n, int bit) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return or_bit_from_high32_avx2(dst, base, words, n, bit);
#endif
  or_bit_from_high32_scalar(dst, base, words, n, bit);
}

ColumnBits bit_column_or_and(const std::uint64_t* words, std::size_t n,
                             int bit) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return bit_column_or_and_avx2(words, n, bit);
#endif
  return bit_column_or_and_scalar(words, n, bit);
}

std::uint64_t weight_sum_if_bit(const std::uint64_t* words, std::size_t n,
                                int bit) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return weight_sum_if_bit_avx2(words, n, bit);
#endif
  return weight_sum_if_bit_scalar(words, n, bit);
}

std::uint64_t weight_sum_if_bits(const std::uint64_t* words, std::size_t n,
                                 int bit_a, int bit_b) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return weight_sum_if_bits_avx2(words, n, bit_a, bit_b);
#endif
  return weight_sum_if_bits_scalar(words, n, bit_a, bit_b);
}

}  // namespace wideops

}  // namespace qsp
