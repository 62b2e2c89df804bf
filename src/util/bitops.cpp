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

// NOTE: this TU is compiled with -ffp-contract=off (see CMakeLists.txt) so
// the scalar floating-point loops cannot be FMA-contracted into results
// that differ from the mul/add/sub sequences the AVX2 kernels perform.
// Keeping every FP element loop in this one TU is what makes the
// scalar/AVX2 bit-identity guarantee auditable.

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

void rotate_pairs_d_scalar(double* a, double* b, std::size_t n, double co,
                           double si) {
  for (std::size_t i = 0; i < n; ++i) {
    const double x = a[i];
    const double y = b[i];
    a[i] = co * x - si * y;
    b[i] = si * x + co * y;
  }
}

void swap_ranges_d_scalar(double* a, double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double t = a[i];
    a[i] = b[i];
    b[i] = t;
  }
}

void complex_scale_d_scalar(double* interleaved, std::size_t n_complex,
                            double re, double im) {
  for (std::size_t i = 0; i < n_complex; ++i) {
    const double x = interleaved[2 * i];
    const double y = interleaved[2 * i + 1];
    interleaved[2 * i] = x * re - y * im;
    interleaved[2 * i + 1] = y * re + x * im;
  }
}

double parity_signed_sum_d_scalar(const double* a, std::size_t n,
                                  std::uint32_t mask) {
  // Four lane accumulators (element i feeds lane i % 4) mirror the AVX2
  // register layout; the final combine order is part of the contract.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const int par = parity(static_cast<BasisIndex>(i), mask);
    lane[i & 3] += (par != 0) ? -a[i] : a[i];
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
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

QSP_TARGET_AVX2
void rotate_pairs_d_avx2(double* a, double* b, std::size_t n, double co,
                         double si) {
  const __m256d vco = _mm256_set1_pd(co);
  const __m256d vsi = _mm256_set1_pd(si);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(a + i);
    const __m256d y = _mm256_loadu_pd(b + i);
    // Same mul/sub/add shape as the scalar loop; -ffp-contract=off keeps
    // the scalar side from fusing these into FMAs.
    const __m256d na =
        _mm256_sub_pd(_mm256_mul_pd(vco, x), _mm256_mul_pd(vsi, y));
    const __m256d nb =
        _mm256_add_pd(_mm256_mul_pd(vsi, x), _mm256_mul_pd(vco, y));
    _mm256_storeu_pd(a + i, na);
    _mm256_storeu_pd(b + i, nb);
  }
  if (i < n) rotate_pairs_d_scalar(a + i, b + i, n - i, co, si);
}

QSP_TARGET_AVX2
void swap_ranges_d_avx2(double* a, double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(a + i);
    const __m256d y = _mm256_loadu_pd(b + i);
    _mm256_storeu_pd(a + i, y);
    _mm256_storeu_pd(b + i, x);
  }
  if (i < n) swap_ranges_d_scalar(a + i, b + i, n - i);
}

QSP_TARGET_AVX2
void complex_scale_d_avx2(double* interleaved, std::size_t n_complex,
                          double re, double im) {
  const __m256d vre = _mm256_set1_pd(re);
  // Lane layout (low to high): (x0, y0, x1, y1); the mixed factor applies
  // -im to x lanes and +im to y lanes, so lane k of v*vre + swap(v)*vmix
  // is exactly x*re - y*im / y*re + x*im (IEEE a-b == a+(-b), and
  // y*(-im) == -(y*im) exactly).
  const __m256d vmix = _mm256_set_pd(im, -im, im, -im);
  std::size_t i = 0;
  for (; i + 2 <= n_complex; i += 2) {
    double* p = interleaved + 2 * i;
    const __m256d v = _mm256_loadu_pd(p);
    const __m256d sw = _mm256_permute_pd(v, 0b0101);  // (y0, x0, y1, x1)
    _mm256_storeu_pd(
        p, _mm256_add_pd(_mm256_mul_pd(v, vre), _mm256_mul_pd(sw, vmix)));
  }
  if (i < n_complex) {
    complex_scale_d_scalar(interleaved + 2 * i, n_complex - i, re, im);
  }
}

QSP_TARGET_AVX2
double parity_signed_sum_d_avx2(const double* a, std::size_t n,
                                std::uint32_t mask) {
  // Lane d accumulates elements i == d (mod 4). For an aligned block at
  // base (base % 4 == 0): parity((base+d) & mask) =
  // parity(base & mask) ^ parity(d & mask & 3), so the per-lane sign
  // pattern is fixed and the whole block flips with the base parity.
  alignas(32) double lane_sign_init[4];
  for (int d = 0; d < 4; ++d) {
    lane_sign_init[d] =
        (parity(static_cast<BasisIndex>(d), mask & 3u) != 0) ? -0.0 : 0.0;
  }
  const __m256d lane_sign = _mm256_load_pd(lane_sign_init);
  const __m256d flip = _mm256_set1_pd(-0.0);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d sign = lane_sign;
    if (parity(static_cast<BasisIndex>(i), mask) != 0) {
      sign = _mm256_xor_pd(sign, flip);
    }
    const __m256d v =
        _mm256_xor_pd(_mm256_loadu_pd(a + i), sign);  // exact +-a[i]
    acc = _mm256_add_pd(acc, v);
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < n; ++i) {
    const int par = parity(static_cast<BasisIndex>(i), mask);
    lane[i & 3] += (par != 0) ? -a[i] : a[i];
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
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

void rotate_pairs_d(double* a, double* b, std::size_t n, double co,
                    double si) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return rotate_pairs_d_avx2(a, b, n, co, si);
#endif
  rotate_pairs_d_scalar(a, b, n, co, si);
}

void swap_ranges_d(double* a, double* b, std::size_t n) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return swap_ranges_d_avx2(a, b, n);
#endif
  swap_ranges_d_scalar(a, b, n);
}

void complex_scale_d(double* interleaved, std::size_t n_complex, double re,
                     double im) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return complex_scale_d_avx2(interleaved, n_complex, re, im);
#endif
  complex_scale_d_scalar(interleaved, n_complex, re, im);
}

double parity_signed_sum_d(const double* a, std::size_t n,
                           std::uint32_t mask) {
#if QSP_WIDEOPS_HAVE_AVX2
  if (use_avx2()) return parity_signed_sum_d_avx2(a, n, mask);
#endif
  return parity_signed_sum_d_scalar(a, n, mask);
}

}  // namespace wideops

}  // namespace qsp
