#pragma once
// Bit-level helpers for basis indices. A basis state of an n-qubit register
// is a BasisIndex whose bit q holds the value of qubit q (qubit 0 = LSB).

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace qsp {

/// Basis state of up to 32 qubits; bit q is qubit q's value.
using BasisIndex = std::uint32_t;

/// Maximum register width supported by the library.
inline constexpr int kMaxQubits = 24;

/// Value of qubit `q` in basis index `x`.
constexpr int get_bit(BasisIndex x, int q) { return (x >> q) & 1u; }

/// `x` with qubit `q` set to `v`.
constexpr BasisIndex set_bit(BasisIndex x, int q, int v) {
  return (x & ~(BasisIndex{1} << q)) |
         (static_cast<BasisIndex>(v & 1) << q);
}

/// `x` with qubit `q` flipped.
constexpr BasisIndex flip_bit(BasisIndex x, int q) {
  return x ^ (BasisIndex{1} << q);
}

/// Number of set bits.
constexpr int popcount(BasisIndex x) { return std::popcount(x); }

/// Hamming distance between two basis indices.
constexpr int hamming(BasisIndex a, BasisIndex b) { return popcount(a ^ b); }

/// `x` with bits `a` and `b` exchanged.
BasisIndex swap_bits(BasisIndex x, int a, int b);

/// Apply a qubit permutation: bit `perm[q]` of the result is bit `q` of `x`.
BasisIndex permute_bits(BasisIndex x, const std::vector<int>& perm);

/// Binary string of `x` on `n` qubits, most significant qubit first
/// (e.g. n=3, x=0b011 -> "011", qubit 2 is the leading character).
std::string to_bitstring(BasisIndex x, int n);

/// Parse a bitstring produced by `to_bitstring`.
BasisIndex from_bitstring(const std::string& s);

/// Gray code of `i`.
constexpr std::uint32_t gray_code(std::uint32_t i) { return i ^ (i >> 1); }

/// Position of the single bit that differs between gray_code(i) and
/// gray_code(i+1).
int gray_change_bit(std::uint32_t i);

/// Parity (XOR of bits) of `x & mask`.
constexpr int parity(BasisIndex x, BasisIndex mask) {
  return std::popcount(x & mask) & 1;
}

// ---------------------------------------------------------------------------
// Wide primitives (the runtime-dispatched SIMD layer, util/simd.hpp).
//
// The hot loops of the canonicalization scan and the slot-column tests are
// expressed as batch operations over contiguous 64-bit words so one
// dispatch decision covers the whole loop. Two word layouts appear:
//
//  - *packed canonical words*: (index << 32) | count, the CanonicalKey
//    element layout of core/canonical.cpp;
//  - *entry words*: a SlotEntry {index, count} reinterpreted as one
//    64-bit word — index in the LOW half, count in the HIGH half on the
//    little-endian hosts this layer targets.
//
// Every primitive is integer-only and has `_scalar` and (on x86-64)
// `_avx2` variants that compute exactly the same words. The undecorated
// name dispatches on simd::active_isa(). Differential coverage:
// tests/test_simd.cpp. Floating-point loops (the statevector kernels,
// the multiplexor angle transform) have no twins and live with their
// callers: AVX2 variants of them won on no measured workload.
// ---------------------------------------------------------------------------

namespace wideops {

/// dst[i] = src[i] ^ (mask << 32): one X-translation pass over packed
/// canonical words. dst/src may alias elementwise (dst == src ok).
void copy_xor_high32(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t n, std::uint32_t mask);
void copy_xor_high32_scalar(std::uint64_t* dst, const std::uint64_t* src,
                            std::size_t n, std::uint32_t mask);

/// dst[i] = ((index << 1) << 32) | count — the greedy canonical scan's
/// prefix shift (index wraps mod 2^32 like the u32 arithmetic it
/// replaces). dst == src ok.
void shl1_high32(std::uint64_t* dst, const std::uint64_t* src,
                 std::size_t n);
void shl1_high32_scalar(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t n);

/// dst[i] = base[i] | (bit `bit` of words[i]'s index half) << 32 — ORs
/// one extracted index column into the low index bit. dst == base ok.
void or_bit_from_high32(std::uint64_t* dst, const std::uint64_t* base,
                        const std::uint64_t* words, std::size_t n, int bit);
void or_bit_from_high32_scalar(std::uint64_t* dst, const std::uint64_t* base,
                               const std::uint64_t* words, std::size_t n,
                               int bit);

/// OR / AND of one value-bit column over entry words: `any` is true if
/// bit `bit` of any low half is set, `all` if it is set in every word
/// (vacuously true for n == 0). Early-exits once the column is known
/// mixed.
struct ColumnBits {
  bool any = false;
  bool all = true;
};
ColumnBits bit_column_or_and(const std::uint64_t* words, std::size_t n,
                             int bit);
ColumnBits bit_column_or_and_scalar(const std::uint64_t* words, std::size_t n,
                                    int bit);

/// Sum of high-half weights over entry words whose low half has bit
/// `bit` set (a weighted bit-sliced popcount of one column).
std::uint64_t weight_sum_if_bit(const std::uint64_t* words, std::size_t n,
                                int bit);
std::uint64_t weight_sum_if_bit_scalar(const std::uint64_t* words,
                                       std::size_t n, int bit);

/// Sum of high-half weights over entry words whose low half has both
/// bits set (the joint column count of the correlation test).
std::uint64_t weight_sum_if_bits(const std::uint64_t* words, std::size_t n,
                                 int bit_a, int bit_b);
std::uint64_t weight_sum_if_bits_scalar(const std::uint64_t* words,
                                        std::size_t n, int bit_a, int bit_b);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QSP_WIDEOPS_HAVE_AVX2 1
void copy_xor_high32_avx2(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t n, std::uint32_t mask);
void shl1_high32_avx2(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t n);
void or_bit_from_high32_avx2(std::uint64_t* dst, const std::uint64_t* base,
                             const std::uint64_t* words, std::size_t n,
                             int bit);
ColumnBits bit_column_or_and_avx2(const std::uint64_t* words, std::size_t n,
                                  int bit);
std::uint64_t weight_sum_if_bit_avx2(const std::uint64_t* words,
                                     std::size_t n, int bit);
std::uint64_t weight_sum_if_bits_avx2(const std::uint64_t* words,
                                      std::size_t n, int bit_a, int bit_b);
#else
#define QSP_WIDEOPS_HAVE_AVX2 0
#endif

}  // namespace wideops

}  // namespace qsp
