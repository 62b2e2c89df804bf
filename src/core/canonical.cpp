#include "core/canonical.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/moves.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace qsp {
namespace {

constexpr std::uint64_t kPackedCountMask = 0x00000000FFFFFFFFull;

/// Widest register kPU2Exact searches exactly; above it the level runs
/// the greedy ordering (see canonical.hpp).
constexpr int kExactPermMaxQubits = 8;

std::uint64_t pack(BasisIndex index, std::uint32_t count) {
  return (static_cast<std::uint64_t>(index) << 32) | count;
}

/// Entries packed as (index << 32 | count) in entry order — the base
/// vector every translation pass operates on via the wide primitives
/// (util/bitops wideops).
void pack_entries(const std::vector<SlotEntry>& entries, CanonicalKey& out) {
  out.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out[i] = pack(entries[i].index, entries[i].count);
  }
}

/// One partial qubit relabeling of the exact search: `assigned` holds the
/// source qubits that already own an output bit, and `pos` packs each
/// one's output bit in 3 bits, qubit 0 most significant, so comparing two
/// complete `pos` values compares their permutation vectors
/// lexicographically.
struct PartialPerm {
  std::uint32_t pos = 0;
  std::uint32_t assigned = 0;
};

int pos_shift(int q) { return 3 * (kExactPermMaxQubits - 1 - q); }

int output_bit(std::uint32_t pos, int q) {
  return static_cast<int>((pos >> pos_shift(q)) & 7u);
}

/// Reused buffers for exact_perm_form (the scan calls it once per
/// translation).
struct ExactScratch {
  std::vector<PartialPerm> level;  ///< the minimal assignments at depth d
  std::vector<PartialPerm> next;
  CanonicalKey block;       ///< one child's newly completed words, sorted
  CanonicalKey best_block;  ///< the minimal block over the depth's children
};

/// Order of two depth-d blocks of newly completed words (both sorted).
/// The final key is the common prefix, then the block, then words whose
/// index is at least 2^(d+1); so a block that is a proper prefix of the
/// other leaves a larger word in its place and is the larger one.
int compare_blocks(std::span<const std::uint64_t> a,
                   std::span<const std::uint64_t> b) {
  const std::size_t k = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < k; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() > b.size() ? -1 : 1;
}

/// Exact lex-min over all qubit permutations of the translated packed
/// words `t` (any order, one of them at index 0), by branch and bound over
/// output bit positions, lowest first. Once output bits 0..d-1 are
/// assigned, every entry whose index uses assigned qubits only has its
/// final word fixed below 2^d, and every other entry lands at or above
/// 2^d: the fixed words, sorted, are a prefix of the final key. Two
/// assignments at one depth are therefore already ordered when their
/// prefixes differ, and only the minimal ones are extended; at depth n the
/// survivors are exactly the minimizers. `argmin`, when non-null, receives
/// the lexicographically smallest minimizing permutation (the first one
/// in next_permutation order).
///
/// `incumbent` is the best key of an earlier translation (empty if none).
/// The search stops and returns false as soon as it knows no completion
/// is strictly below it; otherwise `out` receives the minimum.
bool exact_perm_form(const CanonicalKey& t, int n,
                     const CanonicalKey& incumbent, ExactScratch& xs,
                     CanonicalKey& out, std::vector<int>* argmin) {
  // Appends the minimal block, whose indices are below `limit`, to `out`
  // and compares it with the incumbent's block at the same depth; false
  // once no completion can be strictly below the incumbent.
  bool below = incumbent.empty();
  const auto append_block = [&](std::uint64_t limit) {
    const std::size_t at = out.size();
    out.insert(out.end(), xs.best_block.begin(), xs.best_block.end());
    if (below) return true;
    std::size_t end = at;
    while (end < incumbent.size() && (incumbent[end] >> 32) < limit) ++end;
    const int order = compare_blocks(
        xs.best_block, std::span(incumbent).subspan(at, end - at));
    below = order < 0;
    return order <= 0;
  };
  out.clear();
  xs.best_block.clear();
  for (const std::uint64_t w : t) {
    if ((w >> 32) == 0) xs.best_block.push_back(w);
  }
  if (!append_block(1)) return false;
  xs.level.assign(1, PartialPerm{});
  for (int d = 0; d < n; ++d) {
    xs.next.clear();
    for (const PartialPerm node : xs.level) {
      for (int q = 0; q < n; ++q) {
        const std::uint32_t bit = std::uint32_t{1} << q;
        if ((node.assigned & bit) != 0) continue;
        const PartialPerm child{
            node.pos | (static_cast<std::uint32_t>(d) << pos_shift(q)),
            node.assigned | bit};
        xs.block.clear();
        for (const std::uint64_t w : t) {
          const auto index = static_cast<BasisIndex>(w >> 32);
          if ((index & ~node.assigned) != bit) continue;
          BasisIndex relabeled = 0;
          for (BasisIndex rest = index; rest != 0; rest &= rest - 1) {
            relabeled |= BasisIndex{1}
                         << output_bit(child.pos, std::countr_zero(rest));
          }
          xs.block.push_back(pack(relabeled, static_cast<std::uint32_t>(w)));
        }
        std::sort(xs.block.begin(), xs.block.end());
        const int order = xs.next.empty()
                              ? -1
                              : compare_blocks(xs.block, xs.best_block);
        if (order < 0) {
          xs.best_block.swap(xs.block);
          xs.next.clear();
        }
        if (order <= 0) xs.next.push_back(child);
      }
    }
    if (!append_block(std::uint64_t{2} << d)) return false;
    xs.level.swap(xs.next);
  }
  if (!below) return false;  // equal to the incumbent, which came first
  if (argmin != nullptr) {
    std::uint32_t pos = xs.level.front().pos;
    for (const PartialPerm node : xs.level) pos = std::min(pos, node.pos);
    argmin->resize(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      (*argmin)[static_cast<std::size_t>(q)] = output_bit(pos, q);
    }
  }
  return true;
}

/// Reused buffers for greedy_perm_form, which the scan calls once per
/// translation.
struct GreedyScratch {
  CanonicalKey work;        ///< pack(prefix, count), aligned with packed
  CanonicalKey shifted;     ///< work with prefix << 1
  CanonicalKey vals;        ///< shifted | extracted column q (entry order)
  CanonicalKey vals_sorted; ///< sorted copy compared across q
  CanonicalKey best_vals;
  CanonicalKey best_vals_sorted;
  std::vector<char> used;
};

/// Greedy deterministic qubit ordering: repeatedly pick the unused qubit
/// that lexicographically minimizes the sorted partial (prefix, count)
/// vector. Sound for deduplication (the result lies in the orbit) though
/// not guaranteed orbit-minimal; used when n is too large for exact
/// permutation search. When `argmin` is non-null it receives the implied
/// permutation (the qubit picked at step s lands at bit n-1-s).
///
/// Bit-sliced: prefixes live in the high half of packed words, so the
/// per-candidate partial key is one shl1_high32 (shared per step) plus
/// one or_bit_from_high32 column extraction per qubit.
void greedy_perm_form(const CanonicalKey& packed, int n, GreedyScratch& gs,
                      CanonicalKey& out,
                      std::vector<int>* argmin = nullptr) {
  const std::size_t m = packed.size();
  gs.work.resize(m);
  for (std::size_t i = 0; i < m; ++i) gs.work[i] = packed[i] & kPackedCountMask;
  gs.used.assign(static_cast<std::size_t>(n), 0);
  if (argmin != nullptr) argmin->assign(static_cast<std::size_t>(n), 0);
  for (int step = 0; step < n; ++step) {
    gs.shifted.resize(m);
    wideops::shl1_high32(gs.shifted.data(), gs.work.data(), m);
    int best_q = -1;
    for (int q = 0; q < n; ++q) {
      if (gs.used[static_cast<std::size_t>(q)] != 0) continue;
      gs.vals.resize(m);
      wideops::or_bit_from_high32(gs.vals.data(), gs.shifted.data(),
                                  packed.data(), m, q);
      gs.vals_sorted.assign(gs.vals.begin(), gs.vals.end());
      std::sort(gs.vals_sorted.begin(), gs.vals_sorted.end());
      if (best_q < 0 || gs.vals_sorted < gs.best_vals_sorted) {
        best_q = q;
        gs.best_vals_sorted.swap(gs.vals_sorted);
        gs.best_vals.swap(gs.vals);  // keep the entry-order form too
      }
    }
    gs.used[static_cast<std::size_t>(best_q)] = 1;
    if (argmin != nullptr) {
      (*argmin)[static_cast<std::size_t>(best_q)] = n - 1 - step;
    }
    // The winner's entry-order column extraction IS the next prefix
    // vector — no per-entry recomputation.
    gs.work.swap(gs.best_vals);
  }
  out.assign(gs.work.begin(), gs.work.end());
  std::sort(out.begin(), out.end());
}

/// Ry angle realizing the free merge of separable qubit q on the
/// statevector: rotates the qubit's product factor (sqrt(j), sqrt(k)) onto
/// (sqrt(j+k), 0), exactly the bit clear compress_free performs. A
/// separable non-constant qubit has j > 0 and k > 0 in every rest-group
/// (a zero on one side of any group breaks the common-ratio test), so any
/// group determines the angle. To stay bitwise stable we always use the
/// minimal-rest group, and by separability its bit-clear member is the
/// first entry: rest_min <= every (index & ~bit) <= every index, and
/// rest_min is itself an entry index (j > 0), so rest_min ==
/// entries[0].index. The bit-set member (rest_min | bit) then resolves
/// with one binary search — no per-call rest-group map.
double merge_angle(const SlotState& state, int q) {
  const BasisIndex bit = BasisIndex{1} << q;
  const std::vector<SlotEntry>& entries = state.entries();
  QSP_ASSERT(!entries.empty());
  const SlotEntry& clear_side = entries.front();
  QSP_ASSERT((clear_side.index & bit) == 0 &&
             "merge_angle: qubit is constant-1 or state not separable");
  const BasisIndex set_index = clear_side.index | bit;
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), set_index,
      [](const SlotEntry& e, BasisIndex x) { return e.index < x; });
  QSP_ASSERT(it != entries.end() && it->index == set_index &&
             "merge_angle: qubit is constant, not mergeable");
  const std::uint64_t j = clear_side.count;
  const std::uint64_t k = it->count;
  return -2.0 * std::atan2(std::sqrt(static_cast<double>(k)),
                           std::sqrt(static_cast<double>(j)));
}

/// The one candidate scan behind canonical_key and canonical_witness.
/// When `witness` is non-null it also receives the merge gates, the
/// translation and the permutation reaching the returned key (its `key`
/// field is left to the caller).
///
/// Lex-minimal forms start with index 0, so only translations by support
/// indices are candidates. Translating by entry e moves e to index 0,
/// which no permutation moves, so every candidate from e starts with the
/// word pack(0, e.count): only the entries of minimal count can give the
/// minimum. Skipping the others keeps the first-best order (entry order,
/// then permutation order), so the witness is unchanged too.
CanonicalKey canonical_scan(const SlotState& state, CanonicalLevel level,
                            CanonicalWitness* witness) {
  const int n = state.num_qubits();
  if (witness != nullptr) {
    witness->permutation.resize(static_cast<std::size_t>(n));
    std::iota(witness->permutation.begin(), witness->permutation.end(), 0);
  }
  CanonicalKey best;
  if (level == CanonicalLevel::kNone) {
    pack_entries(state.entries(), best);
    return best;
  }
  const SlotState compressed = compress_free(
      state, witness != nullptr ? &witness->merge_gates : nullptr);
  const bool exact_perm =
      level == CanonicalLevel::kPU2Exact && n <= kExactPermMaxQubits;
  const bool greedy_perm_pass =
      level == CanonicalLevel::kPU2Greedy ||
      (level == CanonicalLevel::kPU2Exact && !exact_perm);

  const std::vector<SlotEntry>& entries = compressed.entries();
  // Packed once; each translation is one wide XOR pass over it.
  CanonicalKey base;
  pack_entries(entries, base);
  std::uint32_t min_count = entries.front().count;
  for (const SlotEntry& e : entries) min_count = std::min(min_count, e.count);

  CanonicalKey t;
  CanonicalKey candidate;
  GreedyScratch gs;
  ExactScratch xs;
  std::vector<int> perm;
  std::vector<int>* argmin = witness != nullptr ? &perm : nullptr;
  for (const SlotEntry& e : entries) {
    if (e.count != min_count) continue;
    t.resize(base.size());
    wideops::copy_xor_high32(t.data(), base.data(), base.size(), e.index);
    if (exact_perm) {
      if (!exact_perm_form(t, n, best, xs, candidate, argmin)) continue;
    } else {
      std::sort(t.begin(), t.end());
      if (greedy_perm_pass) {
        greedy_perm_form(t, n, gs, candidate, argmin);
      } else {
        candidate.swap(t);
      }
      if (!best.empty() && !(candidate < best)) continue;
    }
    best.swap(candidate);
    if (witness != nullptr) {
      witness->translation = e.index;
      if (exact_perm || greedy_perm_pass) witness->permutation = perm;
    }
  }
  return best;
}

}  // namespace

std::size_t CanonicalKeyHash::operator()(const CanonicalKey& key) const {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t x : key) {
    h ^= x;
    h *= 1099511628211ull;
  }
  // A multiply carries only upward, so the low half of h still depends on
  // the counts alone (the low half of each word). Fold the index half down
  // before the searches take hash % num_shards as a class's owner.
  h ^= h >> 32;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 29;
  return static_cast<std::size_t>(h);
}

SlotState compress_free(const SlotState& state,
                        std::vector<Gate>* merge_gates) {
  SlotState cur = state;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int q = 0; q < cur.num_qubits(); ++q) {
      if (cur.qubit_constant(q)) continue;
      if (!cur.qubit_separable(q)) continue;
      if (merge_gates != nullptr) {
        merge_gates->push_back(Gate::ry(q, merge_angle(cur, q)));
      }
      // Zero-cost merge: clear bit q in every entry (duplicates merge in
      // the constructor).
      std::vector<SlotEntry> entries = cur.entries();
      const BasisIndex bit = BasisIndex{1} << q;
      for (SlotEntry& e : entries) e.index &= ~bit;
      cur = SlotState(cur.num_qubits(), std::move(entries));
      changed = true;
    }
  }
  return cur;
}

CanonicalKey canonical_key(const SlotState& state, CanonicalLevel level) {
  return canonical_scan(state, level, nullptr);
}

CanonicalWitness canonical_witness(const SlotState& state,
                                   CanonicalLevel level) {
  CanonicalWitness w;
  w.key = canonical_scan(state, level, &w);
  return w;
}

bool free_reducible(const SlotState& state, CanonicalLevel level) {
  if (level == CanonicalLevel::kNone) return state.is_ground();
  const SlotState compressed = compress_free(state);
  // After compression every separable qubit is constant; reducible iff all
  // qubits are constant (constant-1 clears with a free X).
  for (int q = 0; q < compressed.num_qubits(); ++q) {
    if (!compressed.qubit_constant(q)) return false;
  }
  return true;
}

std::vector<Gate> free_peel_gates(SlotState& state) {
  std::vector<Gate> gates;
  bool progress = true;
  while (!state.is_ground() && progress) {
    progress = false;
    for (int q = 0; q < state.num_qubits(); ++q) {
      int value = 0;
      if (state.qubit_constant(q, &value)) {
        if (value == 1) {
          gates.push_back(Gate::x(q));
          state = state.with_x(q);
          progress = true;
        }
        continue;
      }
      if (!state.qubit_separable(q)) continue;
      // Same minimal-rest-group angle compress_free records (merge_angle
      // used to be duplicated inline here).
      const double theta = merge_angle(state, q);
      QSP_ASSERT(theta != 0.0);
      Move mv;
      mv.kind = MoveKind::kRotation;
      mv.target = q;
      mv.theta = theta;
      state = apply_move(state, mv);
      gates.push_back(Gate::ry(q, theta));
      progress = true;
    }
  }
  return gates;
}

std::vector<Gate> free_disentangle_gates(const SlotState& state,
                                         SlotState* reached) {
  SlotState cur = state;
  std::vector<Gate> gates = free_peel_gates(cur);
  if (!cur.is_ground()) {
    throw std::invalid_argument(
        "free_disentangle_gates: state is not fully separable");
  }
  if (reached != nullptr) *reached = cur;
  return gates;
}

}  // namespace qsp
