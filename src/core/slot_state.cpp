#include "core/slot_state.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace qsp {

SlotState::SlotState(int num_qubits, std::vector<SlotEntry> entries)
    : num_qubits_(num_qubits) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument("SlotState: qubit count out of range");
  }
  std::sort(entries.begin(), entries.end(),
            [](const SlotEntry& a, const SlotEntry& b) {
              return a.index < b.index;
            });
  entries_.reserve(entries.size());
  for (const SlotEntry& e : entries) {
    if ((e.index >> num_qubits_) != 0) {
      throw std::invalid_argument("SlotState: index exceeds register");
    }
    if (e.count == 0) continue;
    if (!entries_.empty() && entries_.back().index == e.index) {
      entries_.back().count += e.count;
    } else {
      entries_.push_back(e);
    }
    total_ += e.count;
  }
  if (entries_.empty()) {
    throw std::invalid_argument("SlotState: no slots");
  }
}

SlotState SlotState::from_indices(int num_qubits,
                                  const std::vector<BasisIndex>& slots) {
  std::vector<SlotEntry> entries;
  entries.reserve(slots.size());
  for (const BasisIndex x : slots) entries.push_back(SlotEntry{x, 1});
  return SlotState(num_qubits, std::move(entries));
}

SlotState SlotState::ground(int num_qubits, std::uint32_t total) {
  return SlotState(num_qubits, {SlotEntry{0, total}});
}

std::optional<SlotState> SlotState::from_state(const QuantumState& state,
                                               std::uint32_t max_total) {
  const auto& terms = state.terms();
  for (const Term& t : terms) {
    if (t.amplitude < 0) return std::nullopt;
  }
  const auto m0 = static_cast<std::uint64_t>(state.cardinality());
  if (m0 > max_total) return std::nullopt;
  std::vector<SlotEntry> entries;
  entries.reserve(terms.size());
  // Total m passes when every amplitude^2 * m is within 1e-6 of a positive
  // integer count and the counts sum to m.
  const auto passes = [&](std::uint64_t m) {
    entries.clear();
    std::uint64_t used = 0;
    for (const Term& t : terms) {
      const double exact = t.amplitude * t.amplitude * static_cast<double>(m);
      const auto count = static_cast<std::uint64_t>(std::llround(exact));
      if (count < 1 || std::abs(exact - static_cast<double>(count)) > 1e-6) {
        return false;
      }
      used += count;
      entries.push_back(SlotEntry{t.index, static_cast<std::uint32_t>(count)});
    }
    return used == m;
  };
  // A passing m gives the smallest squared amplitude s a count c >= 1, so
  // m lies within 1e-6 / s of c / s: walk c and test only the totals in
  // each window (widened by one for rounding), in ascending order.
  double s = terms.front().amplitude * terms.front().amplitude;
  for (const Term& t : terms) s = std::min(s, t.amplitude * t.amplitude);
  const double limit = static_cast<double>(max_total) + 2.0;
  std::uint64_t next = m0;  // the smallest total not yet tested
  for (double c = 1.0; (c - 1e-6) / s <= limit; c += 1.0) {
    const auto lo = static_cast<std::uint64_t>(
        std::max(std::floor((c - 1e-6) / s) - 1.0, 0.0));
    const auto hi = static_cast<std::uint64_t>(
        std::min(std::ceil((c + 1e-6) / s) + 1.0, limit));
    for (std::uint64_t m = std::max(lo, next);
         m <= std::min<std::uint64_t>(hi, max_total); ++m) {
      if (passes(m)) return SlotState(state.num_qubits(), std::move(entries));
    }
    next = std::max(next, hi + 1);
  }
  return std::nullopt;
}

QuantumState SlotState::to_state() const {
  std::vector<Term> terms;
  terms.reserve(entries_.size());
  const double m = static_cast<double>(total_);
  for (const SlotEntry& e : entries_) {
    terms.push_back(Term{e.index, std::sqrt(static_cast<double>(e.count) / m)});
  }
  return QuantumState(num_qubits_, std::move(terms));
}

bool SlotState::is_ground() const {
  return entries_.size() == 1 && entries_[0].index == 0;
}

SlotState SlotState::with_x(int target) const {
  QSP_ASSERT(target >= 0 && target < num_qubits_);
  std::vector<SlotEntry> out(entries_);
  for (SlotEntry& e : out) e.index = flip_bit(e.index, target);
  return SlotState(num_qubits_, std::move(out));
}

SlotState SlotState::with_cnot(int control, bool positive,
                               int target) const {
  QSP_ASSERT(control >= 0 && control < num_qubits_ && control != target);
  QSP_ASSERT(target >= 0 && target < num_qubits_);
  const int want = positive ? 1 : 0;
  std::vector<SlotEntry> out(entries_);
  for (SlotEntry& e : out) {
    if (get_bit(e.index, control) == want) e.index = flip_bit(e.index, target);
  }
  return SlotState(num_qubits_, std::move(out));
}

SlotState SlotState::with_permutation(const std::vector<int>& perm) const {
  QSP_ASSERT(static_cast<int>(perm.size()) == num_qubits_);
  std::vector<SlotEntry> out(entries_);
  for (SlotEntry& e : out) e.index = permute_bits(e.index, perm);
  return SlotState(num_qubits_, std::move(out));
}

SlotState SlotState::with_translation(BasisIndex mask) const {
  QSP_ASSERT((mask >> num_qubits_) == 0);
  std::vector<SlotEntry> out(entries_);
  for (SlotEntry& e : out) e.index ^= mask;
  return SlotState(num_qubits_, std::move(out));
}

bool SlotState::qubit_constant(int qubit, int* value) const {
  QSP_ASSERT(qubit >= 0 && qubit < num_qubits_);
  const wideops::ColumnBits cb =
      wideops::bit_column_or_and(entry_words(entries_), entries_.size(), qubit);
  if (cb.any != cb.all) return false;  // column is mixed
  if (value != nullptr) *value = cb.any ? 1 : 0;
  return true;
}

bool SlotState::qubit_separable(int qubit) const {
  QSP_ASSERT(qubit >= 0 && qubit < num_qubits_);
  // Group entries by rest-index (bit `qubit` cleared); separable iff the
  // count ratios k_r/j_r agree across groups (cross-multiplication test).
  // Entries are index-sorted and unique, so the bit-clear and bit-set
  // subsequences are each rest-sorted with at most one member per group:
  // a two-pointer merge-join walks the groups in ascending rest order
  // without materializing a rest-keyed map.
  const BasisIndex bit = BasisIndex{1} << qubit;
  const std::size_t m = entries_.size();
  const auto next_clear = [&](std::size_t i) {
    while (i < m && (entries_[i].index & bit) != 0) ++i;
    return i;
  };
  const auto next_set = [&](std::size_t i) {
    while (i < m && (entries_[i].index & bit) == 0) ++i;
    return i;
  };
  constexpr BasisIndex kNoRest = ~BasisIndex{0};  // > any real index
  std::size_t a = next_clear(0);
  std::size_t b = next_set(0);
  std::uint64_t j0 = 0, k0 = 0;
  bool have_first = false;
  while (a < m || b < m) {
    const BasisIndex ra = a < m ? entries_[a].index : kNoRest;
    const BasisIndex rb = b < m ? (entries_[b].index ^ bit) : kNoRest;
    const bool take_a = ra <= rb;
    const bool take_b = rb <= ra;
    std::uint64_t j = 0, k = 0;
    if (take_a) {
      j = entries_[a].count;
      a = next_clear(a + 1);
    }
    if (take_b) {
      k = entries_[b].count;
      b = next_set(b + 1);
    }
    if (!have_first) {
      j0 = j;
      k0 = k;
      have_first = true;
      continue;
    }
    // Counts are bounded by 2^32, so the cross products fit in 128 bits.
    if (static_cast<unsigned __int128>(k) * j0 !=
        static_cast<unsigned __int128>(k0) * j) {
      return false;
    }
  }
  return true;
}

std::size_t SlotState::hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(num_qubits_));
  for (const SlotEntry& e : entries_) {
    mix((static_cast<std::uint64_t>(e.index) << 32) | e.count);
  }
  return h;
}

std::string SlotState::to_string() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) os << ',';
    os << to_bitstring(entries_[i].index, num_qubits_);
    if (entries_[i].count != 1) os << "x" << entries_[i].count;
  }
  os << '}';
  return os.str();
}

}  // namespace qsp
