#include "prep/mflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Candidate pairs the kCheapest strategy evaluates per merge.
constexpr std::size_t kCheapestCandidates = 16;

/// A control budget no isolation reaches (at most n - 1 controls).
constexpr int kNoCap = std::numeric_limits<int>::max();

/// What `isolate` returns once its control count is sure to reach the cap.
constexpr int kStopped = -1;

struct TermEntry {
  BasisIndex index;
  double amplitude;
};

class Engine {
 public:
  Engine(const QuantumState& target, const MFlowOptions& options)
      : n_(target.num_qubits()),
        options_(options),
        deadline_(options.time_budget_seconds) {
    terms_.reserve(target.terms().size());
    for (const Term& t : target.terms()) {
      terms_.push_back(TermEntry{t.index, t.amplitude});
    }
    sort_terms();
  }

  bool expired() const { return deadline_.expired(); }
  std::size_t cardinality() const { return terms_.size(); }
  const std::vector<Gate>& gates() const { return gates_; }

  QuantumState current_state() const {
    std::vector<Term> terms;
    terms.reserve(terms_.size());
    for (const TermEntry& t : terms_) terms.push_back(Term{t.index, t.amplitude});
    return QuantumState(n_, std::move(terms));
  }

  /// One merge iteration: pick a pair and pivot, unify, isolate, rotate.
  void merge_step() {
    QSP_ASSERT(terms_.size() > 1);
    build_columns();
    const MergePlan plan = select_plan();
    const BasisIndex x1 = terms_[plan.keep].index;
    const BasisIndex x2 = terms_[plan.drop].index;
    std::vector<ControlLiteral> controls;
    isolate(plan, kNoCap, &controls);

    // Unify: make the pair differ in exactly one qubit (the pivot) with
    // CNOTs conditioned on x2's pivot bit, which x1 does not have.
    const BasisIndex dif = flip_bit(x1 ^ x2, plan.pivot);
    const int want = get_bit(x2, plan.pivot);
    for (BasisIndex d = dif; d != 0; d &= d - 1) {
      gates_.push_back(Gate::cnot(plan.pivot, std::countr_zero(d), want == 1));
    }
    for (TermEntry& t : terms_) {
      if (get_bit(t.index, plan.pivot) == want) t.index ^= dif;
    }
    sort_terms();
    apply_merge(x1, plan.pivot, controls);
  }

  /// Map the final single index to |0...0> with free X gates.
  void finish() {
    QSP_ASSERT(terms_.size() == 1);
    BasisIndex x = terms_[0].index;
    while (x != 0) {
      const int q = std::countr_zero(x);
      x = flip_bit(x, q);
      gates_.push_back(Gate::x(q));
    }
    terms_[0].index = 0;
    // A leftover amplitude of -1 is an unobservable global sign.
  }

 private:
  /// A merge of the terms at positions `keep` < `drop` of `terms_`: the
  /// unifying CNOTs move drop onto keep ^ e_pivot, and a rotation on the
  /// pivot merges the pair into keep.
  struct MergePlan {
    std::size_t keep = 0;
    std::size_t drop = 0;
    int pivot = 0;
  };

  void sort_terms() {
    std::sort(terms_.begin(), terms_.end(),
              [](const TermEntry& a, const TermEntry& b) {
                return a.index < b.index;
              });
  }

  /// Position of index `x` in `terms_` at or after `from`, or the size.
  std::size_t position_of(BasisIndex x, std::size_t from) const {
    const auto it = std::lower_bound(
        terms_.begin() + static_cast<std::ptrdiff_t>(from), terms_.end(), x,
        [](const TermEntry& t, BasisIndex v) { return t.index < v; });
    if (it != terms_.end() && it->index == x) {
      return static_cast<std::size_t>(it - terms_.begin());
    }
    return terms_.size();
  }

  /// The support as bit columns: bit i of column q is bit q of term i.
  void build_columns() {
    words_ = (terms_.size() + 63) / 64;
    columns_.assign(static_cast<std::size_t>(n_) * words_, 0);
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i % 64);
      for (BasisIndex x = terms_[i].index; x != 0; x &= x - 1) {
        columns_[static_cast<std::size_t>(std::countr_zero(x)) * words_ +
                 i / 64] |= bit;
      }
    }
  }

  /// Greedy minimal control set that isolates the plan's pair, once the
  /// unifying CNOTs have run, from the rest of the support; each pick is
  /// the qubit on which the most surviving terms differ from keep, the
  /// lowest qubit on a tie. The CNOTs act on the columns: each column in
  /// `dif` gets drop's side of the pivot XORed in. Returns the control
  /// count, or kStopped once that count is sure to reach `cap`: no pick
  /// eliminates more terms than the pick before it.
  int isolate(const MergePlan& plan, int cap,
              std::vector<ControlLiteral>* controls) {
    const BasisIndex keep = terms_[plan.keep].index;
    const BasisIndex drop = terms_[plan.drop].index;
    const BasisIndex dif = flip_bit(keep ^ drop, plan.pivot);
    const std::uint64_t* pivot_column =
        &columns_[static_cast<std::size_t>(plan.pivot) * words_];
    const std::uint64_t pivot_flip = get_bit(drop, plan.pivot) ? 0 : ~0ull;
    survivors_.assign(words_, ~0ull);
    if (terms_.size() % 64 != 0) {
      survivors_.back() = (std::uint64_t{1} << (terms_.size() % 64)) - 1;
    }
    survivors_[plan.keep / 64] &= ~(std::uint64_t{1} << (plan.keep % 64));
    survivors_[plan.drop / 64] &= ~(std::uint64_t{1} << (plan.drop % 64));
    // Bit i of the result: does unified term i differ from keep on q?
    const auto differs = [&](int q, std::size_t w) {
      const std::uint64_t moved = get_bit(dif, q) ? ~0ull : 0;
      const std::uint64_t keep_bit = get_bit(keep, q) ? ~0ull : 0;
      return columns_[static_cast<std::size_t>(q) * words_ + w] ^
             (moved & (pivot_column[w] ^ pivot_flip)) ^ keep_bit;
    };

    std::size_t remaining = terms_.size() - 2;
    std::size_t elim_bound = remaining;
    BasisIndex used = BasisIndex{1} << plan.pivot;
    std::size_t count = 0;
    while (remaining > 0) {
      if (count + (remaining + elim_bound - 1) / elim_bound >=
          static_cast<std::size_t>(cap)) {
        return kStopped;
      }
      int best_q = -1;
      std::size_t best_elim = 0;
      for (int q = 0; q < n_; ++q) {
        if (get_bit(used, q) != 0) continue;
        std::size_t elim = 0;
        for (std::size_t w = 0; w < words_; ++w) {
          elim += static_cast<std::size_t>(
              std::popcount(survivors_[w] & differs(q, w)));
        }
        if (elim > best_elim) {
          best_elim = elim;
          best_q = q;
        }
      }
      // Progress is guaranteed: a survivor matching keep on every qubit
      // but the pivot would be keep or unified drop, which are excluded.
      QSP_ASSERT(best_q >= 0);
      used = flip_bit(used, best_q);
      for (std::size_t w = 0; w < words_; ++w) {
        survivors_[w] &= ~differs(best_q, w);
      }
      remaining -= best_elim;
      elim_bound = best_elim;
      ++count;
      if (controls != nullptr) {
        controls->push_back(ControlLiteral{best_q, get_bit(keep, best_q) == 1});
      }
    }
    return static_cast<int>(count);
  }

  /// Rotate the isolated pair {x1, x1 ^ e_pivot} so all mass lands on
  /// x1. The controls hold on no other term, so the rotation touches only
  /// the pair, and the term left at (numerically) zero is removed.
  void apply_merge(BasisIndex x1, int pivot,
                   const std::vector<ControlLiteral>& controls) {
    const BasisIndex pbit = BasisIndex{1} << pivot;
    const std::size_t lo = position_of(x1 & ~pbit, 0);
    const std::size_t hi = position_of(x1 | pbit, 0);
    QSP_ASSERT(lo < terms_.size() && hi < terms_.size());
    const bool x1_high = (x1 & pbit) != 0;
    const double u0 = terms_[lo].amplitude;
    const double u1 = terms_[hi].amplitude;
    QSP_ASSERT(std::abs(x1_high ? u0 : u1) > QuantumState::kAmplitudeEpsilon);
    // Ry(theta) sends (u0, u1) to (h, 0) or (0, h) with h > 0, landing the
    // merged amplitude on x1's side of the pivot.
    const double theta = x1_high ? 2.0 * std::atan2(u0, u1)
                                 : -2.0 * std::atan2(u1, u0);
    gates_.push_back(Gate::mcry(controls, pivot, theta));

    const double co = std::cos(theta / 2);
    const double si = std::sin(theta / 2);
    const double w0 = co * u0 - si * u1;
    const double w1 = si * u0 + co * u1;
    terms_[lo].amplitude = w0;
    terms_[hi].amplitude = w1;
    if (std::abs(w1) <= QuantumState::kAmplitudeEpsilon) {
      terms_.erase(terms_.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    if (std::abs(w0) <= QuantumState::kAmplitudeEpsilon) {
      terms_.erase(terms_.begin() + static_cast<std::ptrdiff_t>(lo));
    }
  }

  /// Keep i, drop j, pivot on their lowest differing qubit.
  MergePlan default_plan(std::size_t i, std::size_t j) const {
    return MergePlan{i, j,
                     std::countr_zero(terms_[i].index ^ terms_[j].index)};
  }

  MergePlan select_plan() {
    if (options_.strategy == MFlowOptions::PairStrategy::kPrefixAdjacent) {
      // Deepest shared prefix == smallest XOR among sorted neighbours.
      BasisIndex best_xor = ~BasisIndex{0};
      std::size_t best_i = 0;
      for (std::size_t i = 0; i + 1 < terms_.size(); ++i) {
        const BasisIndex x = terms_[i].index ^ terms_[i + 1].index;
        if (x < best_xor) {
          best_xor = x;
          best_i = i;
        }
      }
      return default_plan(best_i, best_i + 1);
    }

    // Collect minimum-Hamming-distance candidate pairs, as positions in
    // ascending index order. Distance-1 pairs are found by one binary
    // search per unset bit; otherwise fall back to a scan.
    std::vector<std::pair<std::size_t, std::size_t>>& candidates = pairs_;
    candidates.clear();
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const BasisIndex x = terms_[i].index;
      for (int q = 0; q < n_; ++q) {
        if (get_bit(x, q) != 0) continue;
        const std::size_t j = position_of(flip_bit(x, q), i + 1);
        if (j < terms_.size()) candidates.emplace_back(i, j);
      }
    }
    if (candidates.empty()) {
      int best = std::numeric_limits<int>::max();
      for (std::size_t i = 0; i < terms_.size(); ++i) {
        for (std::size_t j = i + 1; j < terms_.size(); ++j) {
          const int d = hamming(terms_[i].index, terms_[j].index);
          if (d < best) {
            best = d;
            candidates.clear();
          }
          if (d == best) candidates.emplace_back(i, j);
        }
      }
    }
    QSP_ASSERT(!candidates.empty());
    if (options_.strategy == MFlowOptions::PairStrategy::kGreedyFirst) {
      return default_plan(candidates.front().first,
                          candidates.front().second);
    }
    // Cost-aware selection also considers pairs one above the minimum
    // distance: the extra unifying CNOT is sometimes far cheaper than a
    // large distinguishing control set. Only the first
    // kCheapestCandidates pairs are costed, so the scan stops there.
    {
      const int base = hamming(terms_[candidates.front().first].index,
                               terms_[candidates.front().second].index);
      const std::size_t cap =
          std::min(candidates.size() + 8, kCheapestCandidates);
      for (std::size_t i = 0; i < terms_.size() && candidates.size() < cap;
           ++i) {
        for (std::size_t j = i + 1;
             j < terms_.size() && candidates.size() < cap; ++j) {
          if (hamming(terms_[i].index, terms_[j].index) == base + 1) {
            candidates.emplace_back(i, j);
          }
        }
      }
    }
    // kCheapest: cost every pivot choice of a bounded number of candidate
    // pairs a < b, keeping a. Keeping b instead on the same pivot unifies
    // the support to this plan's unified support XOR dif, which leaves
    // every elimination count and so the cost unchanged: as only a
    // strictly cheaper plan replaces the best one, it could never win.
    const std::size_t limit =
        std::min(candidates.size(), kCheapestCandidates);
    MergePlan best_plan;
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    for (std::size_t c = 0; c < limit; ++c) {
      const auto [i, j] = candidates[c];
      const BasisIndex pair_dif = terms_[i].index ^ terms_[j].index;
      const int dist = popcount(pair_dif) - 1;
      for (BasisIndex d = pair_dif; d != 0; d &= d - 1) {
        const MergePlan plan{i, j, std::countr_zero(d)};
        // Only a strictly cheaper plan replaces the best one: `cap` is the
        // fewest controls at which this plan no longer would.
        int cap = 0;
        while (cap < n_ && dist + rotation_cost(cap) < best_cost) ++cap;
        if (cap == 0) continue;
        const int controls = isolate(plan, cap, nullptr);
        if (controls == kStopped) continue;
        best_cost = dist + rotation_cost(controls);
        best_plan = plan;
      }
    }
    return best_plan;
  }

  int n_;
  MFlowOptions options_;
  Deadline deadline_;
  std::vector<TermEntry> terms_;
  std::vector<Gate> gates_;
  // Per-merge scratch, reused across merges and plans.
  std::size_t words_ = 0;
  std::vector<std::uint64_t> columns_;
  std::vector<std::uint64_t> survivors_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
};

}  // namespace

MFlowResult mflow_prepare(const QuantumState& target,
                          const MFlowOptions& options) {
  Engine engine(target, options);
  MFlowResult result;
  while (engine.cardinality() > 1) {
    if (engine.expired()) {
      result.timed_out = true;
      return result;
    }
    engine.merge_step();
  }
  engine.finish();
  Circuit forward(target.num_qubits());
  for (const Gate& g : engine.gates()) forward.append(g);
  result.circuit = forward.adjoint();
  return result;
}

MFlowReduction mflow_reduce(
    const QuantumState& target,
    const std::function<bool(const QuantumState&)>& stop,
    const MFlowOptions& options) {
  Engine engine(target, options);
  MFlowReduction result;
  QuantumState current = engine.current_state();
  while (engine.cardinality() > 1 && !stop(current)) {
    if (engine.expired()) {
      result.timed_out = true;
      break;
    }
    engine.merge_step();
    current = engine.current_state();
  }
  result.forward_gates = engine.gates();
  result.reduced = current;
  return result;
}

}  // namespace qsp
