#include "prep/mflow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Candidate pairs the kCheapest strategy evaluates per merge.
constexpr std::size_t kCheapestCandidates = 16;

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

  /// One merge iteration: pick a pair/orientation/pivot, unify, isolate,
  /// rotate.
  void merge_step() {
    QSP_ASSERT(terms_.size() > 1);
    const MergePlan plan = select_plan();
    BasisIndex x1 = plan.keep;
    BasisIndex x2 = plan.drop;

    // Unify: make the pair differ in exactly one qubit (the pivot).
    BasisIndex dif = flip_bit(x1 ^ x2, plan.pivot);
    const bool pivot_positive = get_bit(x2, plan.pivot) == 1;
    while (dif != 0) {
      const int q = std::countr_zero(dif);
      dif = flip_bit(dif, q);
      apply_cnot(plan.pivot, pivot_positive, q);
      x2 = flip_bit(x2, q);
    }
    QSP_ASSERT((x1 ^ x2) == (BasisIndex{1} << plan.pivot));

    // Isolate the pair from the rest of the support and merge.
    const std::vector<ControlLiteral> controls =
        greedy_controls(support_indices(), x1, plan.pivot);
    apply_merge(x1, x2, plan.pivot, controls);
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
  void sort_terms() {
    std::sort(terms_.begin(), terms_.end(),
              [](const TermEntry& a, const TermEntry& b) {
                return a.index < b.index;
              });
  }

  void apply_cnot(int control, bool positive, int target) {
    const int want = positive ? 1 : 0;
    for (TermEntry& t : terms_) {
      if (get_bit(t.index, control) == want) {
        t.index = flip_bit(t.index, target);
      }
    }
    sort_terms();
    gates_.push_back(Gate::cnot(control, target, positive));
  }

  double amplitude_of(BasisIndex x) const {
    const auto it = std::lower_bound(
        terms_.begin(), terms_.end(), x,
        [](const TermEntry& t, BasisIndex v) { return t.index < v; });
    if (it != terms_.end() && it->index == x) return it->amplitude;
    return 0.0;
  }

  std::vector<BasisIndex> support_indices() const {
    std::vector<BasisIndex> out;
    out.reserve(terms_.size());
    for (const TermEntry& t : terms_) out.push_back(t.index);
    return out;
  }

  /// Greedy minimal control set distinguishing {x1, x1 ^ e_pivot} from the
  /// rest of `support`.
  std::vector<ControlLiteral> greedy_controls(
      const std::vector<BasisIndex>& support, BasisIndex x1,
      int pivot) const {
    std::vector<BasisIndex> candidates;
    const BasisIndex x2 = flip_bit(x1, pivot);
    for (const BasisIndex y : support) {
      if (y != x1 && y != x2) candidates.push_back(y);
    }
    std::vector<ControlLiteral> controls;
    std::vector<bool> used(static_cast<std::size_t>(n_), false);
    used[static_cast<std::size_t>(pivot)] = true;
    while (!candidates.empty()) {
      int best_q = -1;
      std::size_t best_elim = 0;
      for (int q = 0; q < n_; ++q) {
        if (used[static_cast<std::size_t>(q)]) continue;
        std::size_t elim = 0;
        for (const BasisIndex y : candidates) {
          if (get_bit(y, q) != get_bit(x1, q)) ++elim;
        }
        if (elim > best_elim) {
          best_elim = elim;
          best_q = q;
        }
      }
      // Progress is guaranteed: a candidate matching x1 on every qubit but
      // the pivot would be x1 or x2, which are excluded.
      QSP_ASSERT(best_q >= 0);
      used[static_cast<std::size_t>(best_q)] = true;
      controls.push_back(
          ControlLiteral{best_q, get_bit(x1, best_q) == 1});
      std::erase_if(candidates, [&](BasisIndex y) {
        return get_bit(y, best_q) != get_bit(x1, best_q);
      });
    }
    return controls;
  }

  /// Rotate the isolated pair so all mass lands on x1; removes x2.
  void apply_merge(BasisIndex x1, BasisIndex x2, int pivot,
                   const std::vector<ControlLiteral>& controls) {
    const double a1 = amplitude_of(x1);
    const double a2 = amplitude_of(x2);
    QSP_ASSERT(std::abs(a2) > QuantumState::kAmplitudeEpsilon);
    const bool x1_high = get_bit(x1, pivot) == 1;
    const double u0 = x1_high ? a2 : a1;
    const double u1 = x1_high ? a1 : a2;
    // Ry(theta) sends (u0, u1) to (h, 0) or (0, h) with h > 0, landing the
    // merged amplitude on x1's side of the pivot.
    const double theta = x1_high ? 2.0 * std::atan2(u0, u1)
                                 : -2.0 * std::atan2(u1, u0);
    gates_.push_back(Gate::mcry(controls, pivot, theta));

    // Apply the rotation to every control-satisfying pair (only x1/x2 by
    // construction, but the general update keeps the engine robust).
    const double co = std::cos(theta / 2);
    const double si = std::sin(theta / 2);
    const BasisIndex pbit = BasisIndex{1} << pivot;
    std::vector<TermEntry> next;
    next.reserve(terms_.size());
    std::unordered_map<BasisIndex, std::pair<double, double>> pairs;
    for (const TermEntry& t : terms_) {
      bool satisfied = true;
      for (const ControlLiteral& c : controls) {
        if (get_bit(t.index, c.qubit) != (c.positive ? 1 : 0)) {
          satisfied = false;
          break;
        }
      }
      if (!satisfied) {
        next.push_back(t);
        continue;
      }
      auto& [v0, v1] = pairs[t.index & ~pbit];
      ((t.index & pbit) == 0 ? v0 : v1) = t.amplitude;
    }
    for (const auto& [rest, uv] : pairs) {
      const double w0 = co * uv.first - si * uv.second;
      const double w1 = si * uv.first + co * uv.second;
      if (std::abs(w0) > QuantumState::kAmplitudeEpsilon) {
        next.push_back(TermEntry{rest, w0});
      }
      if (std::abs(w1) > QuantumState::kAmplitudeEpsilon) {
        next.push_back(TermEntry{rest | pbit, w1});
      }
    }
    terms_ = std::move(next);
    sort_terms();
  }

  struct MergePlan {
    BasisIndex keep = 0;
    BasisIndex drop = 0;
    int pivot = 0;
    std::int64_t cost = 0;
  };

  /// Exact cost of executing a (keep, drop, pivot) plan: simulate the
  /// unifying CNOTs on the support, then size the greedy control set.
  std::int64_t plan_cost(BasisIndex keep, BasisIndex drop,
                         int pivot) const {
    std::vector<BasisIndex> support = support_indices();
    BasisIndex dif = flip_bit(keep ^ drop, pivot);
    const int want = get_bit(drop, pivot);
    const int dist = popcount(dif);
    while (dif != 0) {
      const int q = std::countr_zero(dif);
      dif = flip_bit(dif, q);
      for (BasisIndex& y : support) {
        if (get_bit(y, pivot) == want) y = flip_bit(y, q);
      }
    }
    const auto controls = greedy_controls(support, keep, pivot);
    return dist +
           rotation_cost(static_cast<int>(controls.size()));
  }

  MergePlan default_plan(BasisIndex a, BasisIndex b) const {
    MergePlan plan;
    plan.keep = std::min(a, b);
    plan.drop = std::max(a, b);
    plan.pivot = std::countr_zero(a ^ b);
    plan.cost = -1;  // not evaluated
    return plan;
  }

  MergePlan select_plan() const {
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
      return default_plan(terms_[best_i].index, terms_[best_i + 1].index);
    }

    // Collect minimum-Hamming-distance candidate pairs. Distance-1 pairs
    // are found in O(m n) via a hash set; otherwise fall back to a scan.
    std::vector<std::pair<BasisIndex, BasisIndex>> candidates;
    std::unordered_map<BasisIndex, std::size_t> where;
    where.reserve(terms_.size() * 2);
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      where.emplace(terms_[i].index, i);
    }
    for (const TermEntry& t : terms_) {
      for (int q = 0; q < n_; ++q) {
        const BasisIndex y = flip_bit(t.index, q);
        if (y > t.index && where.count(y) != 0) {
          candidates.emplace_back(t.index, y);
        }
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
          if (d == best) {
            candidates.emplace_back(terms_[i].index, terms_[j].index);
          }
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
    // large distinguishing control set.
    {
      const int base = hamming(candidates.front().first,
                               candidates.front().second);
      const std::size_t cap = candidates.size() + 8;
      for (std::size_t i = 0; i < terms_.size() && candidates.size() < cap;
           ++i) {
        for (std::size_t j = i + 1;
             j < terms_.size() && candidates.size() < cap; ++j) {
          if (hamming(terms_[i].index, terms_[j].index) == base + 1) {
            candidates.emplace_back(terms_[i].index, terms_[j].index);
          }
        }
      }
    }
    // kCheapest: evaluate a bounded number of candidate pairs over both
    // merge orientations and every pivot choice.
    const std::size_t limit =
        std::min(candidates.size(), kCheapestCandidates);
    MergePlan best_plan = default_plan(candidates.front().first,
                                       candidates.front().second);
    std::int64_t best_cost = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < limit; ++i) {
      const auto [a, b] = candidates[i];
      for (const auto& [keep, drop] :
           {std::pair{a, b}, std::pair{b, a}}) {
        BasisIndex dif = keep ^ drop;
        while (dif != 0) {
          const int pivot = std::countr_zero(dif);
          dif = flip_bit(dif, pivot);
          const std::int64_t cost = plan_cost(keep, drop, pivot);
          if (cost < best_cost) {
            best_cost = cost;
            best_plan = MergePlan{keep, drop, pivot, cost};
          }
        }
      }
    }
    return best_plan;
  }

  int n_;
  MFlowOptions options_;
  Deadline deadline_;
  std::vector<TermEntry> terms_;
  std::vector<Gate> gates_;
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
