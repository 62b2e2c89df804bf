#include "core/beam.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/search_cache.hpp"
#include "core/search_core.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Levels the descent runs at most.
constexpr int kBeamMaxLevels = 96;

/// Selection-score weight per remaining distinct index. The admissible
/// f = g + h cannot charge for cardinality (free merges exist), so the
/// beam would otherwise drown necessary expensive merges under cheap
/// lateral CNOT relabels. Only the *selection* uses this estimate; the
/// incumbent pruning stays admissible.
constexpr double kBeamCardinalityWeight = 3.0;

// Level rules. Identical results at every shard count hinge on three
// order-free rules:
//
//  - within one level, an equivalence class's winner is the generated
//    child minimizing (g2, seq), seq being its position in the frontier
//    scan — the entry an in-order scan keeps under strict improvement;
//  - candidate selection orders by (score, h, canonical key), a total
//    order once classes are deduplicated (keys are unique);
//  - the selection score itself (f plus the cardinality estimate).
//
// beam_offer is commutative and associative over (g2, seq) minimization,
// so how the frontier is partitioned never shows in the result.

/// Generation-order stamp: the parent's position in the level frontier
/// (major) and the move ordinal within the parent's expansion (minor).
/// Unique per generated child, so (g2, seq) is a total order.
std::uint64_t beam_seq(std::uint64_t beam_pos, std::uint64_t move_index) {
  return (beam_pos << 32) | move_index;
}

/// A generated child waiting for its class's level resolution. `parent`
/// is a global node id (make_shard_gid).
struct BeamPending {
  SlotState state;
  std::int64_t g2 = 0;
  std::uint64_t seq = 0;
  std::int64_t parent = SearchNode::kNoParent;
  Move via;
};

/// True when `a` beats `b` for its class's slot (or the level's goal).
bool beam_pending_wins(const BeamPending& a, const BeamPending& b) {
  return std::tie(a.g2, a.seq) < std::tie(b.g2, b.seq);
}

/// Offer a child to its class's slot in a level map, keeping the
/// (g2, seq) minimum. One class can never occupy two slots of the
/// truncated beam (the duplicate-class bug the level map exists to fix).
void beam_offer(ClassIndex<BeamPending>& level_map, CanonicalKey&& key,
                BeamPending&& pending) {
  auto [it, inserted] =
      level_map.try_emplace(std::move(key), std::move(pending));
  if (!inserted && beam_pending_wins(pending, it->second)) {
    it->second = std::move(pending);
  }
}

/// Selection score: the admissible f = g + h plus the (inadmissible,
/// selection-only) cardinality estimate — see kBeamCardinalityWeight.
double beam_score(std::int64_t g, std::int64_t h, int cardinality) {
  return static_cast<double>(g + h) +
         kBeamCardinalityWeight * static_cast<double>(cardinality - 1);
}

/// One class winner surviving resolution, ready for the k-select. `key`
/// points at the owning shard's best_g entry for the class (node-based
/// unordered_map ⇒ stable), `id` is the global node id.
struct BeamCandidate {
  double score = 0.0;
  std::int64_t h = 0;
  std::int64_t g = 0;
  const CanonicalKey* key = nullptr;
  std::int64_t id = 0;
};

/// The deterministic truncation order: (score, h, canonical key).
bool beam_candidate_less(const BeamCandidate& a, const BeamCandidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.h != b.h) return a.h < b.h;
  return *a.key < *b.key;
}

/// Reusable rendezvous for the level-synchronous phases: the last arriver
/// runs `completion` exclusively (every other worker is blocked on the
/// condition variable), then the cycle is released. A mutex + CV rather
/// than std::barrier so the level merge has a plain lock-based
/// happens-before story under TSan, and so the merge can mutate shared
/// level state without any atomics.
class LevelBarrier {
 public:
  explicit LevelBarrier(int parties) : parties_(parties) {}

  template <class Completion>
  void arrive_and_wait(Completion&& completion) {
    MutexLock lock(mutex_);
    if (++arrived_ == parties_) {
      completion();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    // Explicit wait loop: a predicate lambda would read the guarded
    // generation counter outside annotated scope.
    const std::uint64_t generation = generation_;
    while (generation_ == generation) cv_.wait(lock);
  }

  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  const int parties_;
  int arrived_ QSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ QSP_GUARDED_BY(mutex_) = 0;
};

/// A child routed to the shard owning its canonical class.
struct BeamMail {
  CanonicalKey key;
  BeamPending pending;
};

struct alignas(64) BeamShard {
  /// Append-only node arena (ids are (shard, offset) gids): truncated
  /// ancestors must stay intact for path reconstruction, so the beam
  /// never rebinds like ClassedArena does. Chunked (NodeArena) so cross-
  /// shard parent reads in generate() can borrow by reference.
  NodeArena nodes;
  /// Best g per owned class across all levels, to prevent revisits (the
  /// duplicate-detection table; lock-free because only the owner touches
  /// it, like the HDA* per-shard arenas).
  ClassIndex<std::int64_t> best_g;
  Mutex inbox_mutex;
  std::vector<BeamMail> inbox QSP_GUARDED_BY(inbox_mutex);
  /// This level's per-owned-class winners (local children merged during
  /// generation, mailed children merged after the generation barrier).
  ClassIndex<BeamPending> level_map;
  /// This level's local top-k, sorted by (score, h, key).
  std::vector<BeamCandidate> selected;
  /// This level's best (g2, seq) goal among owned classes.
  std::optional<BeamPending> goal;
  // Owner-thread-only counters, harvested after the join.
  std::uint64_t expanded = 0;
  std::uint64_t generated = 0;
};

class ShardedBeam {
 public:
  ShardedBeam(const BeamOptions& options, const SlotState& target,
              std::int64_t cost_bound)
      : options_(options),
        target_(target),
        cost_bound_(cost_bound),
        h_(search_heuristic(options.heuristic, options.coupling.get())),
        level_(effective_canonical_level(options.canonical,
                                         options.coupling.get())),
        move_options_([&] {
          MoveGenOptions mo = search_move_gen_options(
              options.max_controls, options.full_candidate_cap,
              options.coupling.get(), level_);
          // Unlike A*, the beam never runs uncanonicalized, so zero-cost
          // arcs are always absorbed into the equivalence classes.
          mo.include_zero_cost = false;
          return mo;
        }()),
        deadline_(options.time_budget_seconds),
        num_shards_(resolve_num_threads(options.num_threads)),
        shards_(static_cast<std::size_t>(num_shards_)),
        gen_barrier_(num_shards_),
        level_barrier_(num_shards_) {}

  SynthesisResult run() {
    const Timer timer;
    SynthesisResult result;

    CanonicalKey root_key = canonical_key(target_, level_);
    const int root_shard = owner_of(root_key);
    BeamShard& root_home = shards_[static_cast<std::size_t>(root_shard)];
    root_home.best_g.emplace(std::move(root_key), 0);
    const std::int64_t root_h = h_(target_);
    root_home.nodes.append(
        SearchNode{target_, 0, root_h, SearchNode::kNoParent, Move{}});
    const std::int64_t root_gid = make_shard_gid(root_shard, 0);

    const bool root_is_goal = free_reducible(target_, level_);
    if (root_is_goal) {
      goal_gid_ = root_gid;
      goal_g_ = 0;
    }

    beam_.push_back(root_gid);
    frozen_goal_g_ = goal_g_;
    // The root is the first frontier, so merge_level's bound stop applies.
    done_ = root_is_goal || root_h >= cost_bound_;
    if (deadline_.expired() && !done_) {
      budget_exhausted_.store(true);
      done_ = true;
    }

    if (!done_) {
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(num_shards_ - 1));
      for (int s = 1; s < num_shards_; ++s) {
        workers.emplace_back([this, s] { work(s); });
      }
      work(0);  // the calling thread is shard 0
      for (std::thread& w : workers) w.join();
    }

    for (const BeamShard& shard : shards_) {
      result.stats.nodes_expanded += shard.expanded;
      result.stats.nodes_generated += shard.generated;
      result.stats.classes_stored += shard.best_g.size();
      result.stats.arena_blocks += shard.nodes.blocks();
      result.stats.arena_bytes_peak += shard.nodes.bytes_peak();
    }
    result.stats.budget_exhausted = budget_exhausted_.load();
    result.stats.seconds = timer.seconds();
    if (goal_gid_ >= 0 && goal_g_ < cost_bound_) {
      result.found = true;
      result.optimal = false;  // beam search gives no certificate
      result.cnot_cost = node_at(goal_gid_).g;
      result.circuit = build_goal_circuit(
          [this](std::int64_t gid) -> const SearchNode& {
            return node_at(gid);
          },
          goal_gid_, target_.num_qubits());
    }
    return result;
  }

 private:
  const SearchNode& node_at(std::int64_t gid) const {
    return shards_[static_cast<std::size_t>(shard_of_gid(gid))].nodes.node(
        local_of_gid(gid));
  }

  int owner_of(const CanonicalKey& key) const {
    return static_cast<int>(CanonicalKeyHash{}(key) %
                            static_cast<std::size_t>(num_shards_));
  }

  /// All shared level state (beam_, frozen_goal_g_, done_, goal_*) is
  /// written only inside the level barrier's completion and read by
  /// workers after the barrier releases them, so the barrier's mutex
  /// provides the happens-before edges; no atomics needed beyond the
  /// deadline flag, which generation threads may set concurrently.
  void work(int s) {
    while (!done_) {
      generate(s);
      gen_barrier_.arrive_and_wait();
      resolve_and_select(s);
      level_barrier_.arrive_and_wait([this] { merge_level(); });
    }
  }

  void generate(int s) {
    BeamShard& shard = shards_[static_cast<std::size_t>(s)];
    // Contiguous static slice of the level frontier; seq stamps use the
    // *global* frontier position, so the partition never shows in the
    // result.
    const std::size_t n = beam_.size();
    const std::size_t chunk =
        (n + static_cast<std::size_t>(num_shards_) - 1) /
        static_cast<std::size_t>(num_shards_);
    const std::size_t begin = std::min(n, static_cast<std::size_t>(s) * chunk);
    const std::size_t end = std::min(n, begin + chunk);

    // Worker-local winner staging: a class's owner is a function of its
    // key, so one map dedups this worker's children for every
    // destination before anything is mailed.
    ClassIndex<BeamPending> staged;
    for (std::size_t pos = begin; pos < end; ++pos) {
      if (deadline_.expired()) {  // wide levels must not overshoot
        budget_exhausted_.store(true);
        break;
      }
      const std::int64_t parent_gid = beam_[pos];
      // Borrowed across shards: arenas only append during the resolve
      // phase (after the generation barrier), and NodeArena references
      // are stable across appends anyway.
      const SlotState& state = node_at(parent_gid).state;
      const std::int64_t g = node_at(parent_gid).g;
      std::uint64_t move_index = 0;
      for (const Move& mv : enumerate_moves(state, move_options_)) {
        const std::uint64_t seq = beam_seq(pos, move_index++);
        ++shard.generated;
        SlotState child = apply_move(state, mv);
        // Splits (arcs that increase cardinality) are never admitted: they
        // create enormous equal-cost plateaus that defeat beam descent,
        // and merge/relabel arcs alone always reach the ground class.
        if (child.cardinality() > state.cardinality()) continue;
        const std::int64_t g2 = g + mv.cost;
        // The incumbent bound is frozen at level entry so pruning cannot
        // depend on the order goals are discovered within the level.
        if (g2 >= frozen_goal_g_) continue;  // cannot improve the incumbent
        CanonicalKey key = canonical_key(child, level_);
        beam_offer(staged, std::move(key),
                   BeamPending{std::move(child), g2, seq, parent_gid, mv});
      }
      ++shard.expanded;
    }

    // Route every staged winner to its owner: own classes merge straight
    // into this shard's level map, the rest go through the mailboxes
    // (one batched append per destination, like the HDA* outbox flush).
    std::vector<std::vector<BeamMail>> outbox(
        static_cast<std::size_t>(num_shards_));
    while (!staged.empty()) {
      auto entry = staged.extract(staged.begin());
      const int owner = owner_of(entry.key());
      if (owner == s) {
        beam_offer(shard.level_map, std::move(entry.key()),
                   std::move(entry.mapped()));
      } else {
        outbox[static_cast<std::size_t>(owner)].push_back(
            BeamMail{std::move(entry.key()), std::move(entry.mapped())});
      }
    }
    for (int dest = 0; dest < num_shards_; ++dest) {
      std::vector<BeamMail>& out = outbox[static_cast<std::size_t>(dest)];
      if (out.empty()) continue;
      BeamShard& target = shards_[static_cast<std::size_t>(dest)];
      // One bulk append per destination, like the HDA* outbox flush.
      const MutexLock lock(target.inbox_mutex);
      target.inbox.insert(target.inbox.end(),
                          std::make_move_iterator(out.begin()),
                          std::make_move_iterator(out.end()));
    }
  }

  void resolve_and_select(int s) {
    BeamShard& shard = shards_[static_cast<std::size_t>(s)];
    std::vector<BeamMail> mail;
    {
      const MutexLock lock(shard.inbox_mutex);
      mail.swap(shard.inbox);
    }
    for (BeamMail& m : mail) {
      beam_offer(shard.level_map, std::move(m.key), std::move(m.pending));
    }

    // Resolve owned-class winners against the cross-level best_g;
    // resolution order is irrelevant (per-class decisions are
    // independent, the goal adoption takes the (g2, seq) minimum).
    shard.selected.clear();
    shard.goal.reset();
    while (!shard.level_map.empty()) {
      auto entry = shard.level_map.extract(shard.level_map.begin());
      BeamPending& pending = entry.mapped();
      auto [it, inserted] =
          shard.best_g.try_emplace(std::move(entry.key()), pending.g2);
      if (!inserted) {
        if (it->second <= pending.g2) continue;
        it->second = pending.g2;
      }
      // Goals are recognized anywhere, not just inside the surviving
      // beam: the admissible h underestimates the remaining cost, so a
      // finished state (h = 0, large g) often ranks behind unfinished
      // ones and would otherwise be truncated away.
      if (free_reducible(pending.state, level_)) {
        if (!shard.goal.has_value() ||
            beam_pending_wins(pending, *shard.goal)) {
          shard.goal = std::move(pending);
        }
        continue;  // goals need no further expansion
      }
      const std::int64_t h = h_(pending.state);
      const int cardinality = pending.state.cardinality();
      const std::int64_t local =
          shard.nodes.append(SearchNode{std::move(pending.state), pending.g2,
                                        h, pending.parent, pending.via});
      shard.selected.push_back(BeamCandidate{
          beam_score(pending.g2, h, cardinality),
          h, pending.g2, &it->first, make_shard_gid(s, local)});
    }
    // Per-shard top-k: the global top beam_width is contained in the
    // union of per-shard top beam_widths, so truncating locally first
    // shrinks the merge below without changing it.
    std::sort(shard.selected.begin(), shard.selected.end(),
              beam_candidate_less);
    if (static_cast<int>(shard.selected.size()) > options_.beam_width) {
      shard.selected.resize(static_cast<std::size_t>(options_.beam_width));
    }
  }

  /// Runs exclusively on the last thread into the level barrier while
  /// every other worker is parked: adopt the level's goal, k-select the
  /// next frontier from the per-shard top-k lists, and decide whether to
  /// descend further.
  void merge_level() {
    int goal_shard = -1;
    for (int s = 0; s < num_shards_; ++s) {
      const auto& offer = shards_[static_cast<std::size_t>(s)].goal;
      if (!offer.has_value()) continue;
      if (goal_shard < 0 ||
          beam_pending_wins(
              *offer, *shards_[static_cast<std::size_t>(goal_shard)].goal)) {
        goal_shard = s;
      }
    }
    if (goal_shard >= 0) {
      BeamShard& home = shards_[static_cast<std::size_t>(goal_shard)];
      BeamPending& offer = *home.goal;
      if (offer.g2 < goal_g_) {
        // The goal node lives with the shard that resolved its class.
        const std::int64_t local =
            home.nodes.append(SearchNode{std::move(offer.state), offer.g2, 0,
                                         offer.parent, offer.via});
        goal_gid_ = make_shard_gid(goal_shard, local);
        goal_g_ = offer.g2;
      }
    }

    // Merge the per-shard top-k lists (each already sorted and at most
    // beam_width long) and truncate — the same frontier at every shard
    // count because (score, h, key) is a total order over class winners.
    std::vector<BeamCandidate> merged;
    for (BeamShard& shard : shards_) {
      merged.insert(merged.end(), shard.selected.begin(),
                    shard.selected.end());
      shard.selected.clear();
    }
    std::sort(merged.begin(), merged.end(), beam_candidate_less);
    if (static_cast<int>(merged.size()) > options_.beam_width) {
      merged.resize(static_cast<std::size_t>(options_.beam_width));
    }
    // Keep only states that can still beat the incumbent (h admissible).
    if (goal_gid_ >= 0) {
      std::erase_if(merged, [&](const BeamCandidate& c) {
        return c.g + c.h >= goal_g_;
      });
    }
    // End the descent once no frontier state can reach a goal below the
    // cost bound (h admissible). The test takes the whole truncated
    // frontier, never one state, so up to the stop the frontier is the
    // unbounded descent's, and so is every goal below the bound.
    if (std::all_of(merged.begin(), merged.end(), [&](const BeamCandidate& c) {
          return c.g + c.h >= cost_bound_;
        })) {
      merged.clear();
    }
    beam_.clear();
    beam_.reserve(merged.size());
    for (const BeamCandidate& c : merged) beam_.push_back(c.id);

    frozen_goal_g_ = goal_g_;
    ++depth_;
    const bool more_levels = depth_ < kBeamMaxLevels && !beam_.empty();
    if (more_levels && deadline_.expired()) {
      budget_exhausted_.store(true);
    }
    done_ = !more_levels || deadline_.expired();
  }

  const BeamOptions& options_;
  const SlotState& target_;
  /// Goals at or above this cost are not returned (kNoCostBound: none).
  const std::int64_t cost_bound_;
  /// The shared searcher heuristic (search_core::search_heuristic); the
  /// beam carries no certificate, so it always prices the heuristic
  /// against the device when a coupling is set.
  const decltype(search_heuristic(HeuristicMode::kZero, nullptr)) h_;
  const CanonicalLevel level_;
  const MoveGenOptions move_options_;
  const Deadline deadline_;
  const int num_shards_;
  std::vector<BeamShard> shards_;
  LevelBarrier gen_barrier_;
  LevelBarrier level_barrier_;

  // Level state: written by merge_level() (and run() before the spawn),
  // read by workers after the barrier releases them.
  std::vector<std::int64_t> beam_;
  std::int64_t goal_gid_ = -1;
  std::int64_t goal_g_ = kInfiniteCost;
  std::int64_t frozen_goal_g_ = kInfiniteCost;
  int depth_ = 0;
  bool done_ = false;
  std::atomic<bool> budget_exhausted_{false};
};

}  // namespace

void validate_beam_options(const char* context, const BeamOptions& options) {
  if (options.beam_width < 1) {
    throw std::invalid_argument(std::string(context) +
                                ": BeamOptions::beam_width must be at least "
                                "1, got " +
                                std::to_string(options.beam_width));
  }
  validate_search_coupling(context, options.coupling.get());
}

BeamSynthesizer::BeamSynthesizer(BeamOptions options) : options_(options) {
  validate_beam_options("BeamSynthesizer", options_);
}

SynthesisResult BeamSynthesizer::synthesize(const QuantumState& target,
                                            std::int64_t cost_bound) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "BeamSynthesizer: target has no slot decomposition");
  }
  return synthesize(*slot, cost_bound);
}

SynthesisResult BeamSynthesizer::synthesize(const SlotState& target,
                                            std::int64_t cost_bound) const {
  // Consult the equivalence cache: a stored certified-optimal circuit
  // beats any beam descent. The probe is consult-only — beam results
  // never carry the certificate, so claiming in-flight ownership would
  // only make certifying searchers of the same class queue behind a
  // search that cannot populate the cache.
  ScopedCacheProbe probe(options_.cache.get(), target,
                         options_.coupling.get(), options_.max_controls,
                         options_.time_budget_seconds,
                         /*consult_only=*/true);
  if (probe.hit()) return probe.result(cost_bound);
  return ShardedBeam(options_, target, cost_bound).run();
}

}  // namespace qsp
