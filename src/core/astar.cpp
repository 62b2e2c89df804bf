#include "core/astar.hpp"

#include <atomic>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/search_cache.hpp"
#include "core/search_core.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// A successor routed to the shard owning its canonical key. The owner
/// computes h lazily (only for classes it has never seen).
struct Mail {
  CanonicalKey key;
  SlotState child;
  std::int64_t g2 = 0;
  std::int64_t parent = SearchNode::kNoParent;
  Move via;
};

struct alignas(64) Shard {
  ClassedArena arena;
  OpenQueue open;
  Mutex inbox_mutex;
  std::vector<Mail> inbox QSP_GUARDED_BY(inbox_mutex);
  /// f of the shard's best frontier entry, (re)published every time the
  /// worker is about to go idle; kInfiniteCost when the queue is empty.
  std::atomic<std::int64_t> published_min_f{0};
  /// True only while the worker has verified it holds no useful work.
  std::atomic<bool> idle{false};
  // Owner-thread-only counters, harvested after the join.
  std::uint64_t expanded = 0;
  std::uint64_t stale_pops = 0;
};

struct SharedState {
  std::atomic<std::uint64_t> nodes_generated{0};
  /// Monotonic mailbox counters: sent is incremented before a message is
  /// appended, received only after the message's effect (arena relax and
  /// min-f republication) is visible. sent == received therefore proves
  /// no successor is in flight or unprocessed.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::int64_t> incumbent_g{kInfiniteCost};
  Mutex incumbent_mutex;
  std::int64_t incumbent_gid QSP_GUARDED_BY(incumbent_mutex) =
      SearchNode::kNoParent;
  std::atomic<bool> done{false};
  std::atomic<bool> aborted{false};
};

class HdaStar {
 public:
  /// `cost_bound` seeds the incumbent: a bound without a goal id, so no
  /// pop at or above it happens and termination certifies that nothing
  /// below it exists.
  HdaStar(const SearchOptions& options, const SlotState& target,
          std::int64_t cost_bound)
      : options_(options),
        target_(target),
        h_(search_heuristic(
            options.heuristic,
            options.routed_heuristic ? options.coupling.get() : nullptr)),
        level_(effective_canonical_level(options.canonical,
                                         options.coupling.get())),
        move_options_(search_move_gen_options(
            options.max_controls, options.full_candidate_cap,
            options.coupling.get(), level_)),
        budget_(options.time_budget_seconds, options.node_budget),
        num_shards_(resolve_num_threads(options.num_threads)),
        shards_(static_cast<std::size_t>(num_shards_)) {
    shared_.incumbent_g.store(cost_bound);
  }

  SynthesisResult run() {
    const Timer timer;
    SynthesisResult result;

    CanonicalKey root_key = canonical_key(target_, level_);
    const int root_shard = owner_of(root_key);
    const std::int64_t root_h = h_of(target_);
    shards_[static_cast<std::size_t>(root_shard)].arena.add_root(
        std::move(root_key), target_, root_h);
    shards_[static_cast<std::size_t>(root_shard)].open.push(root_h, root_h,
                                                            0, 0);

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_shards_ - 1));
    for (int s = 1; s < num_shards_; ++s) {
      workers.emplace_back([this, s] { work(s); });
    }
    work(0);  // the calling thread is shard 0
    for (std::thread& w : workers) w.join();

    for (const Shard& shard : shards_) {
      result.stats.nodes_expanded += shard.expanded;
      result.stats.stale_pops += shard.stale_pops;
      result.stats.classes_stored += shard.arena.size();
      result.stats.sum_shard_peak_open_size += shard.open.peak_size();
      result.stats.arena_blocks += shard.arena.arena_blocks();
      result.stats.arena_bytes_peak += shard.arena.arena_bytes_peak();
    }
    result.stats.nodes_generated = shared_.nodes_generated.load();
    result.stats.seconds = timer.seconds();
    // Post-join harvest of the goal id. The join is a happens-before
    // edge, but the read was unguarded until the thread-safety
    // annotations flagged it — take the (now uncontended) lock so the
    // access is provable rather than merely argued.
    std::int64_t goal = SearchNode::kNoParent;
    {
      const MutexLock lock(shared_.incumbent_mutex);
      goal = shared_.incumbent_gid;
    }
    result.stats.budget_exhausted = shared_.aborted.load();
    result.stats.completed = !result.stats.budget_exhausted;

    // A budget abort returns no circuit: other shards may have rebound the
    // incumbent's ancestors since it was popped (see synthesize()).
    if (result.stats.completed && goal != SearchNode::kNoParent) {
      result.found = true;
      // Certified optimal only with an exhaustive arc set: above the
      // candidate cap the structured fallback may omit arcs.
      result.optimal = target_.total() <= options_.full_candidate_cap;
      result.cnot_cost = node_at(goal).g;
      result.circuit = build_goal_circuit(
          [this](std::int64_t gid) -> const SearchNode& {
            return node_at(gid);
          },
          goal, target_.num_qubits());
    }
    return result;
  }

 private:
  const SearchNode& node_at(std::int64_t gid) const {
    return shards_[static_cast<std::size_t>(shard_of_gid(gid))].arena.node(
        local_of_gid(gid));
  }

  std::int64_t h_of(const SlotState& s) const { return h_(s); }

  int owner_of(const CanonicalKey& key) const {
    return static_cast<int>(CanonicalKeyHash{}(key) %
                            static_cast<std::size_t>(num_shards_));
  }

  void work(int s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    auto h = [this](const SlotState& state) { return h_of(state); };
    auto g_of = [&shard](std::int64_t id) { return shard.arena.node(id).g; };
    // Reused outgoing buffers, one per destination shard.
    std::vector<std::vector<Mail>> outbox(
        static_cast<std::size_t>(num_shards_));
    std::vector<Mail> batch;

    while (!shared_.done.load()) {
      // 1. Drain the mailbox. idle goes false before any effect so the
      // termination check can never observe a half-processed message.
      batch.clear();
      {
        const MutexLock lock(shard.inbox_mutex);
        batch.swap(shard.inbox);
      }
      if (!batch.empty()) {
        shard.idle.store(false);
        for (Mail& mail : batch) {
          relax_into_open(shard.arena, shard.open, std::move(mail.key),
                          std::move(mail.child), mail.g2, mail.parent,
                          mail.via, h);
        }
        shard.published_min_f.store(shard.open.min_f());
        shared_.received.fetch_add(batch.size());
        continue;
      }

      // 2. Expand the best local node that can still beat the incumbent.
      // The budget is checked before every pop, so a goal popped within
      // budget reaches step 3 and its certificate without another check.
      const std::int64_t incumbent = shared_.incumbent_g.load();
      if (shard.open.min_f() < incumbent) {
        if (stop_on_budget()) break;
        shard.idle.store(false);
        const auto top = shard.open.pop_best(g_of, shard.stale_pops);
        if (top.has_value() && top->f < incumbent) {
          if (free_reducible(shard.arena.node(top->id).state, level_)) {
            offer_incumbent(top->g_at_push, make_shard_gid(s, top->id));
          } else {
            expand(s, shard, top->id, outbox);
          }
        }
        shard.published_min_f.store(shard.open.min_f());
        continue;
      }

      // 3. Nothing useful locally: publish the frontier bound, declare
      // idle, and try to certify global termination. A shard waiting on
      // the others checks the budget between attempts.
      shard.published_min_f.store(shard.open.min_f());
      shard.idle.store(true);
      if (try_terminate() || stop_on_budget()) break;
      std::this_thread::yield();
    }
  }

  /// True once the budget is spent; the first worker to notice ends the
  /// search as aborted. If another worker already certified termination,
  /// the budget expiring a moment later must not downgrade the
  /// certificate.
  bool stop_on_budget() {
    if (!budget_.exhausted(shared_.nodes_generated.load())) return false;
    if (!shared_.done.exchange(true)) shared_.aborted.store(true);
    return true;
  }

  void expand(int s, Shard& shard, std::int64_t id,
              std::vector<std::vector<Mail>>& outbox) {
    ++shard.expanded;
    // Expand by reference: NodeArena references survive appends, and only
    // this worker mutates its own shard's arena. A relax cannot rebind the
    // expanded node itself (children have g2 = g + cost >= g).
    const SlotState& state = shard.arena.node(id).state;
    const std::int64_t g = shard.arena.node(id).g;
    const std::int64_t parent_gid = make_shard_gid(s, id);
    auto h = [this](const SlotState& child) { return h_of(child); };

    std::uint64_t generated = 0;
    bool truncated = false;
    for (const Move& mv : enumerate_moves(state, move_options_)) {
      if (budget_.deadline_expired()) {  // child work can dominate a pop
        truncated = true;
        break;
      }
      ++generated;
      SlotState child = apply_move(state, mv);
      const std::int64_t g2 = g + mv.cost;
      CanonicalKey key = canonical_key(child, level_);
      const int owner = owner_of(key);
      if (owner == s) {
        relax_into_open(shard.arena, shard.open, std::move(key),
                        std::move(child), g2, parent_gid, mv, h);
      } else {
        outbox[static_cast<std::size_t>(owner)].push_back(
            Mail{std::move(key), std::move(child), g2, parent_gid, mv});
      }
    }
    shared_.nodes_generated.fetch_add(generated);
    // A cut-short expansion has lost successors, so no frontier bound can
    // certify past it: the search ends as aborted, never as terminated.
    if (truncated) {
      stop_on_budget();
      return;
    }

    for (int dest = 0; dest < num_shards_; ++dest) {
      std::vector<Mail>& out = outbox[static_cast<std::size_t>(dest)];
      if (out.empty()) continue;
      // sent must lead the append: a checker that observes sent ==
      // received has proof these messages were already processed.
      shared_.sent.fetch_add(out.size());
      Shard& target = shards_[static_cast<std::size_t>(dest)];
      {
        // One bulk append per destination keeps the critical section to a
        // single grow-and-move instead of per-message push_backs.
        const MutexLock lock(target.inbox_mutex);
        target.inbox.insert(target.inbox.end(),
                            std::make_move_iterator(out.begin()),
                            std::make_move_iterator(out.end()));
      }
      out.clear();
    }
  }

  void offer_incumbent(std::int64_t g, std::int64_t gid) {
    const MutexLock lock(shared_.incumbent_mutex);
    if (g < shared_.incumbent_g.load()) {
      shared_.incumbent_gid = gid;
      shared_.incumbent_g.store(g);
    }
  }

  /// Certify termination: the incumbent's g is a true optimum once every
  /// shard is idle with frontier min f >= incumbent and no message is in
  /// flight. The counters are read before and after the per-shard pass;
  /// any concurrent send or delivery changes them and voids the attempt.
  /// (With the cost bound still the incumbent, the same condition
  /// certifies that no goal below the bound exists.)
  bool try_terminate() {
    const std::int64_t incumbent = shared_.incumbent_g.load();
    const std::uint64_t sent_before = shared_.sent.load();
    const std::uint64_t received_before = shared_.received.load();
    if (sent_before != received_before) return false;
    for (const Shard& shard : shards_) {
      if (!shard.idle.load()) return false;
      if (shard.published_min_f.load() < incumbent) return false;
    }
    if (shared_.sent.load() != sent_before ||
        shared_.received.load() != received_before) {
      return false;
    }
    for (const Shard& shard : shards_) {
      if (!shard.idle.load()) return false;
    }
    shared_.done.store(true);
    return true;
  }

  const SearchOptions& options_;
  const SlotState& target_;
  /// The shared searcher heuristic (search_core::search_heuristic).
  const decltype(search_heuristic(HeuristicMode::kZero, nullptr)) h_;
  const CanonicalLevel level_;
  const MoveGenOptions move_options_;
  const SearchBudget budget_;
  const int num_shards_;
  std::vector<Shard> shards_;
  SharedState shared_;
};

}  // namespace

AStarSynthesizer::AStarSynthesizer(SearchOptions options)
    : options_(options) {
  validate_search_coupling("AStarSynthesizer", options_.coupling.get());
}

SynthesisResult AStarSynthesizer::synthesize(const QuantumState& target,
                                             std::int64_t cost_bound) const {
  const auto slot = SlotState::from_state(target);
  if (!slot.has_value()) {
    throw std::invalid_argument(
        "AStarSynthesizer: target has no slot decomposition (negative or "
        "irrational amplitudes); use the workflow solver instead");
  }
  return synthesize(*slot, cost_bound);
}

SynthesisResult AStarSynthesizer::synthesize(const SlotState& target,
                                             std::int64_t cost_bound) const {
  // The wall clock starts before the cache probe: time spent blocked on
  // another thread's in-flight search of this class counts against this
  // search's own budget, so a timed-out wait can never double the
  // stage's wall clock.
  const Deadline overall(options_.time_budget_seconds);
  // The attempt lets the cache remember a search that runs out of node
  // budget and answer the repeats it covers without searching.
  std::optional<SearchAttempt> attempt;
  if (options_.cache != nullptr) {
    attempt = SearchAttempt{
        .heuristic = options_.heuristic,
        .routed_heuristic = options_.routed_heuristic,
        .canonical = options_.canonical,
        .full_candidate_cap = options_.full_candidate_cap,
        .node_budget = options_.node_budget,
        .wall_budget = options_.time_budget_seconds > 0.0,
        .num_shards = resolve_num_threads(options_.num_threads),
        .cost_bound = cost_bound};
  }
  ScopedCacheProbe probe(options_.cache.get(), target,
                         options_.coupling.get(), options_.max_controls,
                         options_.time_budget_seconds,
                         /*consult_only=*/false, std::move(attempt));
  if (probe.hit()) return probe.result(cost_bound);

  SearchOptions search_options = options_;
  search_options.time_budget_seconds = clamp_budget(0.0, overall);
  const SynthesisResult result =
      HdaStar(search_options, target, cost_bound).run();
  probe.publish(result);
  return result;
}

}  // namespace qsp
