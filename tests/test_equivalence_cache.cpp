#include "service/equivalence_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/routing.hpp"
#include "core/astar.hpp"
#include "core/beam.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

SlotState random_slot(Rng& rng, int n, int m) {
  return *SlotState::from_state(make_random_uniform(n, m, rng));
}

TEST(EquivalenceCache, ExactHitIsBitIdenticalToColdPath) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));

  const SynthesisResult cold = synth.synthesize(target);
  ASSERT_TRUE(cold.found);
  ASSERT_TRUE(cold.optimal);
  const SynthesisResult warm = synth.synthesize(target);
  ASSERT_TRUE(warm.found);
  EXPECT_TRUE(warm.optimal);
  EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
  EXPECT_EQ(warm.circuit, cold.circuit);  // gate list, bit for bit

  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.rewired_hits, 0u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EquivalenceCache, RewiredHitServesSameClassVariants) {
  // A permuted + translated member of a cached class must hit without a
  // search, at the same certified cost, with a circuit that verifies.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const SlotState base = random_slot(rng, 4, 3 + trial % 4);
    const SynthesisResult cold = synth.synthesize(base);
    ASSERT_TRUE(cold.found);
    if (!cold.optimal) continue;  // uncertified results are not cached

    std::vector<int> perm{1, 3, 0, 2};
    const BasisIndex mask = static_cast<BasisIndex>(rng.next_below(16));
    const SlotState variant =
        base.with_permutation(perm).with_translation(mask);
    const std::uint64_t rewired_before = cache->stats().rewired_hits;
    const SynthesisResult warm = synth.synthesize(variant);
    ASSERT_TRUE(warm.found);
    EXPECT_TRUE(warm.optimal);
    EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
    if (variant == base) continue;  // symmetric state: exact hit instead
    EXPECT_EQ(cache->stats().rewired_hits, rewired_before + 1);
    verify_preparation_or_throw(warm.circuit, variant.to_state());
  }
}

TEST(EquivalenceCache, BeamConsultsAStarPopulatedEntries) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions astar_options;
  astar_options.cache = cache;
  const SlotState target = *SlotState::from_state(make_w(4));
  const SynthesisResult cold = AStarSynthesizer(astar_options).synthesize(target);
  ASSERT_TRUE(cold.optimal);

  BeamOptions beam_options;
  beam_options.cache = cache;
  const SynthesisResult beam = BeamSynthesizer(beam_options).synthesize(target);
  ASSERT_TRUE(beam.found);
  // The beam alone never certifies; through the cache it returns the
  // certified template.
  EXPECT_TRUE(beam.optimal);
  EXPECT_EQ(beam.circuit, cold.circuit);
  EXPECT_GE(cache->stats().exact_hits, 1u);

  // The beam must not populate: a fresh class searched by beam only stays
  // uncached.
  const SlotState other = *SlotState::from_state(make_ghz(4));
  const std::uint64_t insertions = cache->stats().insertions;
  const SynthesisResult beam_only =
      BeamSynthesizer(beam_options).synthesize(other);
  ASSERT_TRUE(beam_only.found);
  EXPECT_FALSE(beam_only.optimal);
  EXPECT_EQ(cache->stats().insertions, insertions);
}

TEST(EquivalenceCache, HdaStarSharesTheCache) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  options.num_threads = 2;  // two HDA* shards share one probe
  const AStarSynthesizer synth(options);
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  const SynthesisResult cold = synth.synthesize(target);
  ASSERT_TRUE(cold.optimal);
  const SynthesisResult warm = synth.synthesize(target);
  EXPECT_EQ(warm.circuit, cold.circuit);
  EXPECT_EQ(cache->stats().exact_hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(EquivalenceCache, DistinctCouplingsDoNotShareEntries) {
  auto cache = std::make_shared<EquivalenceCache>();
  const SlotState target = *SlotState::from_state(make_w(4));

  SearchOptions line_options;
  line_options.cache = cache;
  line_options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(4));
  const SynthesisResult on_line =
      AStarSynthesizer(line_options).synthesize(target);
  ASSERT_TRUE(on_line.optimal);

  SearchOptions star_options;
  star_options.cache = cache;
  star_options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::star(4));
  const SynthesisResult on_star =
      AStarSynthesizer(star_options).synthesize(target);
  ASSERT_TRUE(on_star.optimal);

  // Two different routed-cost surfaces: two misses, no cross-topology
  // hits, and each repeat hits its own entry.
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 0u);
  const SynthesisResult line_again =
      AStarSynthesizer(line_options).synthesize(target);
  EXPECT_EQ(line_again.circuit, on_line.circuit);
  EXPECT_EQ(cache->stats().exact_hits, 1u);
}

TEST(EquivalenceCache, CoupledRewiringKeepsTranslationOnly) {
  // On a restricted device the cache canonicalizes at U(2): an
  // X-translated variant shares the class (X layers are free 1-qubit
  // gates everywhere), a permuted variant must NOT (relabeling wires is
  // not free on a line).
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  options.coupling =
      std::make_shared<const CouplingGraph>(CouplingGraph::line(4));
  const AStarSynthesizer synth(options);
  Rng rng(17);
  const SlotState base = random_slot(rng, 4, 5);
  const SynthesisResult cold = synth.synthesize(base);
  ASSERT_TRUE(cold.optimal);

  const SlotState translated = base.with_translation(0b1010);
  const SynthesisResult warm = synth.synthesize(translated);
  ASSERT_TRUE(warm.found);
  EXPECT_TRUE(warm.optimal);
  EXPECT_EQ(warm.cnot_cost, cold.cnot_cost);
  EXPECT_GE(cache->stats().rewired_hits + cache->stats().exact_hits, 1u);
  verify_preparation_or_throw(warm.circuit, translated.to_state());
  // The rewired template stays device-conformant after routing.
  EXPECT_TRUE(respects_coupling(route_circuit(warm.circuit, *options.coupling),
                                *options.coupling));

  const SlotState permuted = base.with_permutation({2, 0, 3, 1});
  const std::uint64_t misses_before = cache->stats().misses;
  const SynthesisResult independent = synth.synthesize(permuted);
  ASSERT_TRUE(independent.found);
  if (permuted != base) {
    EXPECT_EQ(cache->stats().misses, misses_before + 1);
  }
  verify_preparation_or_throw(independent.circuit, permuted.to_state());
}

TEST(EquivalenceCache, LruEvictionHonorsEntryBound) {
  EquivalenceCacheOptions cache_options;
  cache_options.num_shards = 1;
  cache_options.max_entries = 2;
  auto cache = std::make_shared<EquivalenceCache>(cache_options);
  SearchOptions options;
  options.cache = cache;
  const AStarSynthesizer synth(options);

  Rng rng(29);
  std::vector<SlotState> targets;
  for (int i = 0; i < 5; ++i) targets.push_back(random_slot(rng, 4, 3 + i));
  for (const SlotState& t : targets) {
    const SynthesisResult r = synth.synthesize(t);
    ASSERT_TRUE(r.found);
  }
  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.entries + stats.evictions, stats.insertions);

  // Evicted classes are re-searched and re-inserted correctly.
  const SynthesisResult again = synth.synthesize(targets.front());
  ASSERT_TRUE(again.found);
  verify_preparation_or_throw(again.circuit, targets.front().to_state());
}

TEST(EquivalenceCache, ConcurrentMixedBatchesStayBitIdentical) {
  // The satellite stress test: N threads re-running mixed batches against
  // one shared cache must observe bit-identical circuits cold-vs-warm and
  // coherent counters. Runs under the TSan CI job.
  Rng rng(31);
  std::vector<SlotState> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_slot(rng, 4, 3 + i));
  batch.push_back(*SlotState::from_state(make_dicke(4, 2)));
  batch.push_back(*SlotState::from_state(make_w(4)));

  // Cold reference results: no cache, one thread (deterministic).
  std::vector<SynthesisResult> reference;
  for (const SlotState& t : batch) {
    reference.push_back(AStarSynthesizer().synthesize(t));
    ASSERT_TRUE(reference.back().optimal);
  }

  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AStarSynthesizer synth(options);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const SynthesisResult r = synth.synthesize(batch[i]);
          if (!r.found || !r.optimal ||
              r.cnot_cost != reference[i].cnot_cost ||
              r.circuit != reference[i].circuit) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  const EquivalenceCacheStats stats = cache->stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kRounds * batch.size();
  EXPECT_EQ(stats.lookups, total);
  EXPECT_EQ(stats.hits + stats.misses, total);
  EXPECT_EQ(stats.exact_hits + stats.rewired_hits + stats.negative_hits,
            stats.hits);
  // One search per class in the best case; owners that lost a data race
  // to a concurrent independent publish stay bounded by the thread count.
  EXPECT_GE(stats.hits, total - static_cast<std::uint64_t>(kThreads) *
                                    batch.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.entries, batch.size());
}

TEST(EquivalenceCache, InFlightDeduplicationRunsOneSearch) {
  // Concurrent requests for one class: exactly one owner searches, every
  // other thread blocks on the in-flight marker and then hits.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.cache = cache;
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SynthesisResult r = AStarSynthesizer(options).synthesize(target);
      if (!r.found || !r.optimal) ++failures[static_cast<std::size_t>(t)];
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  // The owner search completes and publishes an optimal circuit, so no
  // waiter ever re-searches: one miss, everyone else hits.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads) - 1);
}

// --- Negative records: A* attempts that ran out of node budget ------------

/// Same outcome as far as any caller can see: found, certificate, cost,
/// circuit and the completion flags.
void expect_same_result(const SynthesisResult& got,
                        const SynthesisResult& want, const std::string& ctx) {
  EXPECT_EQ(got.found, want.found) << ctx;
  EXPECT_EQ(got.optimal, want.optimal) << ctx;
  EXPECT_EQ(got.cnot_cost, want.cnot_cost) << ctx;
  EXPECT_EQ(got.circuit, want.circuit) << ctx;
  EXPECT_EQ(got.stats.completed, want.stats.completed) << ctx;
  EXPECT_EQ(got.stats.budget_exhausted, want.stats.budget_exhausted) << ctx;
}

SearchOptions without_cache(SearchOptions options) {
  options.cache = nullptr;
  return options;
}

/// Dicke(4,2) certifies at cost 6 after ~1.2k arcs; 200 arcs cannot.
struct Recorded {
  SlotState target = *SlotState::from_state(make_dicke(4, 2));
  SearchOptions options;
  std::int64_t bound = 7;
  std::uint64_t nodes_generated = 0;
  std::shared_ptr<EquivalenceCache> cache;
};

/// A fresh cache holding the record of one exhausted attempt.
Recorded record_exhaustion() {
  Recorded r;
  r.cache = std::make_shared<EquivalenceCache>();
  r.options.node_budget = 200;
  r.options.cache = r.cache;
  const SynthesisResult cold =
      AStarSynthesizer(r.options).synthesize(r.target, r.bound);
  EXPECT_FALSE(cold.found);
  EXPECT_TRUE(cold.stats.budget_exhausted);
  EXPECT_GT(cold.stats.nodes_generated, r.options.node_budget);
  r.nodes_generated = cold.stats.nodes_generated;
  const EquivalenceCacheStats stats = r.cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  return r;
}

/// One probe after the record: a change to the recorded target, options
/// or bound.
struct Probe {
  std::string name;
  std::function<void(SlotState&, SearchOptions&, std::int64_t&)> change;
};

TEST(EquivalenceCache, ExhaustionRecordReplaysOnlyWhatItCovers) {
  const std::uint64_t n = record_exhaustion().nodes_generated;
  using S = SlotState;
  using O = SearchOptions;
  using B = std::int64_t;
  const std::vector<Probe> replays = {
      {"N' = N", [](S&, O&, B&) {}},
      {"N' = n", [n](S&, O& o, B&) { o.node_budget = n; }},
      {"wall budget", [](S&, O& o, B&) { o.time_budget_seconds = 60.0; }},
      {"bound above B", [](S&, O&, B& b) { b += 1; }},
      {"no bound", [](S&, O&, B& b) { b = kNoCostBound; }},
  };
  const std::vector<Probe> searches = {
      {"N' = n + 1", [n](S&, O& o, B&) { o.node_budget = n + 1; }},
      {"N' = 0", [](S&, O& o, B&) { o.node_budget = 0; }},
      {"bound B - 1", [](S&, O&, B& b) { b -= 1; }},
      {"2 shards", [](S&, O& o, B&) { o.num_threads = 2; }},
      {"heuristic",
       [](S&, O& o, B&) { o.heuristic = HeuristicMode::kPair; }},
      {"candidate cap", [](S&, O& o, B&) { o.full_candidate_cap = 64; }},
      {"routed heuristic",
       [](S&, O& o, B&) { o.routed_heuristic = false; }},
      {"canonical level",
       [](S&, O& o, B&) { o.canonical = CanonicalLevel::kPU2Greedy; }},
      {"X-translated member",
       [](S& t, O&, B&) { t = t.with_translation(0b0101); }},
  };
  for (const bool replay : {true, false}) {
    for (const Probe& p : replay ? replays : searches) {
      // Each probe meets a fresh record, so one probe's publish cannot
      // answer the next.
      const Recorded r = record_exhaustion();
      SlotState target = r.target;
      SearchOptions options = r.options;
      std::int64_t bound = r.bound;
      p.change(target, options, bound);
      const SynthesisResult want =
          AStarSynthesizer(without_cache(options)).synthesize(target, bound);
      const SynthesisResult got =
          AStarSynthesizer(options).synthesize(target, bound);
      expect_same_result(got, want, p.name);
      const EquivalenceCacheStats stats = r.cache->stats();
      EXPECT_EQ(stats.lookups, 2u) << p.name;
      EXPECT_EQ(stats.negative_hits, replay ? 1u : 0u) << p.name;
      EXPECT_EQ(stats.misses, replay ? 1u : 2u) << p.name;
      EXPECT_EQ(stats.hits, stats.negative_hits) << p.name;
      // A replay runs no search.
      EXPECT_EQ(got.stats.nodes_generated == 0, replay) << p.name;
    }
  }
}

TEST(EquivalenceCache, WallBudgetedAttemptWritesNoRecord) {
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.node_budget = 200;
  options.time_budget_seconds = 60.0;
  options.cache = cache;
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  for (int round = 0; round < 2; ++round) {
    const SynthesisResult r = AStarSynthesizer(options).synthesize(target);
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.stats.budget_exhausted);
    EXPECT_GT(r.stats.nodes_generated, 0u);
  }
  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.negative_hits, 0u);
}

TEST(EquivalenceCache, CertifiedPublishReplacesExhaustionRecord) {
  const Recorded r = record_exhaustion();
  ASSERT_GT(r.cache->stats().bytes, 0u);
  SearchOptions unlimited = r.options;
  unlimited.node_budget = 0;
  const SynthesisResult certified =
      AStarSynthesizer(unlimited).synthesize(r.target);
  ASSERT_TRUE(certified.optimal);

  // The record is gone: one entry, accounted as the template alone.
  auto fresh = std::make_shared<EquivalenceCache>();
  SearchOptions fresh_options = unlimited;
  fresh_options.cache = fresh;
  AStarSynthesizer(fresh_options).synthesize(r.target);
  EquivalenceCacheStats stats = r.cache->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.bytes, fresh->stats().bytes);

  // Every later probe gets the certified template, the exhausting budget
  // included; the translated member is rewired, not searched, so no
  // record can be written over the template.
  const SynthesisResult again =
      AStarSynthesizer(r.options).synthesize(r.target, r.bound);
  EXPECT_TRUE(again.optimal);
  EXPECT_EQ(again.circuit, certified.circuit);
  const SlotState translated = r.target.with_translation(0b0101);
  const SynthesisResult rewired =
      AStarSynthesizer(r.options).synthesize(translated);
  EXPECT_TRUE(rewired.optimal);
  verify_preparation_or_throw(rewired.circuit, translated.to_state());
  stats = r.cache->stats();
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.rewired_hits, 1u);
  EXPECT_EQ(stats.negative_hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(EquivalenceCache, ExhaustionRecordsShareTheLruAndCaps) {
  EquivalenceCacheOptions cache_options;
  cache_options.num_shards = 1;
  cache_options.max_entries = 2;
  auto cache = std::make_shared<EquivalenceCache>(cache_options);
  SearchOptions options;
  options.node_budget = 20;  // below one expansion of any of these
  options.cache = cache;
  const AStarSynthesizer synth(options);
  Rng rng(41);
  std::vector<SlotState> targets;
  while (targets.size() < 3) {
    const SlotState t = random_slot(rng, 4, 6);
    if (!AStarSynthesizer(without_cache(options)).synthesize(t).stats
             .budget_exhausted) {
      continue;
    }
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
      targets.push_back(t);
    }
  }
  const auto replayed = [&](const SlotState& t) {
    const std::uint64_t before = cache->stats().negative_hits;
    const SynthesisResult r = synth.synthesize(t);
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.stats.budget_exhausted);
    return cache->stats().negative_hits == before + 1;
  };
  EXPECT_FALSE(replayed(targets[0]));  // records 0
  EXPECT_FALSE(replayed(targets[1]));  // records 1
  EXPECT_TRUE(replayed(targets[0]));   // touches 0: 1 is now the LRU
  EXPECT_FALSE(replayed(targets[2]));  // records 2, evicts 1
  EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_TRUE(replayed(targets[0]));
  EXPECT_TRUE(replayed(targets[2]));
  EXPECT_FALSE(replayed(targets[1]));  // searched again, evicts 0

  // A byte cap below one record keeps nothing, and the bytes return to 0.
  EquivalenceCacheOptions tiny_options;
  tiny_options.num_shards = 1;
  tiny_options.max_bytes = 1;
  auto tiny = std::make_shared<EquivalenceCache>(tiny_options);
  SearchOptions tiny_search = options;
  tiny_search.cache = tiny;
  for (const SlotState& t : targets) {
    AStarSynthesizer(tiny_search).synthesize(t);
  }
  stats = tiny->stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, targets.size());
}

TEST(EquivalenceCache, InFlightExhaustionRunsOneSearch) {
  // Concurrent identical requests whose search runs out of node budget:
  // the owner searches and records, every other thread replays the
  // record, whether it waited on the owner or arrived after it.
  auto cache = std::make_shared<EquivalenceCache>();
  SearchOptions options;
  options.node_budget = 1000;
  options.cache = cache;
  const SlotState target = *SlotState::from_state(make_dicke(4, 2));
  const SynthesisResult want =
      AStarSynthesizer(without_cache(options)).synthesize(target);
  ASSERT_TRUE(want.stats.budget_exhausted);
  constexpr int kThreads = 6;
  std::vector<SynthesisResult> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          AStarSynthesizer(options).synthesize(target);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_same_result(got[static_cast<std::size_t>(t)], want,
                       "thread " + std::to_string(t));
  }
  const EquivalenceCacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.negative_hits, static_cast<std::uint64_t>(kThreads) - 1);
  EXPECT_EQ(stats.hits, stats.negative_hits);
}

}  // namespace
}  // namespace qsp
