#include "service/equivalence_cache.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "util/assert.hpp"
#include "util/bitops.hpp"
#include "util/timer.hpp"

namespace qsp {
namespace {

/// Cache key: fingerprint id plus the canonical key's raw bytes. Equal
/// keys <=> same fingerprint and same canonical class.
std::string make_key(const std::string& fingerprint_id,
                     const CanonicalKey& canonical) {
  std::string key;
  key.reserve(fingerprint_id.size() + 1 + canonical.size() * 8);
  key += fingerprint_id;
  key += '#';
  for (const std::uint64_t packed : canonical) {
    for (int b = 0; b < 8; ++b) {
      key += static_cast<char>((packed >> (8 * b)) & 0xff);
    }
  }
  return key;
}

std::size_t gate_bytes(const Gate& gate) {
  return sizeof(Gate) + gate.controls().size() * sizeof(ControlLiteral) +
         gate.angles().size() * sizeof(double);
}

std::size_t circuit_bytes(const Circuit& circuit) {
  std::size_t total = sizeof(Circuit);
  for (const Gate& g : circuit.gates()) total += gate_bytes(g);
  return total;
}

std::size_t witness_bytes(const CanonicalWitness& witness) {
  std::size_t total = witness.key.size() * sizeof(std::uint64_t) +
                      witness.permutation.size() * sizeof(int);
  for (const Gate& g : witness.merge_gates) total += gate_bytes(g);
  return total;
}

/// Rewire a cached template onto another member of the same class. Both
/// the representative and the target canonicalize to the same form F via
/// their witnesses W_R, W_T (merges M, X-translation X, relabeling P):
///   |T> = M_T^-1 X_T P_T^-1 P_R X_R M_R |R>
/// Applying P_sigma := P_T^-1 P_R to a circuit that starts from |0> is a
/// wire relabeling (P_sigma |0> = |0>), so the template plus the
/// representative-side witness gates are remapped by sigma, then the
/// target-side witness is undone. Every added gate is zero-cost (X, Ry)
/// and sigma is the identity whenever the cache canonicalizes without
/// permutations (restricted couplings), so routed costs are preserved and
/// the optimality certificate transfers.
Circuit rewire_template(const Circuit& circuit,
                        const CanonicalWitness& representative_witness,
                        const CanonicalWitness& target_witness,
                        int num_qubits) {
  Circuit out(num_qubits);
  out.append(circuit);
  for (const Gate& g : representative_witness.merge_gates) out.append(g);
  for (int q = 0; q < num_qubits; ++q) {
    if (get_bit(representative_witness.translation, q) != 0) {
      out.append(Gate::x(q));
    }
  }
  const std::vector<int>& pr = representative_witness.permutation;
  const std::vector<int>& pt = target_witness.permutation;
  QSP_ASSERT(pr.size() == pt.size());
  std::vector<int> pt_inverse(pt.size(), 0);
  for (std::size_t q = 0; q < pt.size(); ++q) {
    pt_inverse[static_cast<std::size_t>(pt[q])] = static_cast<int>(q);
  }
  std::vector<int> sigma(pr.size(), 0);
  bool identity = true;
  for (std::size_t q = 0; q < pr.size(); ++q) {
    sigma[q] = pt_inverse[static_cast<std::size_t>(pr[q])];
    identity = identity && sigma[q] == static_cast<int>(q);
  }
  if (!identity) {
    Circuit relabeled(num_qubits);
    for (const Gate& g : out.gates()) relabeled.append(g.remapped(sigma));
    out = std::move(relabeled);
  }
  for (int q = 0; q < num_qubits; ++q) {
    if (get_bit(target_witness.translation, q) != 0) {
      out.append(Gate::x(q));
    }
  }
  for (auto it = target_witness.merge_gates.rbegin();
       it != target_witness.merge_gates.rend(); ++it) {
    out.append(it->adjoint());
  }
  return out;
}

/// True when a one-shard A* without a wall deadline ran out of its node
/// budget: the attempt a negative record remembers. Its trajectory is then
/// a fixed function of the representative and the attempt's knobs.
bool remembers_exhaustion(const SearchAttempt& attempt,
                          const SynthesisResult& result) {
  return !result.found && result.stats.budget_exhausted &&
         attempt.num_shards == 1 && !attempt.wall_budget &&
         attempt.node_budget > 0 &&
         result.stats.nodes_generated >= attempt.node_budget;
}

}  // namespace

bool EquivalenceCache::Entry::covers(
    const SlotState& target,
    const std::optional<SearchAttempt>& probe) const {
  // The recorded search saw min f below its bound B at every pop check (a
  // frontier at or above B certifies on the spot), so any bound >= B pops
  // the same sequence, and a node budget <= n trips at or before the
  // recorded abort. See SearchAttempt and docs/ARCHITECTURE.md.
  return circuit == nullptr && probe.has_value() &&
         target == representative && probe->num_shards == 1 &&
         probe->same_trajectory(attempt) && probe->node_budget > 0 &&
         probe->node_budget <= nodes_generated &&
         probe->cost_bound >= attempt.cost_bound;
}

EquivalenceCache::EquivalenceCache(EquivalenceCacheOptions options)
    : options_(options) {
  options_.num_shards = std::max<std::size_t>(options_.num_shards, 1);
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.max_entries != 0) {
    shard_entry_cap_ =
        std::max<std::size_t>(options_.max_entries / options_.num_shards, 1);
  }
  if (options_.max_bytes != 0) {
    shard_byte_cap_ =
        std::max<std::size_t>(options_.max_bytes / options_.num_shards, 1);
  }
}

EquivalenceCache::Shard& EquivalenceCache::shard_for(const std::string& key) {
  const std::size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

void EquivalenceCache::store(Shard& shard, const std::string& key,
                             Entry entry) {
  const auto [it, inserted] = shard.map.try_emplace(key);
  if (inserted) {
    entries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Only the class's owner stores, and begin() makes an owner only when
    // no positive entry is present; the owner's in-flight marker keeps any
    // second owner out until now. So what is replaced is a negative
    // record, never a certified template.
    QSP_ASSERT(it->second.circuit == nullptr);
    shard.lru.erase(it->second.lru);
    shard.bytes -= it->second.bytes;
    bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  }
  shard.lru.push_front(key);
  entry.lru = shard.lru.begin();
  shard.bytes += entry.bytes;
  bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
  it->second = std::move(entry);
  evict_over_caps(shard);
}

void EquivalenceCache::evict_over_caps(Shard& shard) {
  while (!shard.lru.empty() &&
         ((shard_entry_cap_ != 0 && shard.map.size() > shard_entry_cap_) ||
          (shard_byte_cap_ != 0 && shard.bytes > shard_byte_cap_))) {
    const std::string victim = shard.lru.back();
    shard.lru.pop_back();
    const auto it = shard.map.find(victim);
    QSP_ASSERT(it != shard.map.end());
    shard.bytes -= it->second.bytes;
    bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard.map.erase(it);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

SearchCache::Lookup EquivalenceCache::begin(const SlotState& target,
                                            const CanonicalWitness& witness,
                                            const CacheFingerprint& fp,
                                            double max_wait_seconds,
                                            bool consult_only) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::string key = make_key(fp.id, witness.key);
  Shard& shard = shard_for(key);

  // One wait budget across every ownership round: a fresh owner claiming
  // the class between our wake-up and retry must not reset the clock, or
  // a stream of failing owners could block a waiter for a multiple of
  // its own time budget.
  const Timer wait_timer;
  bool waited_once = false;
  for (;;) {
    std::shared_ptr<InFlight> flight;
    std::shared_ptr<const Circuit> hit_circuit;
    std::shared_ptr<const CanonicalWitness> hit_witness;
    std::int64_t hit_cost = 0;
    bool exact = false;
    bool negative = false;
    {
      const MutexLock lock(shard.m);
      const auto it = shard.map.find(key);
      // A negative record answers only the A* probes it covers; every
      // other probe treats it as absent.
      if (it != shard.map.end() &&
          (it->second.circuit != nullptr ||
           (!consult_only && it->second.covers(target, fp.attempt)))) {
        // Grab the immutable template; the circuit (and any rewiring) is
        // built after the lock is released.
        Entry& entry = it->second;
        exact = target == entry.representative;
        negative = entry.circuit == nullptr;
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru);
        hit_circuit = entry.circuit;
        hit_witness = entry.witness;
        hit_cost = entry.cnot_cost;
      } else {
        if (consult_only) {
          // Non-certifying searchers (the beam) answer from the table or
          // walk away: claiming ownership would make certifying
          // searchers queue behind a search that can never populate.
          misses_.fetch_add(1, std::memory_order_relaxed);
          return Lookup{Claim::kIndependent, std::nullopt};
        }
        const auto flight_it = shard.inflight.find(key);
        if (flight_it == shard.inflight.end()) {
          if (waited_once) {
            // The owner we waited for published nothing (failed or
            // uncertified search). Run a private search rather than
            // serializing another ownership round behind this class.
            misses_.fetch_add(1, std::memory_order_relaxed);
            return Lookup{Claim::kIndependent, std::nullopt};
          }
          shard.inflight.emplace(key, std::make_shared<InFlight>());
          misses_.fetch_add(1, std::memory_order_relaxed);
          return Lookup{Claim::kOwner, std::nullopt};
        }
        flight = flight_it->second;
      }
    }

    if (negative) {
      // What the covered search would return: no circuit, no certificate.
      negative_hits_.fetch_add(1, std::memory_order_relaxed);
      SynthesisResult exhausted;
      exhausted.stats.budget_exhausted = true;
      return Lookup{Claim::kHit, std::move(exhausted)};
    }
    if (hit_circuit != nullptr) {
      Lookup lookup;
      lookup.claim = Claim::kHit;
      SynthesisResult result;
      result.found = true;
      result.optimal = true;
      result.cnot_cost = hit_cost;
      result.stats.completed = true;
      result.circuit = exact ? *hit_circuit
                             : rewire_template(*hit_circuit, *hit_witness,
                                               witness, target.num_qubits());
      lookup.result = std::move(result);
      if (exact) {
        exact_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        rewired_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      return lookup;
    }

    inflight_waits_.fetch_add(1, std::memory_order_relaxed);
    waited_once = true;
    // Explicit wait loops (no predicate lambdas) so every read of the
    // guarded `done` flag sits in annotated scope under flight->m.
    MutexLock flight_lock(flight->m);
    if (max_wait_seconds > 0.0) {
      while (!flight->done) {
        const double remaining = max_wait_seconds - wait_timer.seconds();
        if (remaining <= 0.0) break;
        flight->cv.wait_for(flight_lock,
                            std::chrono::duration<double>(remaining));
      }
      if (!flight->done) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return Lookup{Claim::kIndependent, std::nullopt};
      }
    } else {
      while (!flight->done) flight->cv.wait(flight_lock);
    }
    // Owner finished: loop back and re-check the map.
  }
}

void EquivalenceCache::end(const SlotState& target,
                           const CanonicalWitness& witness,
                           const CacheFingerprint& fp,
                           const SynthesisResult* result) {
  const std::string key = make_key(fp.id, witness.key);
  Shard& shard = shard_for(key);

  std::shared_ptr<InFlight> flight;
  {
    const MutexLock lock(shard.m);
    const auto flight_it = shard.inflight.find(key);
    if (flight_it != shard.inflight.end()) {
      flight = flight_it->second;
      shard.inflight.erase(flight_it);
    }
    if (result != nullptr && result->found && result->optimal) {
      // A certified optimum: the optimal CNOT cost of a class is budget-
      // and heuristic-independent, which is what makes a future hit sound
      // for any requester sharing the fingerprint.
      Entry entry;
      entry.representative = target;
      entry.witness = std::make_shared<const CanonicalWitness>(witness);
      entry.circuit = std::make_shared<const Circuit>(result->circuit);
      entry.cnot_cost = result->cnot_cost;
      entry.bytes = key.size() + sizeof(Entry) +
                    target.entries().size() * sizeof(SlotEntry) +
                    witness_bytes(witness) + circuit_bytes(result->circuit);
      store(shard, key, std::move(entry));
      insertions_.fetch_add(1, std::memory_order_relaxed);
    } else if (result != nullptr && fp.attempt.has_value() &&
               remembers_exhaustion(*fp.attempt, *result)) {
      // A fact about this search only, replayed to the probes it covers.
      Entry entry;
      entry.representative = target;
      entry.attempt = *fp.attempt;
      entry.nodes_generated = result->stats.nodes_generated;
      entry.bytes = key.size() + sizeof(Entry) +
                    target.entries().size() * sizeof(SlotEntry);
      store(shard, key, std::move(entry));
    }
  }
  if (flight != nullptr) {
    const MutexLock flight_lock(flight->m);
    flight->done = true;
    flight->cv.notify_all();
  }
}

EquivalenceCacheStats EquivalenceCache::stats() const {
  EquivalenceCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  s.rewired_hits = rewired_hits_.load(std::memory_order_relaxed);
  s.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  s.hits = s.exact_hits + s.rewired_hits + s.negative_hits;
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qsp
