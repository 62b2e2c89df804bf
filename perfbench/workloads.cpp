#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "circuit/qasm.hpp"
#include "core/canonical.hpp"
#include "core/slot_state.hpp"
#include "prep/mflow.hpp"
#include "state/state_factory.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using qsp::BasisIndex;
using qsp::QuantumState;
using qsp::Rng;

/// Separate generator streams per workload, so one seed never gives two
/// workloads correlated draws.
Rng workload_rng(Workload workload, std::uint64_t seed) {
  return Rng(seed * 0x9e3779b97f4a7c15ull +
             static_cast<std::uint64_t>(workload) + 1);
}

Request make_request(QuantumState state, std::string label) {
  Request request;
  request.state = std::move(state);
  request.label = std::move(label);
  return request;
}

std::string family_label(const char* kind, int n) {
  std::string label(kind);
  label += std::to_string(n);
  return label;
}

std::string width_label(const char* kind, int n, int m) {
  return std::string(kind) + std::to_string(n) + "_" + std::to_string(m);
}

/// Shuffle each consecutive block of `block` requests in place: every
/// prefix of whole blocks keeps the workload's exact composition.
void shuffle_blocks(std::vector<Request>& requests, std::size_t block,
                    Rng& rng) {
  for (std::size_t begin = 0; begin < requests.size(); begin += block) {
    const std::size_t end = std::min(requests.size(), begin + block);
    for (std::size_t i = end - begin; i > 1; --i) {
      std::swap(requests[begin + i - 1],
                requests[begin + rng.next_below(i)]);
    }
  }
}

// --- sparse ---------------------------------------------------------------
// One-shot Solver::prepare on the paper's sparse half: random uniform
// states with n = 8..20 and m stratified over [n, 4n] (n*m < 2^n), plus
// GHZ and W at the same widths. Each block holds one request per width.

constexpr int kSparseMinWidth = 8;
constexpr int kSparseMaxWidth = 20;
constexpr int kSparsePerWidth = 80;  // 78 random + GHZ + W

int sparse_max_cardinality(int n) {
  int hi = 4 * n;
  while (static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(hi) >=
         (std::uint64_t{1} << n)) {
    --hi;
  }
  return hi;
}

WorkloadInputs sparse_inputs(std::uint64_t seed) {
  Rng rng = workload_rng(Workload::kSparse, seed);
  std::vector<std::vector<Request>> per_width;
  for (int n = kSparseMinWidth; n <= kSparseMaxWidth; ++n) {
    std::vector<Request> column;
    const int lo = n;
    const int hi = sparse_max_cardinality(n);
    const int randoms = kSparsePerWidth - 2;
    for (int j = 0; j < randoms; ++j) {
      // Stratified cardinality: one draw from each of `randoms` equal
      // slices of [lo, hi], so the size mix is the same for every seed.
      const double u = (j + rng.next_double()) / randoms;
      const int m = std::min(hi, lo + static_cast<int>(u * (hi - lo + 1)));
      column.push_back(make_request(qsp::make_random_uniform(n, m, rng),
                                    width_label("rand", n, m)));
    }
    column.push_back(make_request(qsp::make_ghz(n), width_label("ghz", n, 2)));
    column.push_back(make_request(qsp::make_w(n), width_label("w", n, n)));
    rng.shuffle(column);
    per_width.push_back(std::move(column));
  }
  WorkloadInputs inputs;
  for (int b = 0; b < kSparsePerWidth; ++b) {
    for (auto& column : per_width) {
      inputs.requests.push_back(std::move(column[static_cast<std::size_t>(b)]));
    }
  }
  shuffle_blocks(inputs.requests, per_width.size(), rng);
  return inputs;
}

// --- dense ----------------------------------------------------------------
// One-shot Solver::prepare on the paper's dense half: Table-V random
// uniform states with m = 2^(n-1), n = 5..8, and Dicke(n, k), 2 <= k <=
// n-2. Every request reaches the exact tail: n >= 9 marginals exceed
// dense_tail_total_cap and Dicke(8,2)/(8,6) take the sparse path, so both
// are left out. Each block of 12 holds two random states per width and
// four Dicke states. The list is nine blocks (108 requests, ten beyond
// p90), short enough that a run passes over it two to three times.

constexpr std::array<std::pair<int, int>, 13> kDenseDicke{{{4, 2},
                                                          {5, 2},
                                                          {5, 3},
                                                          {6, 2},
                                                          {6, 3},
                                                          {6, 4},
                                                          {7, 2},
                                                          {7, 3},
                                                          {7, 4},
                                                          {7, 5},
                                                          {8, 3},
                                                          {8, 4},
                                                          {8, 5}}};
constexpr int kDenseBlocks = 9;
constexpr int kDenseBlock = 12;
// n = 8 states come from a fixed pool, taken in turn: their search
// footprints range over several MiB, so per-seed draws would make the
// workload's peak memory depend on which ones a seed happened to draw.
// Two per block cover the pool once per pass.
constexpr std::size_t kDensePool = 18;
constexpr std::uint64_t kDensePoolSeed = 20240808;

WorkloadInputs dense_inputs(std::uint64_t seed) {
  Rng rng = workload_rng(Workload::kDense, seed);
  Rng pool_rng(kDensePoolSeed);
  std::vector<QuantumState> pool;
  for (std::size_t i = 0; i < kDensePool; ++i) {
    pool.push_back(qsp::make_random_uniform(8, 128, pool_rng));
  }
  WorkloadInputs inputs;
  for (int b = 0; b < kDenseBlocks; ++b) {
    for (int n = 5; n <= 8; ++n) {
      const int m = 1 << (n - 1);
      for (int r = 0; r < 2; ++r) {
        inputs.requests.push_back(make_request(
            n == 8 ? pool[static_cast<std::size_t>(2 * b + r) % kDensePool]
                   : qsp::make_random_uniform(n, m, rng),
            width_label("rand", n, m)));
      }
    }
    // Dicke states rotate through the fixed list, so every prefix of
    // whole blocks has the same Dicke mix whatever the seed.
    for (int d = 0; d < 4; ++d) {
      const auto [n, k] = kDenseDicke[static_cast<std::size_t>(4 * b + d) %
                                      kDenseDicke.size()];
      inputs.requests.push_back(
          make_request(qsp::make_dicke(n, k), width_label("dicke", n, k)));
    }
  }
  shuffle_blocks(inputs.requests, kDenseBlock, rng);
  return inputs;
}

// --- service_mix ------------------------------------------------------------
// A shared SynthesisService under a closed loop. Draws are skewed (Zipf
// over a catalogue of small-core states that certify within the node
// budget on both topologies), half on the heavy_hex(3) device; variants
// come from small fixed sets per entry, so repeats and rewired hits
// dominate. Extra shares: first-seen states, two repeated dense classes
// whose attempt never certifies, and QASM-fronted requests.

constexpr int kServiceRandomEntries = 10;
constexpr int kVariantsPerEntry = 4;
// Every block of 200 requests holds exactly 3 dense (1.5%), 3 first-seen
// (1.5%) and 20 QASM-fronted (10%) requests, and equal device and
// all-to-all halves of the catalogue draws, so the expensive shares do not
// vary with the seed. 400 blocks are 80000 requests: a 40-s run ends
// before the list cycles, which would turn first-seen requests into
// repeats, below 2000 requests/s (about 1.2 times the fastest run seen).
// The list cannot grow much: the first-seen class space below holds 1554
// classes, and 400 blocks take 1200 of them.
constexpr std::size_t kServiceBlocks = 400;
constexpr std::size_t kServiceBlock = 200;
constexpr std::size_t kDensePerBlock = 3;
// Completions per window of window_summary: ten blocks, so each window
// holds about the list's mix and twenty samples beyond p99. A 40-s run
// makes 15 to 35 windows.
constexpr std::size_t kServiceWindow = 10 * kServiceBlock;
constexpr std::size_t kFirstSeenPerBlock = 3;
constexpr std::size_t kQasmPerBlock = 20;

// First-seen states are four-qubit states with weighted slots: 3..4
// distinct basis states with counts 1..4 (gcd 1) and a slot total of 7..13
// other than 10. Every catalogue state has a slot total of at most 6, the
// dense classes have 10 and 20, and the searches the workflow runs keep
// the total (m-flow merges add counts), so no first-seen class is one the
// warm fill or a dense request put in flight. Draws also skip every class
// an earlier first-seen draw took: each one is a cache miss when it is
// first sent, and a cache write when its search certifies.
constexpr int kFirstSeenQubits = 4;
constexpr std::uint64_t kFirstSeenMinTotal = 7;
constexpr std::uint64_t kFirstSeenMaxTotal = 13;
constexpr std::uint64_t kDenseClassTotal = 10;
constexpr int kFirstSeenAttempts = 1'000'000;

using ClassSet = std::unordered_set<qsp::CanonicalKey, qsp::CanonicalKeyHash>;

QuantumState first_seen_state(Rng& rng, ClassSet& taken) {
  for (int attempt = 0; attempt < kFirstSeenAttempts; ++attempt) {
    const auto m = static_cast<std::size_t>(3 + rng.next_below(2));
    const std::vector<std::uint64_t> indices =
        rng.sample_distinct(BasisIndex{1} << kFirstSeenQubits, m);
    std::vector<qsp::SlotEntry> entries;
    std::uint64_t total = 0;
    std::uint64_t divisor = 0;
    for (const std::uint64_t index : indices) {
      const auto count = static_cast<std::uint32_t>(1 + rng.next_below(4));
      entries.push_back(
          qsp::SlotEntry{static_cast<BasisIndex>(index), count});
      total += count;
      divisor = std::gcd(divisor, std::uint64_t{count});
    }
    if (divisor != 1 || total < kFirstSeenMinTotal ||
        total > kFirstSeenMaxTotal || total == kDenseClassTotal) {
      continue;
    }
    const qsp::SlotState slot(kFirstSeenQubits, std::move(entries));
    // A separable state has no core, so it never reaches the cache.
    if (qsp::compress_free(slot).is_ground()) continue;
    if (!taken.insert(qsp::canonical_key(slot, qsp::CanonicalLevel::kPU2Exact))
             .second) {
      continue;
    }
    return slot.to_state();
  }
  throw std::runtime_error("service_mix: first-seen class space exhausted");
}

QuantumState mapped_state(const QuantumState& state, BasisIndex mask,
                          const std::vector<int>* perm) {
  std::vector<qsp::Term> terms;
  terms.reserve(state.terms().size());
  for (const qsp::Term& t : state.terms()) {
    BasisIndex index = t.index ^ mask;
    if (perm != nullptr) index = qsp::permute_bits(index, *perm);
    terms.push_back(qsp::Term{index, t.amplitude});
  }
  return QuantumState(state.num_qubits(), std::move(terms));
}

struct CatalogueEntry {
  Request base;
  std::vector<BasisIndex> masks;
  std::vector<std::vector<int>> perms;
};

/// The catalogue, its variant sets and its popularity order are fixed:
/// the seed drives only the draws, so the class mix (and with it what
/// the cache can serve) is the same for every seed. kCatalogueSeed was
/// chosen so every entry certifies within the node budget on both
/// topologies.
constexpr std::uint64_t kCatalogueSeed = 9;

WorkloadInputs service_mix_inputs(std::uint64_t seed) {
  Rng rng = workload_rng(Workload::kServiceMix, seed);
  Rng fixed(kCatalogueSeed);
  std::vector<CatalogueEntry> catalogue;
  const auto add_entry = [&](QuantumState state, std::string label) {
    CatalogueEntry entry;
    const int n = state.num_qubits();
    for (int v = 0; v < kVariantsPerEntry; ++v) {
      entry.masks.push_back(1 + fixed.next_below((BasisIndex{1} << n) - 1));
      std::vector<int> perm(static_cast<std::size_t>(n));
      for (int q = 0; q < n; ++q) perm[static_cast<std::size_t>(q)] = q;
      fixed.shuffle(perm);
      entry.perms.push_back(std::move(perm));
    }
    entry.base = make_request(std::move(state), std::move(label));
    catalogue.push_back(std::move(entry));
  };
  for (int n = 4; n <= 6; ++n) {
    add_entry(qsp::make_ghz(n), family_label("ghz", n));
  }
  add_entry(qsp::make_w(4), "w4");
  add_entry(qsp::make_w(5), "w5");
  add_entry(qsp::make_dicke(4, 2), "dicke4_2");
  for (int i = 0; i < kServiceRandomEntries; ++i) {
    const int n = 4 + i % 3;
    const int m = 3 + (i / 3) % 2;
    add_entry(qsp::make_random_uniform(n, m, fixed), width_label("rand", n, m));
  }
  // Zipf popularity over a fixed shuffled order of the catalogue.
  fixed.shuffle(catalogue);
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t r = 0; r < catalogue.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative.push_back(total);
  }

  WorkloadInputs inputs;
  for (const CatalogueEntry& entry : catalogue) {
    for (bool device : {false, true}) {
      Request warm = entry.base;
      warm.on_device = device;
      inputs.setup.push_back(std::move(warm));
    }
  }

  const std::array<QuantumState, 2> dense{qsp::make_dicke(5, 2),
                                          qsp::make_dicke(6, 3)};
  // The warm fill also runs the repeated dense classes once: nothing is
  // stored for them today, but it is the set-up a negative cache would
  // use.
  for (std::size_t which = 0; which < dense.size(); ++which) {
    Request warm =
        make_request(dense[which], which == 0 ? "dicke5_2" : "dicke6_3");
    warm.on_device = true;
    inputs.setup.push_back(std::move(warm));
  }
  ClassSet first_seen_classes;
  for (std::size_t b = 0; b < kServiceBlocks; ++b) {
    std::vector<Request> block;
    for (std::size_t j = 0; j < kDensePerBlock; ++j) {
      const std::size_t which = (b * kDensePerBlock + j) % dense.size();
      Request request =
          make_request(dense[which], which == 0 ? "dicke5_2" : "dicke6_3");
      request.on_device = true;
      block.push_back(std::move(request));
    }
    for (std::size_t j = 0; j < kFirstSeenPerBlock; ++j) {
      QuantumState state = first_seen_state(rng, first_seen_classes);
      const int m = state.cardinality();
      Request request = make_request(std::move(state),
                                     width_label("new", kFirstSeenQubits, m));
      request.on_device = j % 2 == 1;
      request.first_seen = true;
      block.push_back(std::move(request));
    }
    while (block.size() < kServiceBlock) {
      const double pick = rng.next_double() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
          cumulative.begin());
      const CatalogueEntry& entry =
          catalogue[std::min(rank, catalogue.size() - 1)];
      const bool device = block.size() % 2 == 0;
      const double variant = rng.next_double();
      const std::size_t v = rng.next_below(kVariantsPerEntry);
      Request request;
      if (variant < 0.5) {
        request = make_request(entry.base.state, entry.base.label);
      } else if (variant < 0.75 || device) {
        // Qubit relabeling is free only on all-to-all; device variants
        // are X-translations.
        request = make_request(
            mapped_state(entry.base.state, entry.masks[v], nullptr),
            entry.base.label + "+x");
      } else {
        request = make_request(
            mapped_state(entry.base.state, 0, &entry.perms[v]),
            entry.base.label + "+p");
      }
      request.on_device = device;
      block.push_back(std::move(request));
    }
    for (std::size_t j = 0; j < kQasmPerBlock; ++j) {
      Request& request = block[kDensePerBlock + kFirstSeenPerBlock + j];
      request.qasm = qsp::to_qasm(qsp::mflow_prepare(request.state).circuit);
    }
    rng.shuffle(block);
    for (Request& request : block) {
      inputs.requests.push_back(std::move(request));
    }
  }
  return inputs;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "sparse") return Workload::kSparse;
  if (name == "dense") return Workload::kDense;
  if (name == "service_mix") return Workload::kServiceMix;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSparse:
      return "sparse";
    case Workload::kDense:
      return "dense";
    case Workload::kServiceMix:
      return "service_mix";
  }
  return "?";
}

WorkloadSpec workload_spec(Workload workload) {
  switch (workload) {
    case Workload::kSparse:
      return {2 * kSparsePerWidth * (kSparseMaxWidth - kSparseMinWidth + 1),
              99.0, 0, 200};
    case Workload::kDense:
      return {2 * kDenseBlocks * kDenseBlock, 90.0, 0, 16};
    case Workload::kServiceMix:
      return {2 * kServiceWindow, 99.0, kServiceWindow, 120};
  }
  return {};
}

WorkloadInputs generate_inputs(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kSparse:
      return sparse_inputs(seed);
    case Workload::kDense:
      return dense_inputs(seed);
    case Workload::kServiceMix:
      return service_mix_inputs(seed);
  }
  return {};
}

std::shared_ptr<const qsp::CouplingGraph> make_device() {
  return std::make_shared<const qsp::CouplingGraph>(
      qsp::CouplingGraph::heavy_hex(3));
}

qsp::WorkflowOptions workflow_options(
    Workload workload, std::shared_ptr<const qsp::CouplingGraph> device) {
  qsp::WorkflowOptions options;
  options.time_budget_seconds = 0.0;
  options.exact.time_budget_seconds = 0.0;
  options.exact.astar.time_budget_seconds = 0.0;
  options.exact.beam.time_budget_seconds = 0.0;
  // One-shot dense requests: the first A* expansion of a count-heavy
  // marginal already generates ~500 arcs, and beam width 1 keeps the
  // fallback to a greedy descent (~0.2 s on n = 8). service_mix needs
  // 20k nodes so its catalogue certifies on heavy_hex(3) as well.
  options.exact.astar.node_budget =
      workload == Workload::kServiceMix ? 20'000 : 1'000;
  options.exact.beam.beam_width = 1;
  options.coupling = std::move(device);
  return options;
}

void Fnv1a::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
}

void Fnv1a::add_double(double value) {
  add(std::bit_cast<std::uint64_t>(value));
}

std::uint64_t state_digest(const QuantumState& state) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(state.num_qubits()));
  for (const qsp::Term& t : state.terms()) {
    h.add(t.index);
    h.add_double(t.amplitude);
  }
  return h.hash;
}

std::uint64_t circuit_digest(const qsp::Circuit& circuit) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(circuit.num_qubits()));
  for (const qsp::Gate& g : circuit.gates()) {
    h.add(static_cast<std::uint64_t>(g.kind()));
    h.add(static_cast<std::uint64_t>(g.target()));
    h.add_double(g.theta());
    for (const qsp::ControlLiteral& c : g.controls()) {
      h.add(static_cast<std::uint64_t>(c.qubit) * 2 + (c.positive ? 1 : 0));
    }
    for (double a : g.angles()) h.add_double(a);
  }
  return h.hash;
}

std::uint64_t request_list_digest(const std::vector<Request>& requests) {
  Fnv1a h;
  for (const Request& r : requests) {
    h.add(state_digest(r.state));
    h.add(r.on_device ? 1 : 0);
    for (char c : r.qasm) h.add(static_cast<unsigned char>(c));
  }
  return h.hash;
}

namespace {
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile(std::size_t n, double cap) {
  for (double p : {99.0, 90.0}) {
    if (p <= cap && samples_beyond(n, p) >= 10) return p;
  }
  return 50.0;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

LatencySummary best_call_summary(const std::vector<Call>& calls, double cap) {
  std::unordered_map<std::size_t, double> best;
  for (const Call& c : calls) {
    const auto [it, inserted] = best.try_emplace(c.index, c.latency_s);
    if (!inserted) it->second = std::min(it->second, c.latency_s);
  }
  std::vector<double> ms;
  double total_s = 0.0;
  for (const auto& [index, seconds] : best) {
    ms.push_back(1e3 * seconds);
    total_s += seconds;
  }
  LatencySummary s;
  s.samples = ms.size();
  s.tail_percentile = tail_percentile(s.samples, cap);
  s.p50_ms = percentile(ms, 50.0);
  s.tail_ms = percentile(ms, s.tail_percentile);
  s.throughput_rps =
      total_s > 0.0 ? static_cast<double>(s.samples) / total_s : 0.0;
  return s;
}

LatencySummary window_summary(const std::vector<Call>& calls, double start_s,
                              std::size_t window, double cap) {
  LatencySummary s;
  s.samples = window;
  s.tail_percentile = tail_percentile(window, cap);
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<double> durations_s;
  double window_start_s = start_s;
  for (std::size_t begin = 0; window > 0 && begin + window <= calls.size();
       begin += window) {
    std::vector<double> ms;
    for (std::size_t i = begin; i < begin + window; ++i) {
      ms.push_back(1e3 * calls[i].latency_s);
    }
    p50s.push_back(percentile(ms, 50.0));
    tails.push_back(percentile(std::move(ms), s.tail_percentile));
    const double end_s = calls[begin + window - 1].ready_s;
    durations_s.push_back(end_s - window_start_s);
    window_start_s = end_s;
  }
  s.windows = durations_s.size();
  if (s.windows == 0) return s;
  s.p50_ms = percentile(std::move(p50s), 25.0);
  s.tail_ms = percentile(std::move(tails), 25.0);
  s.throughput_rps = static_cast<double>(window) /
                     percentile(std::move(durations_s), 25.0);
  return s;
}

bool fits_exact_thresholds(const QuantumState& state,
                           const qsp::WorkflowOptions& options) {
  QuantumState normalized = state;
  if (std::all_of(state.terms().begin(), state.terms().end(),
                  [](const qsp::Term& t) { return t.amplitude < 0; })) {
    std::vector<qsp::Term> terms = state.terms();
    for (qsp::Term& t : terms) t.amplitude = -t.amplitude;
    normalized = QuantumState(state.num_qubits(), std::move(terms));
  }
  const auto slot = qsp::SlotState::from_state(normalized);
  if (!slot.has_value()) return false;
  if (slot->cardinality() > options.exact_max_cardinality) return false;
  const qsp::SlotState compressed = qsp::compress_free(*slot);
  int active = 0;
  for (int q = 0; q < compressed.num_qubits(); ++q) {
    if (!compressed.qubit_constant(q)) ++active;
  }
  return active <= options.exact_max_qubits;
}

}  // namespace perfbench
