#include "arch/coupling.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace qsp {
namespace {

/// `num_qubits` if a device that wide fits the register, else throws.
/// Takes 64 bits so that factories can pass products of their dimensions
/// unwrapped, and runs before anything is sized by the count.
int checked_qubit_count(std::int64_t num_qubits, const char* who) {
  if (num_qubits < 1 || num_qubits > kMaxQubits) {
    throw std::invalid_argument(std::string(who) + ": qubit count " +
                                std::to_string(num_qubits) +
                                " out of range [1, " +
                                std::to_string(kMaxQubits) + "]");
  }
  return static_cast<int>(num_qubits);
}

/// Throws std::invalid_argument naming `caller` unless `q` is a qubit of
/// an `n`-qubit device.
void require_device_qubit(int q, int n, const char* caller) {
  if (q < 0 || q >= n) {
    throw std::invalid_argument(std::string(caller) + ": qubit " +
                                std::to_string(q) + " is not on the " +
                                std::to_string(n) + "-qubit device");
  }
}

}  // namespace

CouplingGraph::CouplingGraph(int num_qubits,
                             std::vector<std::pair<int, int>> edges)
    : num_qubits_(checked_qubit_count(num_qubits, "CouplingGraph")),
      adjacency_(static_cast<std::size_t>(num_qubits_)) {
  for (const auto& [a, b] : edges) {
    if (a < 0 || b < 0 || a >= num_qubits || b >= num_qubits || a == b) {
      throw std::invalid_argument("CouplingGraph: bad edge");
    }
    adjacency_[static_cast<std::size_t>(a)].push_back(b);
    adjacency_[static_cast<std::size_t>(b)].push_back(a);
  }
  for (auto& neighbors : adjacency_) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  compute_distances();
  if (num_qubits_ <= kSteinerExactQubits && is_connected() &&
      !is_complete()) {
    compute_steiner_table();
  }
}

CouplingGraph CouplingGraph::full(int num_qubits) {
  checked_qubit_count(num_qubits, "CouplingGraph::full");
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < num_qubits; ++a) {
    for (int b = a + 1; b < num_qubits; ++b) edges.emplace_back(a, b);
  }
  return CouplingGraph(num_qubits, std::move(edges));
}

CouplingGraph CouplingGraph::line(int num_qubits) {
  checked_qubit_count(num_qubits, "CouplingGraph::line");
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < num_qubits; ++q) edges.emplace_back(q, q + 1);
  return CouplingGraph(num_qubits, std::move(edges));
}

CouplingGraph CouplingGraph::ring(int num_qubits) {
  checked_qubit_count(num_qubits, "CouplingGraph::ring");
  std::vector<std::pair<int, int>> edges;
  for (int q = 0; q + 1 < num_qubits; ++q) edges.emplace_back(q, q + 1);
  if (num_qubits > 2) edges.emplace_back(num_qubits - 1, 0);
  return CouplingGraph(num_qubits, std::move(edges));
}

CouplingGraph CouplingGraph::star(int num_qubits) {
  checked_qubit_count(num_qubits, "CouplingGraph::star");
  std::vector<std::pair<int, int>> edges;
  for (int q = 1; q < num_qubits; ++q) edges.emplace_back(0, q);
  return CouplingGraph(num_qubits, std::move(edges));
}

CouplingGraph CouplingGraph::grid(int rows, int cols) {
  if (rows < 1 || cols < 1) {
    throw std::invalid_argument("CouplingGraph::grid: bad shape");
  }
  checked_qubit_count(std::int64_t{rows} * cols, "CouplingGraph::grid");
  std::vector<std::pair<int, int>> edges;
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return CouplingGraph(rows * cols, std::move(edges));
}

CouplingGraph CouplingGraph::heavy_hex(int distance) {
  if (distance < 1 || distance % 2 == 0) {
    throw std::invalid_argument(
        "CouplingGraph::heavy_hex: code distance must be odd and positive");
  }
  // The rows alone hold d(2d - 1) qubits, so a patch too wide for them is
  // rejected before any edge is built; the constructor adds the bridges.
  const std::int64_t row_qubits =
      std::int64_t{distance} * (2 * std::int64_t{distance} - 1);
  checked_qubit_count(row_qubits, "CouplingGraph::heavy_hex");
  const int d = distance;
  const int width = 2 * d - 1;
  std::vector<std::pair<int, int>> edges;
  auto id = [width](int r, int c) { return r * width + c; };
  for (int r = 0; r < d; ++r) {
    for (int c = 0; c + 1 < width; ++c) {
      edges.emplace_back(id(r, c), id(r, c + 1));
    }
  }
  int next = d * width;
  for (int gap = 0; gap + 1 < d; ++gap) {
    const int offset = gap % 2 == 0 ? 0 : 2;
    for (int c = offset; c < width; c += 4) {
      edges.emplace_back(id(gap, c), next);
      edges.emplace_back(next, id(gap + 1, c));
      ++next;
    }
  }
  return CouplingGraph(next, std::move(edges));
}

CouplingGraph CouplingGraph::induced(const std::vector<int>& qubits) const {
  if (qubits.empty()) {
    throw std::invalid_argument("CouplingGraph::induced: empty qubit set");
  }
  std::vector<bool> seen(static_cast<std::size_t>(num_qubits_), false);
  for (const int q : qubits) {
    if (q < 0 || q >= num_qubits_ || seen[static_cast<std::size_t>(q)]) {
      throw std::invalid_argument(
          "CouplingGraph::induced: qubits must be distinct device ids");
    }
    seen[static_cast<std::size_t>(q)] = true;
  }
  const int k = static_cast<int>(qubits.size());
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (has_edge(qubits[static_cast<std::size_t>(i)],
                   qubits[static_cast<std::size_t>(j)])) {
        edges.emplace_back(i, j);
      }
    }
  }
  return CouplingGraph(k, std::move(edges));
}

std::vector<int> CouplingGraph::connected_superset(
    std::vector<int> qubits) const {
  if (qubits.empty()) {
    throw std::invalid_argument(
        "CouplingGraph::connected_superset: empty qubit set");
  }
  std::sort(qubits.begin(), qubits.end());
  qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());
  for (const int q : qubits) {
    if (q < 0 || q >= num_qubits_) {
      throw std::invalid_argument(
          "CouplingGraph::connected_superset: qubit out of range");
    }
  }
  while (true) {
    // Fragment labels of the induced subgraph on the current set.
    std::vector<int> label(static_cast<std::size_t>(num_qubits_), -1);
    for (const int q : qubits) label[static_cast<std::size_t>(q)] = 0;
    int fragments = 0;
    for (const int seed : qubits) {
      if (label[static_cast<std::size_t>(seed)] != 0) continue;
      ++fragments;
      std::deque<int> queue{seed};
      label[static_cast<std::size_t>(seed)] = fragments;
      while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        for (const int v : adjacency_[static_cast<std::size_t>(u)]) {
          if (label[static_cast<std::size_t>(v)] == 0) {
            label[static_cast<std::size_t>(v)] = fragments;
            queue.push_back(v);
          }
        }
      }
    }
    if (fragments <= 1) break;
    // Join the closest pair of fragments through one shortest path. The
    // distance() call throws for disconnected devices, which is the right
    // failure: no superset can connect them.
    int best_a = -1, best_b = -1, best_d = -1;
    for (const int a : qubits) {
      for (const int b : qubits) {
        if (label[static_cast<std::size_t>(a)] >=
            label[static_cast<std::size_t>(b)]) {
          continue;
        }
        const int dist_ab = distance(a, b);
        if (best_d < 0 || dist_ab < best_d) {
          best_a = a;
          best_b = b;
          best_d = dist_ab;
        }
      }
    }
    QSP_ASSERT(best_a >= 0);
    for (const int q : shortest_path(best_a, best_b)) {
      if (label[static_cast<std::size_t>(q)] <= 0) qubits.push_back(q);
    }
    std::sort(qubits.begin(), qubits.end());
    qubits.erase(std::unique(qubits.begin(), qubits.end()), qubits.end());
  }
  return qubits;
}

void CouplingGraph::compute_distances() {
  const auto n = static_cast<std::size_t>(num_qubits_);
  distance_.assign(n, std::vector<int>(n, -1));
  for (std::size_t s = 0; s < n; ++s) {
    auto& dist = distance_[s];
    dist[s] = 0;
    std::deque<int> queue{static_cast<int>(s)};
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (const int v : adjacency_[static_cast<std::size_t>(u)]) {
        if (dist[static_cast<std::size_t>(v)] < 0) {
          dist[static_cast<std::size_t>(v)] =
              dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
  }
}

void CouplingGraph::compute_steiner_table() {
  // Dreyfus-Wagner over every terminal subset with unit edge weights:
  // dp[mask][v] = fewest edges of a connected subgraph spanning the
  // terminals in `mask` plus vertex v. A tree either branches at v (split
  // of `mask` into two halves both rooted at v) or reaches v by a path
  // from the branching vertex u (dp[mask][u] + dist(u, v)).
  constexpr std::int16_t kUnreached = std::int16_t{0x3FFF};
  const int n = num_qubits_;
  const std::size_t size = std::size_t{1} << n;
  const auto at = [n](std::uint32_t mask, int v) {
    return static_cast<std::size_t>(mask) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(v);
  };
  std::vector<std::int16_t> dp(size * static_cast<std::size_t>(n),
                               kUnreached);
  for (int t = 0; t < n; ++t) {
    for (int v = 0; v < n; ++v) {
      dp[at(1u << t, v)] = static_cast<std::int16_t>(
          distance_[static_cast<std::size_t>(t)][static_cast<std::size_t>(
              v)]);
    }
  }
  std::vector<std::int16_t> best(static_cast<std::size_t>(n));
  for (std::uint32_t mask = 1; mask < size; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // singles are the base case
    const std::uint32_t low = mask & (0u - mask);
    for (int v = 0; v < n; ++v) {
      std::int16_t b = kUnreached;
      for (std::uint32_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        if ((sub & low) == 0) continue;  // count each split once
        const std::int16_t joined = static_cast<std::int16_t>(
            dp[at(sub, v)] + dp[at(mask ^ sub, v)]);
        b = std::min(b, joined);
      }
      best[static_cast<std::size_t>(v)] = b;
    }
    for (int v = 0; v < n; ++v) {
      std::int16_t d = kUnreached;
      for (int u = 0; u < n; ++u) {
        const std::int16_t reached = static_cast<std::int16_t>(
            best[static_cast<std::size_t>(u)] +
            distance_[static_cast<std::size_t>(u)][static_cast<std::size_t>(
                v)]);
        d = std::min(d, reached);
      }
      dp[at(mask, v)] = d;
    }
  }
  steiner_.assign(size, 0);
  for (std::uint32_t mask = 1; mask < size; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;
    const std::uint32_t low = mask & (0u - mask);
    steiner_[mask] = dp[at(mask ^ low, std::countr_zero(low))];
  }
}

std::int64_t CouplingGraph::steiner_edges(std::uint32_t terminals) const {
  if ((terminals >> num_qubits_) != 0) {  // num_qubits_ <= kMaxQubits < 32
    throw std::invalid_argument(
        "CouplingGraph::steiner_edges: terminal beyond the register");
  }
  const int k = popcount(terminals);
  if (k <= 1) return 0;
  if (is_complete()) return k - 1;
  if (!steiner_.empty()) return steiner_[terminals];
  // Fallback for large devices: a connected subgraph spanning k terminals
  // has at least k - 1 edges and contains a path between every terminal
  // pair, so the largest pairwise distance also lower-bounds it.
  std::vector<int> set;
  for (int q = 0; q < num_qubits_; ++q) {
    if ((terminals >> q) & 1u) set.push_back(q);
  }
  std::int64_t bound = k - 1;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      bound = std::max(
          bound, static_cast<std::int64_t>(distance(set[i], set[j])));
    }
  }
  return bound;
}

bool CouplingGraph::has_edge(int a, int b) const {
  if (a < 0 || a >= num_qubits_ || b < 0 || b >= num_qubits_) return false;
  const auto& neighbors = adjacency_[static_cast<std::size_t>(a)];
  return std::binary_search(neighbors.begin(), neighbors.end(), b);
}

int CouplingGraph::distance(int a, int b) const {
  require_device_qubit(a, num_qubits_, "CouplingGraph::distance");
  require_device_qubit(b, num_qubits_, "CouplingGraph::distance");
  const int d = distance_[static_cast<std::size_t>(a)]
                         [static_cast<std::size_t>(b)];
  if (d < 0) {
    throw std::invalid_argument("CouplingGraph: qubits not connected");
  }
  return d;
}

bool CouplingGraph::is_complete() const {
  for (int a = 0; a < num_qubits_; ++a) {
    if (static_cast<int>(adjacency_[static_cast<std::size_t>(a)].size()) !=
        num_qubits_ - 1) {
      return false;
    }
  }
  return true;
}

bool CouplingGraph::is_connected() const {
  const auto& d0 = distance_[0];
  return std::all_of(d0.begin(), d0.end(), [](int d) { return d >= 0; });
}

std::int64_t CouplingGraph::routed_cnot_cost(int control, int target) const {
  const char* caller = "CouplingGraph::routed_cnot_cost";
  require_device_qubit(control, num_qubits_, caller);
  require_device_qubit(target, num_qubits_, caller);
  if (control == target) {
    throw std::invalid_argument(std::string(caller) +
                                ": control equals target");
  }
  const int d = distance(control, target);
  return d == 1 ? 1 : 4 * (static_cast<std::int64_t>(d) - 1);
}

std::int64_t CouplingGraph::routed_rotation_cost(
    const std::vector<ControlLiteral>& controls, int target) const {
  const int c = static_cast<int>(controls.size());
  if (c == 0) return 0;
  // Gray-code lowering: control bit b fires 2^(c-1-b) times; the top bit
  // pays one extra closing CNOT. Sort controls near-to-far so the most
  // frequently used bit is the cheapest.
  std::vector<std::int64_t> per_use;
  per_use.reserve(static_cast<std::size_t>(c));
  for (const ControlLiteral& lit : controls) {
    per_use.push_back(routed_cnot_cost(lit.qubit, target));
  }
  std::sort(per_use.begin(), per_use.end());
  std::int64_t total = 0;
  for (int b = 0; b < c; ++b) {
    const std::int64_t uses =
        (std::int64_t{1} << (c - 1 - b)) + (b == c - 1 ? 1 : 0);
    total += uses * per_use[static_cast<std::size_t>(b)];
  }
  return total;
}

std::vector<int> CouplingGraph::shortest_path(int from, int to) const {
  const int d = distance(from, to);
  std::vector<int> path{from};
  int cur = from;
  for (int step = d; step > 0; --step) {
    for (const int v : adjacency_[static_cast<std::size_t>(cur)]) {
      if (distance(v, to) == step - 1) {
        path.push_back(v);
        cur = v;
        break;
      }
    }
  }
  QSP_ASSERT(cur == to);
  return path;
}

std::string CouplingGraph::fingerprint() const {
  std::ostringstream os;
  os << 'n' << num_qubits_ << ':';
  // Neighbor lists are sorted in the constructor, so this enumeration is
  // already canonical for a given edge set.
  for (int a = 0; a < num_qubits_; ++a) {
    for (const int b : adjacency_[static_cast<std::size_t>(a)]) {
      if (b > a) os << a << '-' << b << ';';
    }
  }
  return os.str();
}

std::string CouplingGraph::to_string() const {
  std::ostringstream os;
  os << "coupling(" << num_qubits_ << " qubits:";
  for (int a = 0; a < num_qubits_; ++a) {
    for (const int b : adjacency_[static_cast<std::size_t>(a)]) {
      if (b > a) os << ' ' << a << '-' << b;
    }
  }
  os << ')';
  return os.str();
}

}  // namespace qsp
