#pragma once
// Coupling constraints. The paper's canonicalization assumes "a symmetric
// coupling graph" (Section V-B) and motivates CNOT minimization by the
// coupling constraints CNOTs introduce (Section I). This module makes the
// dependence explicit: a coupling graph with routed CNOT costs, so the
// exact synthesis can optimize for a real topology instead of all-to-all.

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qsp {

class CouplingGraph {
 public:
  /// Build from an explicit undirected edge list (CNOTs run both ways).
  CouplingGraph(int num_qubits, std::vector<std::pair<int, int>> edges);

  static CouplingGraph full(int num_qubits);
  static CouplingGraph line(int num_qubits);
  static CouplingGraph ring(int num_qubits);
  /// Star with qubit 0 at the center.
  static CouplingGraph star(int num_qubits);
  static CouplingGraph grid(int rows, int cols);
  /// IBM-style heavy-hex lattice patch for odd code distance d: d "heavy"
  /// rows of 2d-1 qubits (alternating data/flag wires, consecutive columns
  /// adjacent) joined by bridge qubits every fourth column, with the
  /// bridge columns offset by two between consecutive row gaps — the
  /// Falcon/Eagle degree-<=3 hexagon motif. Row r, column c is qubit
  /// r*(2d-1)+c; bridges are appended after all rows in (gap, column)
  /// order. Throws for even d and for patches beyond kMaxQubits (d <= 3
  /// with the current 24-qubit BasisIndex).
  static CouplingGraph heavy_hex(int distance);

  int num_qubits() const { return num_qubits_; }
  /// True when a and b are adjacent device qubits; false when either is
  /// not a qubit of the device, since no edge reaches a missing wire.
  bool has_edge(int a, int b) const;
  /// BFS hop distance; throws std::invalid_argument if either qubit is
  /// not on the device or the graph is disconnected between a, b.
  int distance(int a, int b) const;
  bool is_complete() const;
  bool is_connected() const;

  /// Induced subgraph on `qubits` (distinct device ids): new qubit i is
  /// device qubit qubits[i]; an edge survives iff both endpoints are kept.
  CouplingGraph induced(const std::vector<int>& qubits) const;

  /// Smallest-effort connected superset of `qubits`: while the induced
  /// subgraph is disconnected, the closest pair of fragments (by device
  /// hop distance, ties toward smaller ids) is joined through one device
  /// shortest path. Returns the chosen device qubits in ascending order.
  /// The result always induces a connected subgraph; used by the workflow
  /// to host an entangled core whose wires are spread across the device.
  std::vector<int> connected_superset(std::vector<int> qubits) const;

  /// Lower bound on the number of edges of any connected subgraph of the
  /// device spanning the `terminals` bitmask (bit q = qubit q): the unit
  /// Steiner-tree size. Exact (Dreyfus-Wagner, precomputed per graph) for
  /// devices up to kSteinerExactQubits; larger devices fall back to
  /// max(k - 1, max pairwise terminal distance), which is still a valid
  /// lower bound. 0 for fewer than two terminals; complete graphs answer
  /// k - 1 without a table.
  std::int64_t steiner_edges(std::uint32_t terminals) const;

  /// Largest device for which steiner_edges is exact.
  static constexpr int kSteinerExactQubits = 12;

  /// Routed CNOT cost: 1 on an edge, else the nearest-neighbour parity
  /// ladder 4*(d - 1) (see routing.hpp). Throws std::invalid_argument
  /// where distance does, and when control equals target.
  std::int64_t routed_cnot_cost(int control, int target) const;

  /// Routed cost of a (multi-)controlled rotation: the gray-code lowering
  /// uses control bit b for 2^(c-1-b) CNOTs (the top bit once more), so
  /// controls are assigned far-to-near to minimize the total.
  std::int64_t routed_rotation_cost(
      const std::vector<ControlLiteral>& controls, int target) const;

  /// Some shortest path between two qubits (inclusive endpoints).
  std::vector<int> shortest_path(int from, int to) const;

  /// Stable identity string: qubit count plus the sorted undirected edge
  /// list. Equal fingerprints imply identical routed-cost surfaces, so the
  /// equivalence cache may share templates across graphs with the same
  /// fingerprint (e.g. identical induced host patches on different
  /// devices).
  std::string fingerprint() const;

  std::string to_string() const;

 private:
  int num_qubits_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<std::vector<int>> distance_;  // -1 = unreachable
  /// steiner_[mask] = exact unit Steiner-tree size for the terminal set
  /// `mask`; empty when the graph is too large, complete, or disconnected.
  std::vector<std::int16_t> steiner_;

  void compute_distances();
  void compute_steiner_table();
};

}  // namespace qsp
