#include "arch/coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arch/routing.hpp"
#include "circuit/lowering.hpp"
#include "core/astar.hpp"
#include "core/exact_synthesizer.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

void expect_same_unitary(const Circuit& a, const Circuit& b, int n) {
  for (BasisIndex x = 0; x < (BasisIndex{1} << n); ++x) {
    std::vector<double> basis(std::size_t{1} << n, 0.0);
    basis[x] = 1.0;
    Statevector sa(QuantumState::from_dense(n, basis));
    Statevector sb(QuantumState::from_dense(n, basis));
    sa.apply(a);
    sb.apply(b);
    for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
      ASSERT_NEAR(sa.amplitudes()[i], sb.amplitudes()[i], 1e-9);
    }
  }
}

TEST(Coupling, FactoriesAndDistances) {
  const CouplingGraph line = CouplingGraph::line(5);
  EXPECT_TRUE(line.has_edge(0, 1));
  EXPECT_FALSE(line.has_edge(0, 2));
  EXPECT_EQ(line.distance(0, 4), 4);
  EXPECT_FALSE(line.is_complete());
  EXPECT_TRUE(line.is_connected());

  const CouplingGraph ring = CouplingGraph::ring(6);
  EXPECT_EQ(ring.distance(0, 3), 3);
  EXPECT_EQ(ring.distance(0, 5), 1);

  const CouplingGraph star = CouplingGraph::star(5);
  EXPECT_EQ(star.distance(1, 4), 2);
  EXPECT_EQ(star.distance(0, 4), 1);

  const CouplingGraph grid = CouplingGraph::grid(2, 3);
  EXPECT_EQ(grid.num_qubits(), 6);
  EXPECT_EQ(grid.distance(0, 5), 3);  // (0,0) -> (1,2)

  EXPECT_TRUE(CouplingGraph::full(4).is_complete());
  EXPECT_THROW(CouplingGraph(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(CouplingGraph(2, {{0, 3}}), std::invalid_argument);
}

TEST(Coupling, OutOfRangeWidthsThrowBeforeAllocating) {
  // Every width here is rejected before an edge list or adjacency table
  // is sized; the large ones would ask for gigabytes otherwise.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (const int n : {-1, 0, kMaxQubits + 1, 100000, kIntMax}) {
    EXPECT_THROW(CouplingGraph(n, {}), std::invalid_argument) << n;
    EXPECT_THROW(CouplingGraph::full(n), std::invalid_argument) << n;
    EXPECT_THROW(CouplingGraph::line(n), std::invalid_argument) << n;
    EXPECT_THROW(CouplingGraph::ring(n), std::invalid_argument) << n;
    EXPECT_THROW(CouplingGraph::star(n), std::invalid_argument) << n;
  }
  // rows * cols past kMaxQubits, and past INT_MAX.
  EXPECT_THROW(CouplingGraph::grid(5, 5), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::grid(1, kMaxQubits + 1), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::grid(100000, 100000), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::grid(kIntMax, kIntMax), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::grid(65536, 65536), std::invalid_argument);
  // Odd distances whose d * (2d - 1) overflows int.
  EXPECT_THROW(CouplingGraph::heavy_hex(46341), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::heavy_hex(kIntMax), std::invalid_argument);
  try {
    (void)CouplingGraph::full(100000);
    ADD_FAILURE() << "full(100000) accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
        << e.what();
  }
  // The widest devices still build.
  EXPECT_EQ(CouplingGraph::full(kMaxQubits).num_qubits(), kMaxQubits);
  EXPECT_EQ(CouplingGraph::grid(4, 6).num_qubits(), kMaxQubits);
  EXPECT_EQ(CouplingGraph(kMaxQubits, {}).num_qubits(), kMaxQubits);
}

TEST(Coupling, DisconnectedGraphDetected) {
  const CouplingGraph g(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.is_connected());
  EXPECT_THROW(g.distance(0, 2), std::invalid_argument);
}

TEST(Coupling, HeavyHexFactory) {
  // d = 3: three heavy rows of five qubits (ids 0-4, 5-9, 10-14) plus
  // bridges 15 (gap 0, col 0), 16 (gap 0, col 4), 17 (gap 1, col 2).
  const CouplingGraph hh = CouplingGraph::heavy_hex(3);
  EXPECT_EQ(hh.num_qubits(), 18);
  EXPECT_TRUE(hh.is_connected());
  EXPECT_FALSE(hh.is_complete());
  EXPECT_TRUE(hh.has_edge(0, 1));
  EXPECT_TRUE(hh.has_edge(0, 15));
  EXPECT_TRUE(hh.has_edge(15, 5));
  EXPECT_TRUE(hh.has_edge(4, 16));
  EXPECT_TRUE(hh.has_edge(16, 9));
  EXPECT_TRUE(hh.has_edge(7, 17));
  EXPECT_TRUE(hh.has_edge(17, 12));
  EXPECT_FALSE(hh.has_edge(0, 5));  // rows only meet through bridges
  // Heavy-hex is degree <= 3 everywhere.
  for (int q = 0; q < hh.num_qubits(); ++q) {
    int degree = 0;
    for (int p = 0; p < hh.num_qubits(); ++p) {
      if (p != q && hh.has_edge(q, p)) ++degree;
    }
    EXPECT_LE(degree, 3) << "qubit " << q;
  }
  // (0,0) -> (2,0): down bridge 15, across row 1 to col 2, down bridge
  // 17, back across row 2.
  EXPECT_EQ(hh.distance(0, 10), 8);
  EXPECT_EQ(hh.distance(0, 9), 6);  // 0-15-5-6-7-8-9
  EXPECT_EQ(CouplingGraph::heavy_hex(1).num_qubits(), 1);
  EXPECT_THROW(CouplingGraph::heavy_hex(2), std::invalid_argument);
  EXPECT_THROW(CouplingGraph::heavy_hex(0), std::invalid_argument);
  // d = 5 would need 45+ qubits, beyond kMaxQubits.
  EXPECT_THROW(CouplingGraph::heavy_hex(5), std::invalid_argument);
}

TEST(Coupling, InducedSubgraph) {
  const CouplingGraph hh = CouplingGraph::heavy_hex(3);
  // The 7-qubit hook: row-0 prefix, bridge 15, row-1 prefix.
  const CouplingGraph hook = hh.induced({0, 1, 2, 5, 6, 7, 15});
  EXPECT_EQ(hook.num_qubits(), 7);
  EXPECT_TRUE(hook.is_connected());
  // New ids follow the argument order: 0,1,2 -> 0,1,2; 5,6,7 -> 3,4,5;
  // 15 -> 6.
  EXPECT_TRUE(hook.has_edge(0, 1));
  EXPECT_TRUE(hook.has_edge(1, 2));
  EXPECT_TRUE(hook.has_edge(0, 6));
  EXPECT_TRUE(hook.has_edge(6, 3));
  EXPECT_TRUE(hook.has_edge(3, 4));
  EXPECT_TRUE(hook.has_edge(4, 5));
  EXPECT_FALSE(hook.has_edge(2, 5));
  EXPECT_THROW(hh.induced({}), std::invalid_argument);
  EXPECT_THROW(hh.induced({0, 0}), std::invalid_argument);
  EXPECT_THROW(hh.induced({99}), std::invalid_argument);
  // Induced subgraphs may be disconnected; that is the caller's problem.
  EXPECT_FALSE(hh.induced({0, 10}).is_connected());
}

TEST(Coupling, ConnectedSuperset) {
  const CouplingGraph line = CouplingGraph::line(6);
  EXPECT_EQ(line.connected_superset({0, 5}),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(line.connected_superset({2, 3}), (std::vector<int>{2, 3}));
  EXPECT_EQ(line.connected_superset({4}), (std::vector<int>{4}));

  const CouplingGraph star = CouplingGraph::star(5);
  EXPECT_EQ(star.connected_superset({1, 4}), (std::vector<int>{0, 1, 4}));

  const CouplingGraph grid = CouplingGraph::grid(2, 3);
  // Corners (0,0) and (1,2): one shortest path is added, nothing more.
  const std::vector<int> hosted = grid.connected_superset({0, 5});
  EXPECT_EQ(hosted.size(), 4u);
  EXPECT_TRUE(grid.induced(hosted).is_connected());

  const CouplingGraph hh = CouplingGraph::heavy_hex(3);
  for (const std::vector<int>& seed :
       {std::vector<int>{0, 14}, std::vector<int>{0, 9, 10},
        std::vector<int>{2, 12}}) {
    const std::vector<int> host = hh.connected_superset(seed);
    EXPECT_TRUE(hh.induced(host).is_connected());
    for (const int q : seed) {
      EXPECT_NE(std::find(host.begin(), host.end(), q), host.end());
    }
  }
  EXPECT_THROW(line.connected_superset({}), std::invalid_argument);
  EXPECT_THROW(line.connected_superset({7}), std::invalid_argument);
  // No superset can connect fragments of a disconnected device.
  const CouplingGraph split(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(split.connected_superset({0, 3}), std::invalid_argument);
}

namespace steiner_reference {

/// Brute-force unit Steiner size: min over every Steiner-vertex subset W
/// of the metric-closure MST of terminals + W (exact for these sizes).
int brute_force(const CouplingGraph& g, std::uint32_t terminals) {
  const int n = g.num_qubits();
  std::vector<int> base;
  for (int q = 0; q < n; ++q) {
    if ((terminals >> q) & 1u) base.push_back(q);
  }
  if (base.size() <= 1) return 0;
  std::uint32_t rest = 0;
  for (int q = 0; q < n; ++q) {
    if (((terminals >> q) & 1u) == 0) rest |= 1u << q;
  }
  int best = std::numeric_limits<int>::max();
  for (std::uint32_t w = rest;; w = (w - 1) & rest) {
    std::vector<int> nodes = base;
    for (int q = 0; q < n; ++q) {
      if ((w >> q) & 1u) nodes.push_back(q);
    }
    // Prim over the metric closure.
    std::vector<bool> in_tree(nodes.size(), false);
    std::vector<int> cost(nodes.size(), std::numeric_limits<int>::max());
    cost[0] = 0;
    int total = 0;
    for (std::size_t round = 0; round < nodes.size(); ++round) {
      std::size_t pick = nodes.size();
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!in_tree[i] && (pick == nodes.size() || cost[i] < cost[pick])) {
          pick = i;
        }
      }
      in_tree[pick] = true;
      total += cost[pick];
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (!in_tree[i]) {
          cost[i] = std::min(cost[i], g.distance(nodes[pick], nodes[i]));
        }
      }
    }
    best = std::min(best, total);
    if (w == 0) break;
  }
  return best;
}

}  // namespace steiner_reference

TEST(Coupling, SteinerEdgesKnownValues) {
  const CouplingGraph line = CouplingGraph::line(5);
  EXPECT_EQ(line.steiner_edges(0), 0);
  EXPECT_EQ(line.steiner_edges(0b00001), 0);
  EXPECT_EQ(line.steiner_edges(0b10001), 4);  // whole line
  EXPECT_EQ(line.steiner_edges(0b10101), 4);  // interior terminal is free
  EXPECT_EQ(line.steiner_edges(0b00011), 1);

  const CouplingGraph star = CouplingGraph::star(5);
  EXPECT_EQ(star.steiner_edges(0b11110), 4);  // leaves need the center
  EXPECT_EQ(star.steiner_edges(0b00110), 2);

  const CouplingGraph grid = CouplingGraph::grid(2, 3);
  EXPECT_EQ(grid.steiner_edges(0b101101), 4);  // all four corners

  EXPECT_EQ(CouplingGraph::full(6).steiner_edges(0b111000), 2);
  EXPECT_THROW(line.steiner_edges(0b100000), std::invalid_argument);
}

TEST(Coupling, SteinerEdgesMatchesBruteForce) {
  Rng rng(71);
  std::vector<CouplingGraph> graphs;
  graphs.push_back(CouplingGraph::line(6));
  graphs.push_back(CouplingGraph::ring(6));
  graphs.push_back(CouplingGraph::star(6));
  graphs.push_back(CouplingGraph::grid(2, 3));
  // Random connected graphs: a random spanning tree plus extra edges.
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 5 + static_cast<int>(rng.next_below(2));
    std::vector<std::pair<int, int>> edges;
    for (int q = 1; q < n; ++q) {
      edges.emplace_back(q, static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(q))));
    }
    for (int extra = 0; extra < 2; ++extra) {
      const int a =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const int b =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (a != b) edges.emplace_back(a, b);
    }
    graphs.emplace_back(n, std::move(edges));
  }
  for (const CouplingGraph& g : graphs) {
    const std::uint32_t all = (1u << g.num_qubits()) - 1;
    for (std::uint32_t mask = 0; mask <= all; ++mask) {
      ASSERT_EQ(g.steiner_edges(mask), steiner_reference::brute_force(g, mask))
          << g.to_string() << " mask " << mask;
    }
  }
}

TEST(Coupling, RoutedCnotCost) {
  const CouplingGraph line = CouplingGraph::line(6);
  EXPECT_EQ(line.routed_cnot_cost(0, 1), 1);
  EXPECT_EQ(line.routed_cnot_cost(0, 2), 4);
  EXPECT_EQ(line.routed_cnot_cost(0, 3), 8);
  EXPECT_EQ(line.routed_cnot_cost(0, 5), 16);
}

TEST(Coupling, RoutedRotationPrefersNearControls) {
  const CouplingGraph line = CouplingGraph::line(6);
  std::vector<ControlLiteral> controls{{0, true}, {1, true}, {4, true}};
  const std::int64_t cost = line.routed_rotation_cost(controls, 2);
  // Distances to target 2: q0 at 2 hops (routed cost 4), q1 adjacent
  // (cost 1), q4 at 2 hops (cost 4). Gray-code uses per bit for c = 3:
  // bit0 fires 4x, bit1 2x, bit2 1x + the closing CNOT = 2x. Near-first
  // assignment: 4*1 + 2*4 + 2*4 = 20.
  EXPECT_EQ(cost, 20);
  // A far control on the frequent bit would cost 4*4 + 2*4 + 2*1 = 26;
  // the model must beat that.
  EXPECT_LT(cost, 26);
}

TEST(Routing, LongRangeCnotLadder) {
  // The 4(d-1) parity ladder must equal a plain CNOT for d = 2..4.
  for (int d = 2; d <= 4; ++d) {
    const int n = d + 1;
    const CouplingGraph line = CouplingGraph::line(n);
    Circuit logical(n);
    logical.append(Gate::cnot(0, n - 1));
    const Circuit routed = route_circuit(logical, line);
    EXPECT_TRUE(respects_coupling(routed, line));
    EXPECT_EQ(lowered_cnot_count(routed), 4 * (d - 1));
    expect_same_unitary(logical, routed, n);
  }
}

TEST(Routing, NegativeControlLongRange) {
  const CouplingGraph line = CouplingGraph::line(3);
  Circuit logical(3);
  logical.append(Gate::cnot(0, 2, /*positive=*/false));
  const Circuit routed = route_circuit(logical, line);
  EXPECT_TRUE(respects_coupling(routed, line));
  expect_same_unitary(logical, routed, 3);
}

TEST(Routing, McryRoutedCostMatchesModel) {
  // The routed circuit's CNOT count must equal the cost model the search
  // uses (this also pins the near-control-first reordering).
  Rng rng(61);
  const CouplingGraph line = CouplingGraph::line(5);
  for (int trial = 0; trial < 8; ++trial) {
    const int target = static_cast<int>(rng.next_below(5));
    std::vector<ControlLiteral> controls;
    for (int q = 0; q < 5; ++q) {
      if (q != target && rng.next_bool(0.6)) {
        controls.push_back(ControlLiteral{q, rng.next_bool()});
      }
    }
    if (controls.size() < 2) continue;
    Circuit logical(5);
    logical.append(Gate::mcry(controls, target, rng.next_double(-2, 2)));
    const Circuit routed = route_circuit(logical, line);
    EXPECT_TRUE(respects_coupling(routed, line));
    EXPECT_EQ(lowered_cnot_count(routed),
              line.routed_rotation_cost(controls, target));
    expect_same_unitary(logical, routed, 5);
  }
}

TEST(Routing, ReorderUcryControlsPreservesUnitary) {
  Rng rng(62);
  std::vector<double> angles(8);
  for (double& a : angles) a = rng.next_double(-2, 2);
  Circuit original(4);
  original.append(Gate::ucry({0, 1, 2}, 3, angles));
  Circuit reordered(4);
  reordered.append(
      reorder_ucry_controls(original.gates()[0], {2, 0, 1}));
  expect_same_unitary(original, reordered, 4);
  EXPECT_THROW(reorder_ucry_controls(original.gates()[0], {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(reorder_ucry_controls(original.gates()[0], {0, 1, 3}),
               std::invalid_argument);
}

TEST(CouplingSearch, GhzOnLineIsChainOfNeighbours) {
  SearchOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(4));
  const AStarSynthesizer synth(options);
  const QuantumState ghz = make_ghz(4);
  const SynthesisResult res = synth.synthesize(ghz);
  ASSERT_TRUE(res.found);
  // The neighbour chain costs 3 even on a line.
  EXPECT_EQ(res.cnot_cost, 3);
  verify_preparation_or_throw(res.circuit, ghz);
  const Circuit routed = route_circuit(res.circuit, *options.coupling);
  EXPECT_TRUE(respects_coupling(routed, *options.coupling));
  EXPECT_EQ(lowered_cnot_count(routed), res.cnot_cost);
}

TEST(CouplingSearch, RoutedCostMatchesSearchCost) {
  // End-to-end agreement: whatever the search reports must equal the CNOT
  // count of the routed circuit.
  Rng rng(63);
  SearchOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(4));
  const AStarSynthesizer synth(options);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 4, rng);
    const SynthesisResult res = synth.synthesize(target);
    ASSERT_TRUE(res.found);
    verify_preparation_or_throw(res.circuit, target);
    const Circuit routed = route_circuit(res.circuit, *options.coupling);
    EXPECT_TRUE(respects_coupling(routed, *options.coupling));
    EXPECT_EQ(lowered_cnot_count(routed), res.cnot_cost)
        << target.to_string();
    // The routed circuit still prepares the state.
    verify_preparation_or_throw(routed, target);
  }
}

TEST(Routing, WiderDeviceThanCircuit) {
  // Regression: a 2-qubit CNOT routed on a 3-qubit star centered at qubit
  // 2 must traverse the center, which lies above the logical register.
  // The routed output is sized by the device, with the extra qubit acting
  // as an ancilla that returns to |0>.
  const CouplingGraph star_center_2(3, {{0, 2}, {1, 2}});
  Circuit logical(2);
  logical.append(Gate::cnot(0, 1));
  const Circuit routed = route_circuit(logical, star_center_2);
  EXPECT_EQ(routed.num_qubits(), 3);
  EXPECT_TRUE(respects_coupling(routed, star_center_2));
  EXPECT_EQ(lowered_cnot_count(routed), 4);  // distance 2 -> 4(d-1)
  Circuit embedded(3);
  embedded.append(logical);
  expect_same_unitary(embedded, routed, 3);
}

TEST(Routing, RespectsCouplingRequiresNativeGates) {
  const CouplingGraph line = CouplingGraph::line(3);
  // An un-lowered single-control rotation is not native even on an edge.
  Circuit cry(3);
  cry.append(Gate::cry(0, 1, 0.7));
  EXPECT_FALSE(respects_coupling(cry, line));
  Circuit mcry(3);
  mcry.append(Gate::mcry({{0, true}, {2, true}}, 1, 0.7));
  EXPECT_FALSE(respects_coupling(mcry, line));
  // Negative controls are not native either; lowering removes them.
  Circuit negative(3);
  negative.append(Gate::cnot(0, 1, /*positive=*/false));
  EXPECT_FALSE(respects_coupling(negative, line));
  EXPECT_TRUE(respects_coupling(lower(negative), line));
  // 1-qubit gates and on-edge CNOTs pass.
  Circuit native(3);
  native.append(Gate::x(0));
  native.append(Gate::ry(2, 0.3));
  native.append(Gate::cnot(1, 2));
  EXPECT_TRUE(respects_coupling(native, line));
  Circuit off_edge(3);
  off_edge.append(Gate::cnot(0, 2));
  EXPECT_FALSE(respects_coupling(off_edge, line));
}

TEST(Routing, RandomCircuitsConformAndVerifyOnEveryTopology) {
  // Property: routing any logical circuit onto any topology yields a
  // conformant circuit preparing the same state (device qubits above the
  // logical register are ancillas and must return to |0>).
  Rng rng(65);
  std::vector<std::pair<std::string, CouplingGraph>> devices;
  devices.emplace_back("line5", CouplingGraph::line(5));
  devices.emplace_back("ring5", CouplingGraph::ring(5));
  devices.emplace_back("star5", CouplingGraph::star(5));
  devices.emplace_back("grid23", CouplingGraph::grid(2, 3));
  devices.emplace_back("heavy_hex7",
                       CouplingGraph::heavy_hex(3).induced(
                           {0, 1, 2, 5, 6, 7, 15}));
  const int n = 4;  // logical register, strictly narrower than any device
  for (int trial = 0; trial < 6; ++trial) {
    Circuit logical(n);
    const int gates = 6 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < gates; ++i) {
      const int target = static_cast<int>(rng.next_below(n));
      switch (rng.next_below(5)) {
        case 0:
          logical.append(Gate::x(target));
          break;
        case 1:
          logical.append(Gate::ry(target, rng.next_double(-2, 2)));
          break;
        case 2: {
          const int control = static_cast<int>(rng.next_below(n));
          if (control != target) {
            logical.append(Gate::cnot(control, target, rng.next_bool()));
          }
          break;
        }
        case 3: {
          const int control = static_cast<int>(rng.next_below(n));
          if (control != target) {
            logical.append(Gate::cry(control, target,
                                     rng.next_double(-2, 2),
                                     rng.next_bool()));
          }
          break;
        }
        default: {
          std::vector<ControlLiteral> controls;
          for (int q = 0; q < n; ++q) {
            if (q != target && rng.next_bool(0.6)) {
              controls.push_back(ControlLiteral{q, rng.next_bool()});
            }
          }
          if (controls.size() >= 2) {
            logical.append(
                Gate::mcry(controls, target, rng.next_double(-2, 2)));
          }
          break;
        }
      }
    }
    // The state the logical circuit prepares from |0...0>.
    Statevector sv(n);
    sv.apply(logical);
    const QuantumState prepared =
        QuantumState::from_dense(n, sv.amplitudes());
    for (const auto& [name, device] : devices) {
      const Circuit routed = route_circuit(logical, device);
      EXPECT_EQ(routed.num_qubits(), device.num_qubits()) << name;
      EXPECT_TRUE(respects_coupling(routed, device)) << name;
      const auto v = verify_preparation(routed, prepared);
      EXPECT_TRUE(v.ok) << name << ": " << v.message;
    }
  }
}

TEST(CouplingSearch, DisconnectedCouplingRejectedUpFront) {
  SearchOptions options;
  options.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph(4, {{0, 1}, {2, 3}}));
  EXPECT_THROW(AStarSynthesizer{options}, std::invalid_argument);
  options.num_threads = 4;
  EXPECT_THROW(AStarSynthesizer{options}, std::invalid_argument);
  ExactSynthesisOptions exact;
  exact.astar.coupling = options.coupling;
  EXPECT_THROW(ExactSynthesizer{exact}, std::invalid_argument);
  BeamOptions beam;
  beam.coupling = options.coupling;
  EXPECT_THROW(BeamSynthesizer{beam}, std::invalid_argument);
}

TEST(CouplingSearch, RoutedHeuristicKeepsDijkstraOptimum) {
  // Admissibility corpus: the coupling-aware component heuristic must
  // return exactly the optimal routed cost that an uninformed search
  // (kZero = Dijkstra) certifies, at 1 and at 4 threads, while never
  // expanding more nodes serially. The spread-out Bell products are the
  // instances where the routed bound really bites.
  Rng rng(66);
  std::vector<std::pair<std::string, std::shared_ptr<CouplingGraph>>>
      devices;
  devices.emplace_back(
      "line4", std::make_shared<CouplingGraph>(CouplingGraph::line(4)));
  devices.emplace_back(
      "star4", std::make_shared<CouplingGraph>(CouplingGraph::star(4)));
  devices.emplace_back(
      "ring5", std::make_shared<CouplingGraph>(CouplingGraph::ring(5)));
  devices.emplace_back(
      "grid23", std::make_shared<CouplingGraph>(CouplingGraph::grid(2, 3)));
  std::vector<std::pair<std::string, QuantumState>> cases;
  cases.emplace_back("ghz4", make_ghz(4));
  cases.emplace_back("parity4",
                     make_uniform(4, {0b0000, 0b0011, 0b0101, 0b0110}));
  cases.emplace_back("bell03x12",
                     make_uniform(4, {0b0000, 0b1001, 0b0110, 0b1111}));
  for (int i = 0; i < 3; ++i) {
    cases.emplace_back("rand4#" + std::to_string(i),
                       make_random_uniform(4, 4, rng));
  }
  std::uint64_t expanded_zero = 0;
  std::uint64_t expanded_aware = 0;
  for (const auto& [device_name, device] : devices) {
    for (const auto& [case_name, state] : cases) {
      SearchOptions zero;
      zero.coupling = device;
      zero.heuristic = HeuristicMode::kZero;
      const SynthesisResult base = AStarSynthesizer(zero).synthesize(state);
      ASSERT_TRUE(base.found && base.optimal)
          << device_name << "/" << case_name;

      SearchOptions aware;
      aware.coupling = device;
      const SynthesisResult res = AStarSynthesizer(aware).synthesize(state);
      ASSERT_TRUE(res.found && res.optimal)
          << device_name << "/" << case_name;
      EXPECT_EQ(res.cnot_cost, base.cnot_cost)
          << device_name << "/" << case_name;
      EXPECT_LE(res.stats.nodes_expanded, base.stats.nodes_expanded)
          << device_name << "/" << case_name;
      verify_preparation_or_throw(res.circuit, state);
      expanded_zero += base.stats.nodes_expanded;
      expanded_aware += res.stats.nodes_expanded;

      SearchOptions parallel = aware;
      parallel.num_threads = 4;
      const SynthesisResult par =
          AStarSynthesizer(parallel).synthesize(state);
      ASSERT_TRUE(par.found && par.optimal)
          << device_name << "/" << case_name;
      EXPECT_EQ(par.cnot_cost, base.cnot_cost)
          << device_name << "/" << case_name;
    }
  }
  // The routed bound must actually prune somewhere on this corpus.
  EXPECT_LT(expanded_aware, expanded_zero);
}

TEST(CouplingSearch, LineNeverCheaperThanFull) {
  Rng rng(64);
  SearchOptions full_opts;
  SearchOptions line_opts;
  line_opts.coupling =
      std::make_shared<CouplingGraph>(CouplingGraph::line(4));
  const AStarSynthesizer full_synth(full_opts);
  const AStarSynthesizer line_synth(line_opts);
  for (int trial = 0; trial < 6; ++trial) {
    const QuantumState target = make_random_uniform(4, 5, rng);
    const SynthesisResult f = full_synth.synthesize(target);
    const SynthesisResult l = line_synth.synthesize(target);
    ASSERT_TRUE(f.found && l.found);
    EXPECT_GE(l.cnot_cost, f.cnot_cost);
    verify_preparation_or_throw(l.circuit, target);
  }
}

}  // namespace
}  // namespace qsp
