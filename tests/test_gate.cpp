#include "circuit/gate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/cost_model.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/lint.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"

namespace qsp {
namespace {

TEST(Gate, Factories) {
  const Gate x = Gate::x(2);
  EXPECT_EQ(x.kind(), GateKind::kX);
  EXPECT_EQ(x.target(), 2);
  EXPECT_EQ(x.num_controls(), 0);

  const Gate ry = Gate::ry(0, 1.5);
  EXPECT_EQ(ry.kind(), GateKind::kRy);
  EXPECT_DOUBLE_EQ(ry.theta(), 1.5);

  const Gate cx = Gate::cnot(1, 0);
  EXPECT_EQ(cx.kind(), GateKind::kCNOT);
  EXPECT_TRUE(cx.controls()[0].positive);

  const Gate ncx = Gate::cnot(1, 0, /*positive=*/false);
  EXPECT_FALSE(ncx.controls()[0].positive);
}

TEST(Gate, McryDegeneratesToSmallerKinds) {
  EXPECT_EQ(Gate::mcry({}, 0, 0.5).kind(), GateKind::kRy);
  EXPECT_EQ(Gate::mcry({ControlLiteral{1, true}}, 0, 0.5).kind(),
            GateKind::kCRy);
  EXPECT_EQ(
      Gate::mcry({ControlLiteral{1, true}, ControlLiteral{2, false}}, 0, 0.5)
          .kind(),
      GateKind::kMCRy);
}

TEST(Gate, McrySortsControls) {
  const Gate g = Gate::mcry(
      {ControlLiteral{3, false}, ControlLiteral{1, true}}, 0, 0.5);
  EXPECT_EQ(g.controls()[0].qubit, 1);
  EXPECT_EQ(g.controls()[1].qubit, 3);
}

TEST(Gate, Validation) {
  EXPECT_THROW(Gate::x(-1), std::invalid_argument);
  EXPECT_THROW(Gate::cnot(0, 0), std::invalid_argument);
  EXPECT_THROW(
      Gate::mcry({ControlLiteral{1, true}, ControlLiteral{1, false}}, 0, 1.0),
      std::invalid_argument);
  EXPECT_THROW(Gate::ucry({0, 1}, 2, {0.0}), std::invalid_argument);
  EXPECT_THROW(Gate::ucry({0, 2}, 2, {0.0, 0.0, 0.0, 0.0}),
               std::invalid_argument);
}

TEST(Gate, Adjoint) {
  const Gate ry = Gate::ry(0, 0.7);
  EXPECT_DOUBLE_EQ(ry.adjoint().theta(), -0.7);
  const Gate x = Gate::x(1);
  EXPECT_EQ(x.adjoint(), x);
  const Gate cx = Gate::cnot(0, 1);
  EXPECT_EQ(cx.adjoint(), cx);
  const Gate u = Gate::ucry({0}, 1, {0.3, -0.4});
  const Gate ua = u.adjoint();
  EXPECT_DOUBLE_EQ(ua.angles()[0], -0.3);
  EXPECT_DOUBLE_EQ(ua.angles()[1], 0.4);
}

TEST(Gate, Remapped) {
  const Gate g = Gate::mcry(
      {ControlLiteral{0, true}, ControlLiteral{1, false}}, 2, 0.9);
  const Gate r = g.remapped({5, 3, 1});
  EXPECT_EQ(r.target(), 1);
  // The factory's rule holds: controls come back sorted by wire.
  EXPECT_EQ(r.controls()[0], (ControlLiteral{3, false}));
  EXPECT_EQ(r.controls()[1], (ControlLiteral{5, true}));
  EXPECT_THROW(g.remapped({0, 1}), std::invalid_argument);
}

/// One gate of `kind` on wires m[0..3], built by its factory: target m[3],
/// controls drawn from m[0..2].
Gate gate_on_wires(GateKind kind, const std::vector<int>& m) {
  const std::vector<double> table = {0.1, -0.2, 0.3, 0.4};
  switch (kind) {
    case GateKind::kX:
      return Gate::x(m[3]);
    case GateKind::kRy:
      return Gate::ry(m[3], 0.5);
    case GateKind::kCNOT:
      return Gate::cnot(m[0], m[3], /*positive=*/false);
    case GateKind::kCRy:
      return Gate::cry(m[1], m[3], 0.5);
    case GateKind::kMCRy:
      return Gate::mcry({{m[2], true}, {m[0], false}, {m[1], true}}, m[3],
                        0.5);
    case GateKind::kUCRy:
      return Gate::ucry({m[2], m[0]}, m[3], table);
    case GateKind::kRz:
      return Gate::rz(m[3], 0.5);
    case GateKind::kUCRz:
      return Gate::ucrz({m[0], m[1]}, m[3], table);
    case GateKind::kCZ:
      return Gate::cz(m[3], m[0]);
    case GateKind::kISwap:
      return Gate::iswap(m[1], m[3]);
    case GateKind::kRZZ:
      return Gate::rzz(m[3], m[2], 0.5);
  }
  throw std::logic_error("gate_on_wires: unknown kind");
}

// remapped() is the factory applied to the mapped fields: for every kind
// and every injective map the result equals the gate the factory builds
// on the mapped wires, in the factory's canonical form (symmetric pairs
// lower wire first, MCRy controls sorted, UCRy table order kept).
TEST(Gate, RemappedKeepsTheFactoryRules) {
  const std::vector<int> identity = {0, 1, 2, 3};
  const std::vector<std::vector<int>> maps = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {5, 1, 7, 0}, {2, 0, 3, 1}, {9, 8, 6, 4}};
  for (int k = 0; k <= static_cast<int>(GateKind::kRZZ); ++k) {
    const auto kind = static_cast<GateKind>(k);
    const Gate g = gate_on_wires(kind, identity);
    for (const std::vector<int>& map : maps) {
      EXPECT_EQ(g.remapped(map), gate_on_wires(kind, map))
          << g.to_string() << " -> " << g.remapped(map).to_string();
    }
    // A negative entry, or two wires sent to one, throws.
    EXPECT_THROW(g.remapped({0, 1, 2, -1}), std::invalid_argument)
        << g.to_string();
    if (g.qubits().size() > 1) {
      EXPECT_THROW(g.remapped({4, 4, 4, 4}), std::invalid_argument)
          << g.to_string();
    }
  }
  // Only the wires change: the unused theta that adjoint() negates to
  // -0.0 keeps its sign bit, so remapped outputs hash as they did.
  EXPECT_TRUE(std::signbit(Gate::x(0).adjoint().remapped({2}).theta()));
  EXPECT_TRUE(
      std::signbit(Gate::cnot(0, 1).adjoint().remapped({1, 0}).theta()));
}

TEST(Gate, QubitsAndMaxQubit) {
  const Gate g = Gate::mcry(
      {ControlLiteral{4, true}, ControlLiteral{2, true}}, 7, 0.1);
  EXPECT_EQ(g.max_qubit(), 7);
  const auto qs = g.qubits();
  EXPECT_EQ(qs.size(), 3u);
}

TEST(CostModel, TableOne) {
  EXPECT_EQ(gate_cnot_cost(Gate::x(0)), 0);
  EXPECT_EQ(gate_cnot_cost(Gate::ry(0, 1.0)), 0);
  EXPECT_EQ(gate_cnot_cost(Gate::cnot(0, 1)), 1);
  EXPECT_EQ(gate_cnot_cost(Gate::cry(0, 1, 1.0)), 2);
  EXPECT_EQ(gate_cnot_cost(Gate::mcry(
                {ControlLiteral{0, true}, ControlLiteral{1, true}}, 2, 1.0)),
            4);
  EXPECT_EQ(gate_cnot_cost(Gate::mcry({ControlLiteral{0, true},
                                       ControlLiteral{1, true},
                                       ControlLiteral{2, true}},
                                      3, 1.0)),
            8);
  EXPECT_EQ(gate_cnot_cost(Gate::ucry({0, 1, 2}, 3,
                                      std::vector<double>(8, 0.5))),
            8);
  EXPECT_EQ(rotation_cost(0), 0);
  EXPECT_EQ(rotation_cost(1), 2);
  EXPECT_EQ(rotation_cost(5), 32);
}

// One epsilon decides when a rotation is the identity. Every consumer
// must agree on both sides of it: at half the constant the rotation is the
// identity, at twice the constant it is a real rotation.
TEST(Gate, IdentityAngleEpsilonAgreesAcrossConsumers) {
  LoweringOptions elide;
  elide.elide_zero_rotations = true;
  for (const bool identity : {true, false}) {
    const double theta = (identity ? 0.5 : 2.0) * kIdentityAngleEpsilon;
    Circuit circuit(1);
    circuit.append(Gate::ry(0, theta));
    const char* ctx = identity ? "half the epsilon" : "twice the epsilon";

    Circuit swept = circuit;
    EXPECT_EQ(PassPipeline::find("dead-rotation")->run(swept, PassOptions{}),
              identity)
        << ctx;
    EXPECT_EQ(swept.size(), identity ? 0u : 1u) << ctx;

    EXPECT_EQ(lower(circuit, elide).size(), identity ? 0u : 1u) << ctx;

    const LintReport report = lint_circuit(circuit);
    ASSERT_EQ(report.diagnostics.size(), identity ? 1u : 0u) << ctx;
    if (identity) {
      EXPECT_EQ(report.diagnostics.front().rule,
                LintRule::kDegenerateRotation);
    }

    EXPECT_EQ(is_identity_rotation(circuit.gates().front()), identity)
        << ctx;

    DataflowEngine engine(1);
    engine.apply(circuit.gates().front(), 0);
    EXPECT_EQ(engine.wire_constant(0).has_value(), identity) << ctx;
  }
}

}  // namespace
}  // namespace qsp
