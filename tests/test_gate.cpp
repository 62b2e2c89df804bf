#include "circuit/gate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
  // Control order is preserved; only the qubit ids change.
  EXPECT_EQ(r.controls()[0], (ControlLiteral{5, true}));
  EXPECT_EQ(r.controls()[1], (ControlLiteral{3, false}));
  EXPECT_THROW(g.remapped({0, 1}), std::invalid_argument);
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

    DataflowEngine engine(1);
    engine.apply(circuit.gates().front(), 0);
    EXPECT_EQ(engine.wire_constant(0).has_value(), identity) << ctx;
  }
}

}  // namespace
}  // namespace qsp
