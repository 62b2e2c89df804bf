#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace qsp {
namespace {

Circuit small_circuit() {
  Circuit c(3);
  c.append(Gate::ry(0, 0.5));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cry(1, 2, -0.3));
  return c;
}

TEST(Circuit, AppendAndSize) {
  Circuit c = small_circuit();
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_FALSE(c.empty());
  EXPECT_THROW(c.append(Gate::x(3)), std::invalid_argument);
  EXPECT_THROW(Circuit(0), std::invalid_argument);
}

TEST(Circuit, AppendCircuit) {
  Circuit wide(4);
  wide.append(small_circuit());
  EXPECT_EQ(wide.size(), 3u);
  Circuit narrow(2);
  EXPECT_THROW(narrow.append(small_circuit()), std::invalid_argument);
}

TEST(Circuit, AdjointReversesAndInverts) {
  const Circuit c = small_circuit();
  const Circuit a = c.adjoint();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.gates()[0].kind(), GateKind::kCRy);
  EXPECT_DOUBLE_EQ(a.gates()[0].theta(), 0.3);
  EXPECT_EQ(a.gates()[2].kind(), GateKind::kRy);
  EXPECT_DOUBLE_EQ(a.gates()[2].theta(), -0.5);
  // Involution.
  EXPECT_EQ(a.adjoint(), c);
}

TEST(Circuit, CnotCostUsesTableOne) {
  Circuit c(4);
  c.append(Gate::x(0));                  // 0
  c.append(Gate::ry(1, 1.0));            // 0
  c.append(Gate::cnot(0, 1));            // 1
  c.append(Gate::cry(0, 1, 0.2));        // 2
  c.append(Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, true},
                       ControlLiteral{2, true}},
                      3, 0.1));          // 8
  EXPECT_EQ(c.cnot_cost(), 11);
}

TEST(Circuit, DepthIsZeroWhenEmpty) {
  EXPECT_EQ(Circuit(3).depth(), 0u);
}

TEST(Circuit, DepthPacksDisjointWiresIntoOneLayer) {
  Circuit c(4);
  c.append(Gate::ry(0, 0.1));
  c.append(Gate::ry(1, 0.2));
  c.append(Gate::cnot(2, 3));
  EXPECT_EQ(c.depth(), 1u);
}

TEST(Circuit, DepthStacksSharedWires) {
  Circuit c(3);
  c.append(Gate::cnot(0, 1));  // layer 1
  c.append(Gate::cnot(1, 2));  // layer 2 (shares wire 1)
  c.append(Gate::ry(0, 0.3));  // layer 2 (wire 0 free after layer 1)
  c.append(Gate::x(2));        // layer 3
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, DepthCountsControlWires) {
  Circuit c(4);
  c.append(Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, true}}, 2,
                      0.4));
  c.append(Gate::ry(3, 0.1));  // disjoint: same layer
  c.append(Gate::x(1));        // control wire busy: next layer
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, ToStringListsGates) {
  const std::string s = small_circuit().to_string();
  EXPECT_NE(s.find("Ry(q0"), std::string::npos);
  EXPECT_NE(s.find("CNOT(0 -> q1)"), std::string::npos);
}

TEST(Circuit, DrawProducesOneRowPerQubit) {
  const std::string d = small_circuit().draw();
  int newlines = 0;
  for (const char ch : d) {
    if (ch == '\n') ++newlines;
  }
  EXPECT_EQ(newlines, 3);
  EXPECT_NE(d.find("(+)"), std::string::npos);
  EXPECT_NE(d.find("q2"), std::string::npos);
}

}  // namespace
}  // namespace qsp
