#include "circuit/target.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "circuit/cost_model.hpp"
#include "circuit/lowering.hpp"

namespace qsp {
namespace {

TEST(Target, BuiltinListsCnotFirst) {
  const auto& all = Target::builtin();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].name(), "cnot");
  EXPECT_TRUE(all[0].is_cnot());
  EXPECT_EQ(all[1].name(), "cz");
  EXPECT_EQ(all[2].name(), "iswap");
  EXPECT_EQ(all[3].name(), "rzz");
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i].is_cnot()) << all[i].name();
  }
}

TEST(Target, ByNameRoundTripsAndRejectsUnknown) {
  for (const Target& t : Target::builtin()) {
    EXPECT_EQ(Target::by_name(t.name()), t);
  }
  EXPECT_THROW(Target::by_name("sycamore"), std::invalid_argument);
  EXPECT_THROW(Target::by_name(""), std::invalid_argument);
  EXPECT_THROW(Target::by_name("CNOT"), std::invalid_argument);
}

TEST(Target, TwoQubitKindAndNativesPerCnot) {
  EXPECT_EQ(Target::cnot().two_qubit_kind(), GateKind::kCNOT);
  EXPECT_EQ(Target::cz().two_qubit_kind(), GateKind::kCZ);
  EXPECT_EQ(Target::iswap().two_qubit_kind(), GateKind::kISwap);
  EXPECT_EQ(Target::rzz().two_qubit_kind(), GateKind::kRZZ);
  EXPECT_EQ(Target::cnot().natives_per_cnot(), 1);
  EXPECT_EQ(Target::cz().natives_per_cnot(), 1);
  EXPECT_EQ(Target::iswap().natives_per_cnot(), 2);
  EXPECT_EQ(Target::rzz().natives_per_cnot(), 1);
}

TEST(Target, SingleQubitSetNativeEverywhere) {
  for (const Target& t : Target::builtin()) {
    EXPECT_TRUE(t.is_native(Gate::x(0))) << t.name();
    EXPECT_TRUE(t.is_native(Gate::ry(1, 0.3))) << t.name();
    EXPECT_TRUE(t.is_native(Gate::rz(0, -0.7))) << t.name();
  }
}

TEST(Target, TwoQubitNativeOnlyOnOwnBackend) {
  const Gate cx = Gate::cnot(0, 1);
  const Gate cz = Gate::cz(0, 1);
  const Gate is = Gate::iswap(0, 1);
  const Gate zz = Gate::rzz(0, 1, 0.4);
  for (const Target& t : Target::builtin()) {
    EXPECT_EQ(t.is_native(cx), t.two_qubit_kind() == GateKind::kCNOT);
    EXPECT_EQ(t.is_native(cz), t.two_qubit_kind() == GateKind::kCZ);
    EXPECT_EQ(t.is_native(is), t.two_qubit_kind() == GateKind::kISwap);
    EXPECT_EQ(t.is_native(zz), t.two_qubit_kind() == GateKind::kRZZ);
  }
}

TEST(Target, NegativeControlCnotIsNotNative) {
  // The legalized stream carries positive controls only; a negative
  // literal still needs the X-conjugation rewrite.
  EXPECT_FALSE(Target::cnot().is_native(Gate::cnot(0, 1, /*positive=*/false)));
}

TEST(Target, CompositeGatesNeverNative) {
  const Gate cry = Gate::cry(0, 1, 0.5);
  const Gate mcry = Gate::mcry(
      {ControlLiteral{0, true}, ControlLiteral{1, false}}, 2, 0.5);
  const Gate ucry = Gate::ucry({0}, 1, {0.1, 0.2});
  for (const Target& t : Target::builtin()) {
    EXPECT_FALSE(t.is_native(cry)) << t.name();
    EXPECT_FALSE(t.is_native(mcry)) << t.name();
    EXPECT_FALSE(t.is_native(ucry)) << t.name();
  }
}

TEST(Target, IsNativeCircuitHoldsAfterLowering) {
  Circuit c(3);
  c.append(Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, false}}, 2,
                      0.8));
  c.append(Gate::cnot(1, 0, /*positive=*/false));
  c.append(Gate::ucrz({0}, 2, {0.3, -0.4}));
  for (const Target& t : Target::builtin()) {
    EXPECT_FALSE(t.is_native_circuit(c)) << t.name();
    EXPECT_TRUE(t.is_native_circuit(lower_onto(c, t))) << t.name();
  }
}

TEST(Target, TwoQubitGateCountMatchesBackend) {
  Circuit c(3);
  c.append(Gate::cry(0, 1, 0.6));
  c.append(Gate::cnot(1, 2));
  for (const Target& t : Target::builtin()) {
    const Circuit low = lower_onto(c, t);
    EXPECT_EQ(two_qubit_gate_count(low, t),
              3 * static_cast<std::int64_t>(t.natives_per_cnot()))
        << t.name();
  }
}

TEST(Target, TwoQubitGateCountRejectsForeignGates) {
  Circuit cz_circuit(2);
  cz_circuit.append(Gate::cz(0, 1));
  EXPECT_EQ(two_qubit_gate_count(cz_circuit, Target::cz()), 1);
  // Counting a CZ stream against the CNOT (or any other) backend fails
  // loudly instead of silently miscounting.
  EXPECT_THROW(two_qubit_gate_count(cz_circuit, Target::cnot()),
               std::invalid_argument);
  EXPECT_THROW(two_qubit_gate_count(cz_circuit, Target::iswap()),
               std::invalid_argument);
  Circuit composite(2);
  composite.append(Gate::cry(0, 1, 0.4));
  EXPECT_THROW(two_qubit_gate_count(composite, Target::cz()),
               std::invalid_argument);
}

TEST(Target, EqualityCoversKindAndCoupling) {
  EXPECT_EQ(Target::cz(), Target::cz());
  EXPECT_FALSE(Target::cz() == Target::rzz());
  Target coupled = Target::cz();
  coupled.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  EXPECT_FALSE(coupled == Target::cz());
  Target same_device = Target::cz();
  same_device.coupling = coupled.coupling;
  EXPECT_EQ(coupled, same_device);
}

TEST(Target, SymmetricNativesCanonicalizeWireOrder) {
  EXPECT_EQ(Gate::cz(2, 0), Gate::cz(0, 2));
  EXPECT_EQ(Gate::iswap(3, 1), Gate::iswap(1, 3));
  EXPECT_EQ(Gate::rzz(2, 0, 0.9), Gate::rzz(0, 2, 0.9));
  // Canonical layout: lower wire as the positive control literal.
  const Gate g = Gate::cz(4, 2);
  ASSERT_EQ(g.controls().size(), 1u);
  EXPECT_EQ(g.controls()[0].qubit, 2);
  EXPECT_TRUE(g.controls()[0].positive);
  EXPECT_EQ(g.target(), 4);
}

TEST(Target, AdjointOfNatives) {
  // CZ is self-inverse; RZZ negates its angle; iSwap's inverse is outside
  // the gate set and must refuse rather than silently return iSwap.
  EXPECT_EQ(Gate::cz(0, 1).adjoint(), Gate::cz(0, 1));
  EXPECT_EQ(Gate::rzz(0, 1, 0.8).adjoint(), Gate::rzz(0, 1, -0.8));
  EXPECT_THROW(Gate::iswap(0, 1).adjoint(), std::logic_error);
}

TEST(Target, ToStringNamesNatives) {
  EXPECT_EQ(Gate::cz(0, 1).to_string(), "CZ(q0, q1)");
  EXPECT_EQ(Gate::iswap(0, 1).to_string(), "iSWAP(q0, q1)");
  EXPECT_NE(Gate::rzz(0, 1, 0.5).to_string().find("RZZ(q0, q1"),
            std::string::npos);
}

}  // namespace
}  // namespace qsp
