#include "circuit/qasm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "arch/coupling.hpp"
#include "arch/routing.hpp"
#include "pass_test_util.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(Qasm, Header) {
  Circuit c(3);
  const std::string q = to_qasm(c);
  EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(q.find("qreg q[3];"), std::string::npos);
}

TEST(Qasm, PrimitiveGates) {
  Circuit c(2);
  c.append(Gate::x(0));
  c.append(Gate::ry(1, 0.5));
  c.append(Gate::cnot(0, 1));
  const std::string q = to_qasm(c);
  EXPECT_NE(q.find("x q[0];"), std::string::npos);
  EXPECT_NE(q.find("ry(0.5) q[1];"), std::string::npos);
  EXPECT_NE(q.find("cx q[0],q[1];"), std::string::npos);
}

TEST(Qasm, CompositeGatesAreLowered) {
  Circuit c(3);
  c.append(Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, false}}, 2,
                      1.2));
  const std::string q = to_qasm(c);
  // Only primitive mnemonics may appear.
  EXPECT_EQ(q.find("mcry"), std::string::npos);
  EXPECT_NE(q.find("cx q["), std::string::npos);
  // 2 controls -> exactly 4 cx lines.
  int cx = 0;
  for (std::size_t pos = 0; (pos = q.find("cx ", pos)) != std::string::npos;
       ++pos) {
    ++cx;
  }
  EXPECT_EQ(cx, 4);
}

// Satellite property: emit -> parse is the identity on the lowered gate
// list, across the whole random-circuit corpus. Angles are emitted at
// precision 17, so even the parsed doubles must match bit-for-bit.
TEST(Qasm, EmitParseRoundtripIsIdentityOnCorpus) {
  for (const Circuit& circuit : test::random_circuit_corpus()) {
    const Circuit lowered = lower(circuit);
    const Circuit parsed = from_qasm(to_qasm(circuit));
    ASSERT_EQ(parsed.num_qubits(), lowered.num_qubits());
    ASSERT_EQ(parsed.size(), lowered.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      EXPECT_EQ(parsed.gates()[i], lowered.gates()[i])
          << "gate " << i << ": " << parsed.gates()[i].to_string() << " vs "
          << lowered.gates()[i].to_string();
    }
  }
}

// Target-aware twin of the property above: emitting for a backend lowers
// onto its native set, and the parser reads every native mnemonic back,
// so emit -> parse equals lower_onto for all four built-in targets.
TEST(Qasm, TargetAwareEmitParseRoundtripOnCorpus) {
  const auto corpus = test::random_circuit_corpus();
  for (const Target& target : Target::builtin()) {
    for (const Circuit& circuit : corpus) {
      const Circuit lowered = lower_onto(circuit, target);
      const Circuit parsed = from_qasm(to_qasm(circuit, target));
      ASSERT_EQ(parsed, lowered)
          << target.name() << " n=" << circuit.num_qubits();
    }
  }
}

TEST(Qasm, NativeMnemonics) {
  Circuit c(2);
  c.append(Gate::cnot(0, 1));
  EXPECT_NE(to_qasm(c, Target::cz()).find("cz q["), std::string::npos);
  EXPECT_NE(to_qasm(c, Target::iswap()).find("iswap q["), std::string::npos);
  EXPECT_NE(to_qasm(c, Target::rzz()).find("rzz("), std::string::npos);
  // The CNOT-target overload matches the historical emitter exactly.
  EXPECT_EQ(to_qasm(c, Target::cnot()), to_qasm(c));
}

TEST(Qasm, ParsesNativeGates) {
  const Circuit parsed = from_qasm(
      "qreg q[2];\n"
      "cz q[0],q[1];\n"
      "iswap q[1],q[0];\n"
      "rzz(-0.5) q[0],q[1];\n");
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.gates()[0], Gate::cz(0, 1));
  EXPECT_EQ(parsed.gates()[1], Gate::iswap(0, 1));  // canonical wire order
  EXPECT_EQ(parsed.gates()[2], Gate::rzz(0, 1, -0.5));
}

TEST(Qasm, RoundtripCoversRoutedDeviceRegisters) {
  const CouplingGraph device = CouplingGraph::line(5);
  Rng rng(0x9A5);
  for (int i = 0; i < 4; ++i) {
    const Circuit circuit = test::random_coupled_circuit(device, 40, rng);
    const Circuit routed = route_circuit(circuit, device);
    const Circuit parsed = from_qasm(to_qasm(routed));
    EXPECT_EQ(parsed, lower(routed));
    EXPECT_TRUE(respects_coupling(parsed, device));
  }
}

TEST(Qasm, FromQasmRejectsMalformedInput) {
  EXPECT_THROW(from_qasm("x q[0];\n"), std::invalid_argument);  // no qreg
  EXPECT_THROW(from_qasm("qreg q[0];\n"), std::invalid_argument);
  EXPECT_THROW(from_qasm("qreg q[2];\nh q[0];\n"), std::invalid_argument);
  EXPECT_THROW(from_qasm("qreg q[2];\nx q[0]\n"), std::invalid_argument);
  EXPECT_THROW(from_qasm("qreg q[2];\nry() q[0];\n"), std::invalid_argument);
  EXPECT_THROW(from_qasm("qreg q[2];\nqreg q[2];\n"), std::invalid_argument);
  EXPECT_THROW(from_qasm(""), std::invalid_argument);
  // Out-of-register references are rejected by the circuit itself.
  EXPECT_THROW(from_qasm("qreg q[2];\nx q[5];\n"), std::invalid_argument);
  // Indices past the int range must not wrap into valid wires, and an
  // oversized register must not read as empty.
  EXPECT_THROW(from_qasm("qreg q[2];\nx q[4294967296];\n"),
               std::invalid_argument);
  EXPECT_THROW(from_qasm("qreg q[2];\ncx q[4294967297],q[0];\n"),
               std::invalid_argument);
  try {
    from_qasm("qreg q[4000000000];\n");
    ADD_FAILURE() << "oversized qreg accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 24-qubit limit"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("in line 1:"), std::string::npos)
        << e.what();
  }
}

TEST(Qasm, FromQasmSkipsHeadersAndComments) {
  const Circuit parsed = from_qasm(
      "// a comment\n"
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[2];\n"
      "x q[0]; // trailing comment\n"
      "cx q[0],q[1];\n"
      "\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.gates()[0], Gate::x(0));
  EXPECT_EQ(parsed.gates()[1], Gate::cnot(0, 1));
}

TEST(Qasm, NegativeControlUsesXConjugation) {
  Circuit c(2);
  c.append(Gate::cnot(0, 1, /*positive=*/false));
  const std::string q = to_qasm(c);
  int x_count = 0;
  for (std::size_t pos = 0; (pos = q.find("x q[0];", pos)) != std::string::npos;
       ++pos) {
    ++x_count;
  }
  EXPECT_EQ(x_count, 2);
}

}  // namespace
}  // namespace qsp
