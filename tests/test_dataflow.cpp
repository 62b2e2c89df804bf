// Property and regression tests for the flow-sensitive dataflow engine
// (circuit/dataflow.hpp): exact transfer-function facts on handcrafted
// circuits, the exported-invariant cross-check against the statevector
// simulators on the seeded random corpora (every support basis state must
// lie in the affine image the forms describe, separability claims must
// match reduced-density purity), routed device-register certification
// (QL014), and the dataflow-simplify pass (soundness + monotonicity).

#include <complex>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "arch/coupling.hpp"
#include "arch/routing.hpp"
#include "circuit/dataflow.hpp"
#include "circuit/pass_pipeline.hpp"
#include "flow/solver.hpp"
#include "pass_test_util.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

using test::CorpusOptions;
using test::random_circuit;
using test::random_circuit_corpus;

constexpr double kSupportTol = 1e-18;

const WireFact& fact_of(const WireFacts& facts, int wire) {
  return facts.wires[static_cast<std::size_t>(wire)];
}

std::vector<LintRule> rules_of(const LintReport& report) {
  std::vector<LintRule> rules;
  for (const LintDiagnostic& d : report.diagnostics) rules.push_back(d.rule);
  return rules;
}

/// GF(2) solvability of {mask_q . x = rhs_q}: the support-membership
/// check behind the exported invariant. Rows are (mask words, rhs bit);
/// plain Gaussian elimination.
bool affine_system_solvable(
    const std::vector<std::pair<std::vector<std::uint64_t>, bool>>& rows_in) {
  auto rows = rows_in;
  std::size_t words = 0;
  for (const auto& row : rows) words = std::max(words, row.first.size());
  for (auto& row : rows) row.first.resize(words, 0);
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < words * 64 && pivot_row < rows.size();
       ++col) {
    const std::size_t word = col / 64;
    const std::uint64_t bit = std::uint64_t{1} << (col % 64);
    std::size_t found = rows.size();
    for (std::size_t r = pivot_row; r < rows.size(); ++r) {
      if ((rows[r].first[word] & bit) != 0) {
        found = r;
        break;
      }
    }
    if (found == rows.size()) continue;
    std::swap(rows[pivot_row], rows[found]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == pivot_row || (rows[r].first[word] & bit) == 0) continue;
      for (std::size_t w = 0; w < words; ++w) {
        rows[r].first[w] ^= rows[pivot_row].first[w];
      }
      rows[r].second = rows[r].second != rows[pivot_row].second;
    }
    ++pivot_row;
  }
  // Inconsistent iff some all-zero row demands rhs 1.
  for (const auto& row : rows) {
    bool zero = true;
    for (const std::uint64_t w : row.first) zero = zero && w == 0;
    if (zero && row.second) return false;
  }
  return true;
}

/// Tr(rho^2) of wire q's reduced density matrix; 1 iff the wire is in a
/// pure (unentangled) single-qubit state.
double reduced_purity(const std::vector<std::complex<double>>& amp, int q) {
  const std::size_t stride = std::size_t{1} << q;
  std::complex<double> rho01 = 0.0;
  double rho00 = 0.0;
  double rho11 = 0.0;
  for (std::size_t i = 0; i < amp.size(); ++i) {
    if ((i & stride) != 0) continue;
    rho00 += std::norm(amp[i]);
    rho11 += std::norm(amp[i | stride]);
    rho01 += amp[i] * std::conj(amp[i | stride]);
  }
  return rho00 * rho00 + rho11 * rho11 + 2.0 * std::norm(rho01);
}

/// Check every exported fact of `facts` against a full simulation of
/// `circuit`: support membership in the affine image (which subsumes the
/// constant and parity claims), the claims themselves directly, and
/// reduced-density purity for every provably-separable wire.
void expect_facts_sound(const Circuit& circuit, const WireFacts& facts,
                        const char* label) {
  ComplexStatevector sv(circuit.num_qubits());
  sv.apply(circuit);
  const auto& amp = sv.amplitudes();
  const int n = circuit.num_qubits();
  for (std::size_t state = 0; state < amp.size(); ++state) {
    if (std::norm(amp[state]) <= kSupportTol) continue;
    std::vector<std::pair<std::vector<std::uint64_t>, bool>> rows;
    rows.reserve(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) {
      const AffineForm& form = fact_of(facts, q).form;
      const bool bit = ((state >> q) & 1) != 0;
      rows.emplace_back(form.mask, bit != form.offset);
      // Constant claims, directly.
      if (form.is_constant()) {
        EXPECT_EQ(bit, form.constant_value())
            << label << ": wire " << q << " claimed constant, state "
            << state;
      }
      // Parity claims, directly.
      const int partner = fact_of(facts, q).parity_partner;
      if (partner >= 0) {
        const bool pbit = ((state >> partner) & 1) != 0;
        EXPECT_EQ(bit == pbit, fact_of(facts, q).parity_equal)
            << label << ": wires " << q << "/" << partner
            << " parity claim violated on state " << state;
      }
    }
    EXPECT_TRUE(affine_system_solvable(rows))
        << label << ": support state " << state
        << " outside the affine image\n"
        << facts.to_string();
  }
  for (int q = 0; q < n; ++q) {
    const WireFact& fact = fact_of(facts, q);
    if (fact.group_size == 1) {
      EXPECT_NEAR(reduced_purity(amp, q), 1.0, 1e-9)
          << label << ": wire " << q
          << " claimed separable but is entangled\n"
          << facts.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Transfer-function unit tests
// ---------------------------------------------------------------------------

TEST(Dataflow, InitialStateAllZero) {
  const Circuit circuit(3);
  const WireFacts facts = analyze_circuit(circuit);
  EXPECT_EQ(facts.num_qubits, 3);
  EXPECT_EQ(facts.num_variables, 0);
  for (int q = 0; q < 3; ++q) {
    EXPECT_EQ(fact_of(facts, q).kind, WireKind::kZero);
    EXPECT_EQ(fact_of(facts, q).group_size, 1);
  }
}

TEST(Dataflow, XAndCnotConstantPropagation) {
  Circuit circuit(3);
  circuit.append(Gate::x(0));            // q0 = 1
  circuit.append(Gate::cnot(0, 1));      // fires: q1 = 1
  circuit.append(Gate::cnot(2, 0));      // q2 = 0: dead
  const WireFacts facts = analyze_circuit(circuit);
  EXPECT_EQ(fact_of(facts, 0).kind, WireKind::kOne);
  EXPECT_EQ(fact_of(facts, 1).kind, WireKind::kOne);
  EXPECT_EQ(fact_of(facts, 2).kind, WireKind::kZero);

  DataflowEngine engine(3);
  engine.apply(Gate::x(0), 0);
  const GateVerdict demote = engine.apply(Gate::cnot(0, 1), 1);
  EXPECT_EQ(demote.action, GateVerdict::Action::kReplace);
  ASSERT_TRUE(demote.replacement.has_value());
  EXPECT_EQ(demote.replacement->kind(), GateKind::kX);
  EXPECT_EQ(demote.replacement->target(), 1);
  const GateVerdict dead = engine.apply(Gate::cnot(2, 0), 2);
  EXPECT_EQ(dead.action, GateVerdict::Action::kDrop);
  // Negative polarity flips both cases: a |0> control fires, a |1>
  // control is dead.
  DataflowEngine neg(2);
  const GateVerdict neg_fires = neg.apply(Gate::cnot(0, 1, false), 0);
  EXPECT_EQ(neg_fires.action, GateVerdict::Action::kReplace);
  DataflowEngine neg2(2);
  neg2.apply(Gate::x(0), 0);
  const GateVerdict neg_dead = neg2.apply(Gate::cnot(0, 1, false), 1);
  EXPECT_EQ(neg_dead.action, GateVerdict::Action::kDrop);
}

TEST(Dataflow, GhzParityLinkage) {
  Circuit circuit(3);
  circuit.append(Gate::ry(0, 1.1));
  circuit.append(Gate::cnot(0, 1));
  circuit.append(Gate::cnot(1, 2));
  const WireFacts facts = analyze_circuit(circuit);
  EXPECT_EQ(facts.num_variables, 1);
  for (int q = 0; q < 3; ++q) {
    EXPECT_EQ(fact_of(facts, q).kind, WireKind::kBasis) << q;
    EXPECT_EQ(fact_of(facts, q).group_size, 3) << q;
    EXPECT_GE(fact_of(facts, q).parity_partner, 0) << q;
    EXPECT_TRUE(fact_of(facts, q).parity_equal) << q;
  }
  expect_facts_sound(circuit, facts, "ghz");
}

TEST(Dataflow, SeparableRotationStaysPure) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 0.7));
  circuit.append(Gate::ry(1, 0.3));
  const WireFacts facts = analyze_circuit(circuit);
  EXPECT_EQ(fact_of(facts, 0).kind, WireKind::kSeparable);
  EXPECT_EQ(fact_of(facts, 1).kind, WireKind::kSeparable);
  EXPECT_EQ(facts.num_variables, 2);
  expect_facts_sound(circuit, facts, "separable");
}

TEST(Dataflow, RedundantCnotPairCancellation) {
  DataflowEngine engine(2);
  engine.apply(Gate::ry(0, 0.9), 0);
  const GateVerdict first = engine.apply(Gate::cnot(0, 1), 1);
  EXPECT_EQ(first.action, GateVerdict::Action::kKeep);
  const GateVerdict second = engine.apply(Gate::cnot(0, 1), 2);
  EXPECT_EQ(second.action, GateVerdict::Action::kCancelPair);
  EXPECT_EQ(second.cancel_with, 1);
  // The pair reverted the target: q1 is provably |0> again.
  EXPECT_EQ(engine.wire_constant(1), std::optional<bool>(false));
}

TEST(Dataflow, CrossWireCnotPairCancellation) {
  // cnot(b, t) cancels cnot(a, t) when wire b provably carries a's value:
  // a fact no syntactic fold can see.
  DataflowEngine engine(3);
  engine.apply(Gate::ry(0, 0.9), 0);
  engine.apply(Gate::cnot(0, 1), 1);  // q1 = v0
  engine.apply(Gate::cnot(0, 2), 2);  // record on q2 with flip v0
  const GateVerdict verdict = engine.apply(Gate::cnot(1, 2), 3);
  EXPECT_EQ(verdict.action, GateVerdict::Action::kCancelPair);
  EXPECT_EQ(verdict.cancel_with, 2);
}

TEST(Dataflow, TouchedTargetInvalidatesRecord) {
  DataflowEngine engine(2);
  engine.apply(Gate::ry(0, 0.9), 0);
  engine.apply(Gate::cnot(0, 1), 1);
  engine.apply(Gate::x(1), 2);  // touches the record's target wire
  // Forms now differ anyway, but even an exact-match flip must not
  // cancel across the touch.
  const GateVerdict verdict = engine.apply(Gate::cnot(0, 1), 3);
  EXPECT_EQ(verdict.action, GateVerdict::Action::kKeep);
}

TEST(Dataflow, ReadOfRecordTargetInvalidatesRecord) {
  // A gate that only *reads* the record's target wire still kills the
  // record: removing the pair would change the value that read observed.
  DataflowEngine engine(4);
  engine.apply(Gate::ry(0, 0.9), 0);
  engine.apply(Gate::cnot(0, 1), 1);  // q1 = v0, record on q1
  engine.apply(Gate::cnot(1, 2), 2);  // reads q1 -> record must die
  const GateVerdict verdict = engine.apply(Gate::cnot(0, 1), 3);
  EXPECT_EQ(verdict.action, GateVerdict::Action::kKeep);
}

TEST(Dataflow, CzProvableIdentities) {
  // A |0> wire makes CZ the identity.
  DataflowEngine zero(2);
  EXPECT_EQ(zero.apply(Gate::cz(0, 1), 0).action, GateVerdict::Action::kDrop);
  // Both provably |1>: a global phase.
  DataflowEngine ones(2);
  ones.apply(Gate::x(0), 0);
  ones.apply(Gate::x(1), 1);
  EXPECT_EQ(ones.apply(Gate::cz(0, 1), 2).action, GateVerdict::Action::kDrop);
  // Complementary forms: |11> unreachable.
  DataflowEngine anti(2);
  anti.apply(Gate::ry(0, 0.9), 0);
  anti.apply(Gate::cnot(0, 1), 1);
  anti.apply(Gate::x(1), 2);  // q1 = v0 ^ 1
  EXPECT_EQ(anti.apply(Gate::cz(0, 1), 3).action, GateVerdict::Action::kDrop);
  // Two superposed wires: kept, and the wires may now be entangled.
  DataflowEngine live(2);
  live.apply(Gate::ry(0, 0.9), 0);
  live.apply(Gate::ry(1, 0.4), 1);
  EXPECT_EQ(live.apply(Gate::cz(0, 1), 2).action, GateVerdict::Action::kKeep);
  EXPECT_EQ(live.facts().wires[0].group_size, 2);
}

TEST(Dataflow, ISwapTransfersFormsAndPurity) {
  // Constant swap: |1>|0> -> |0>|1> (up to the iSwap phase).
  DataflowEngine constants(2);
  constants.apply(Gate::x(0), 0);
  EXPECT_EQ(constants.apply(Gate::iswap(0, 1), 1).action,
            GateVerdict::Action::kKeep);
  EXPECT_EQ(constants.wire_constant(0), std::optional<bool>(false));
  EXPECT_EQ(constants.wire_constant(1), std::optional<bool>(true));
  // Purity travels with the form: a superposed wire iswapped with a
  // constant hands its separable status over, no merge.
  DataflowEngine pure(2);
  pure.apply(Gate::ry(0, 0.9), 0);
  pure.apply(Gate::iswap(0, 1), 1);
  const WireFacts facts = pure.facts();
  EXPECT_EQ(facts.wires[0].kind, WireKind::kZero);
  EXPECT_EQ(facts.wires[1].kind, WireKind::kSeparable);
  EXPECT_EQ(facts.wires[1].group_size, 1);
  // Provably-equal wires: |01>/|10> unreachable, iSwap is the identity.
  DataflowEngine equal(2);
  equal.apply(Gate::ry(0, 0.9), 0);
  equal.apply(Gate::cnot(0, 1), 1);
  EXPECT_EQ(equal.apply(Gate::iswap(0, 1), 2).action,
            GateVerdict::Action::kDrop);
}

TEST(Dataflow, ControlledRotationDemotions) {
  // Satisfied constant control strips off; unsatisfied kills the gate.
  DataflowEngine engine(3);
  engine.apply(Gate::x(0), 0);
  engine.apply(Gate::ry(1, 0.5), 1);  // control 1 stays unknown
  const GateVerdict demote = engine.apply(
      Gate::mcry({{0, true}, {1, true}}, 2, 0.8), 2);
  EXPECT_EQ(demote.action, GateVerdict::Action::kReplace);
  ASSERT_TRUE(demote.replacement.has_value());
  EXPECT_EQ(demote.replacement->kind(), GateKind::kCRy);
  DataflowEngine dead(3);
  const GateVerdict drop =
      dead.apply(Gate::mcry({{0, true}, {1, true}}, 2, 0.8), 0);
  EXPECT_EQ(drop.action, GateVerdict::Action::kDrop);
  // A dead controlled rotation must not widen its target.
  EXPECT_EQ(dead.wire_constant(2), std::optional<bool>(false));
}

TEST(Dataflow, MultiplexorTableHalving) {
  // Control 0 provably |1>: the table restricts to its odd rows.
  DataflowEngine engine(3);
  engine.apply(Gate::x(0), 0);
  engine.apply(Gate::ry(1, 0.5), 1);  // control 1 stays unknown
  const GateVerdict half =
      engine.apply(Gate::ucry({0, 1}, 2, {0.1, 0.2, 0.3, 0.4}), 2);
  EXPECT_EQ(half.action, GateVerdict::Action::kReplace);
  ASSERT_TRUE(half.replacement.has_value());
  EXPECT_EQ(half.replacement->kind(), GateKind::kUCRy);
  EXPECT_EQ(half.replacement->angles(), (std::vector<double>{0.2, 0.4}));
  // All controls constant: one row survives, the gate demotes to ry.
  DataflowEngine full(3);
  full.apply(Gate::x(0), 0);
  full.apply(Gate::x(1), 1);
  const GateVerdict row =
      full.apply(Gate::ucry({0, 1}, 2, {0.1, 0.2, 0.3, 0.4}), 2);
  EXPECT_EQ(row.action, GateVerdict::Action::kReplace);
  ASSERT_TRUE(row.replacement.has_value());
  EXPECT_EQ(row.replacement->kind(), GateKind::kRy);
  EXPECT_DOUBLE_EQ(row.replacement->theta(), 0.4);
  // ... and when the surviving row's angle is zero the gate is dead.
  DataflowEngine zero(2);
  const GateVerdict drop = zero.apply(Gate::ucrz({0}, 1, {0.0, 0.5}), 0);
  EXPECT_EQ(drop.action, GateVerdict::Action::kDrop);
}

TEST(Dataflow, AncillaReleaseLint) {
  // Workspace restored: the borrow-and-return pattern is certified clean.
  Circuit clean(3);
  clean.append(Gate::ry(0, 0.9));
  clean.append(Gate::cnot(0, 2));
  clean.append(Gate::cnot(2, 1));
  clean.append(Gate::cnot(0, 2));
  DataflowOptions options;
  options.num_data_wires = 2;
  const LintReport ok = dataflow_lint(clean, options);
  EXPECT_FALSE(ok.has_errors()) << ok.to_string();
  // Workspace left dirty: QL014, error severity.
  Circuit dirty(3);
  dirty.append(Gate::ry(0, 0.9));
  dirty.append(Gate::cnot(0, 2));
  const LintReport bad = dataflow_lint(dirty, options);
  EXPECT_TRUE(bad.has_errors());
  ASSERT_EQ(bad.diagnostics.size(), 1u);
  EXPECT_EQ(bad.diagnostics[0].rule, LintRule::kAncillaReleasedDirty);
  EXPECT_EQ(bad.diagnostics[0].severity, LintSeverity::kError);
  // Provably-|1> workspace gets the sharper message.
  Circuit one(2);
  one.append(Gate::x(1));
  DataflowOptions tight;
  tight.num_data_wires = 1;
  const LintReport lit = dataflow_lint(one, tight);
  ASSERT_EQ(lit.diagnostics.size(), 1u);
  EXPECT_NE(lit.diagnostics[0].message.find("provably |1>"),
            std::string::npos);
}

TEST(Dataflow, LintReportCodesAndSeverities) {
  Circuit circuit(3);
  circuit.append(Gate::x(0));
  circuit.append(Gate::cnot(0, 1));      // QL012: control provably |1>
  circuit.append(Gate::cnot(2, 0));      // QL011: control provably |0>
  circuit.append(Gate::ry(2, 0.9));
  circuit.append(Gate::cnot(2, 1));
  circuit.append(Gate::cnot(2, 1));      // QL013: redundant pair
  const LintReport report = dataflow_lint(circuit);
  const std::vector<LintRule> rules = rules_of(report);
  EXPECT_EQ(rules,
            (std::vector<LintRule>{LintRule::kConstantOneControl,
                                   LintRule::kDeadControl,
                                   LintRule::kRedundantCnot}));
  for (const LintDiagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.severity, LintSeverity::kWarning) << d.to_string();
  }
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.has_warnings());
}

TEST(Dataflow, AffineFormToString) {
  AffineForm form;
  EXPECT_EQ(form.to_string(), "0");
  form.offset = true;
  EXPECT_EQ(form.to_string(), "1");
  form.mask = {0b101};
  EXPECT_EQ(form.to_string(), "v0^v2^1");
  form.offset = false;
  EXPECT_EQ(form.to_string(), "v0^v2");
}

TEST(Dataflow, WireFactsJsonShape) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 1.1));
  circuit.append(Gate::cnot(0, 1));
  const std::string json = analyze_circuit(circuit).to_json();
  EXPECT_NE(json.find("\"num_qubits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_variables\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"basis-parity\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"form\":\"v0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"parity_partner\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Corpus soundness: every exported fact checked against simulation
// ---------------------------------------------------------------------------

TEST(DataflowCorpus, FactsAgreeWithSimulationOnRandomCorpus) {
  for (const Circuit& circuit : random_circuit_corpus()) {
    expect_facts_sound(circuit, analyze_circuit(circuit), "corpus");
  }
}

TEST(DataflowCorpus, FactsAgreeOnPhaseFreeCorpus) {
  CorpusOptions options;
  options.with_phase_gates = false;
  options.seed = 0xDA7AF10;
  for (const Circuit& circuit : random_circuit_corpus(options)) {
    expect_facts_sound(circuit, analyze_circuit(circuit), "phase-free");
  }
}

TEST(DataflowCorpus, RoutedCircuitsCertifyWorkspace) {
  // Random logical circuits routed onto a wider device: the routing
  // contract says the spare device wires return to |0>; the engine must
  // prove it (QL014 clean) and the facts must agree with simulation.
  CorpusOptions options;
  options.widths = {2, 3};
  options.circuits_per_width = 4;
  options.gates_per_circuit = 25;
  options.with_phase_gates = false;
  options.seed = 0x407ED;
  Rng rng(options.seed);
  const CouplingGraph device = CouplingGraph::line(5);
  for (const int n : options.widths) {
    for (int c = 0; c < options.circuits_per_width; ++c) {
      const Circuit logical =
          random_circuit(n, options.gates_per_circuit, rng, options);
      const Circuit routed = route_circuit(logical, device);
      ASSERT_EQ(routed.num_qubits(), 5);
      const WireFacts facts = analyze_circuit(routed);
      expect_facts_sound(routed, facts, "routed");
      DataflowOptions dataflow;
      dataflow.num_data_wires = n;
      const LintReport report = dataflow_lint(routed, dataflow);
      EXPECT_FALSE(report.has_errors())
          << "n=" << n << " c=" << c << "\n"
          << report.to_string() << facts.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// dataflow-simplify pass
// ---------------------------------------------------------------------------

TEST(DataflowSimplify, RegisteredAtO2Only) {
  const Pass* pass = PassPipeline::find("dataflow-simplify");
  ASSERT_NE(pass, nullptr);
  EXPECT_TRUE((pass->preserves() & kPreservesPreparation) != 0);
  EXPECT_TRUE((pass->preserves() & kPreservesCoupling) != 0);
  // Demotions introduce gate kinds, so the pass must not claim the
  // gate-set contract.
  EXPECT_TRUE((pass->preserves() & kPreservesGateSet) == 0);
  for (const Pass* p : PassPipeline::level_passes(OptLevel::kO1)) {
    EXPECT_NE(p->name(), "dataflow-simplify");
  }
  bool in_o2 = false;
  for (const Pass* p : PassPipeline::level_passes(OptLevel::kO2)) {
    in_o2 = in_o2 || p->name() == "dataflow-simplify";
  }
  EXPECT_TRUE(in_o2);
}

TEST(DataflowSimplify, HandcraftedRewrites) {
  const Pass* pass = PassPipeline::find("dataflow-simplify");
  ASSERT_NE(pass, nullptr);
  Circuit circuit(3);
  circuit.append(Gate::x(0));
  circuit.append(Gate::cnot(0, 1));  // -> x q1
  circuit.append(Gate::cnot(2, 0));  // dead, dropped
  circuit.append(Gate::ry(2, 0.9));
  circuit.append(Gate::cnot(2, 1));  // pair ...
  circuit.append(Gate::cnot(2, 1));  // ... cancelled
  const Circuit before = circuit;
  EXPECT_TRUE(pass->run(circuit, PassOptions{}));
  ASSERT_EQ(circuit.size(), 3u);
  EXPECT_EQ(circuit.gates()[0].kind(), GateKind::kX);
  EXPECT_EQ(circuit.gates()[1].kind(), GateKind::kX);
  EXPECT_EQ(circuit.gates()[1].target(), 1);
  EXPECT_EQ(circuit.gates()[2].kind(), GateKind::kRy);
  EXPECT_NEAR(preparation_overlap(before, circuit), 1.0, 1e-9);
}

TEST(DataflowSimplify, SoundAndMonotoneOnCorpus) {
  const Pass* pass = PassPipeline::find("dataflow-simplify");
  ASSERT_NE(pass, nullptr);
  for (const Circuit& original : random_circuit_corpus()) {
    Circuit circuit = original;
    pass->run(circuit, PassOptions{});
    EXPECT_LE(circuit.size(), original.size());
    EXPECT_LE(circuit.cnot_cost(), original.cnot_cost());
    EXPECT_NEAR(preparation_overlap(original, circuit), 1.0, 1e-9)
        << "size " << original.size() << " -> " << circuit.size();
  }
}

TEST(DataflowSimplify, O2NoWorseThanO1OnCorpus) {
  CorpusOptions options;
  options.circuits_per_width = 3;
  options.seed = 0x02C0;
  for (const Circuit& circuit : random_circuit_corpus(options)) {
    PipelineOptions o1;
    o1.level = OptLevel::kO1;
    PipelineOptions o2;
    o2.level = OptLevel::kO2;
    const Circuit r1 = optimize_circuit(circuit, o1);
    const Circuit r2 = optimize_circuit(circuit, o2);
    EXPECT_LE(r2.size(), r1.size());
    EXPECT_LE(r2.cnot_cost(), r1.cnot_cost());
    EXPECT_NEAR(preparation_overlap(circuit, r2), 1.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Solver integration: static ancilla certification on routed outputs
// ---------------------------------------------------------------------------

TEST(DataflowWorkflow, SolverCertifiesRoutedWorkspace) {
  WorkflowOptions options;
  options.coupling = std::make_shared<const CouplingGraph>(
      CouplingGraph::line(5));
  options.opt_level = OptLevel::kO2;
  const Solver solver(options);
  // prepare() throws std::logic_error if certification fails; a found
  // result here means the routed circuit passed the QL014 gate.
  const WorkflowResult result = solver.prepare(make_ghz(3));
  ASSERT_TRUE(result.found);
  ASSERT_EQ(result.circuit.num_qubits(), 5);
  // Empirically confirm what the gate certified: the workspace wires
  // measure |0> with probability 1 on the optimized output too.
  ComplexStatevector sv(5);
  sv.apply(result.circuit);
  const auto& amp = sv.amplitudes();
  for (std::size_t state = 0; state < amp.size(); ++state) {
    if (std::norm(amp[state]) <= kSupportTol) continue;
    EXPECT_EQ((state >> 3) & 3u, 0u) << "workspace dirty on state " << state;
  }
}

}  // namespace
}  // namespace qsp
