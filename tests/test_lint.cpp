// Unit and property tests for the static circuit linter (circuit/lint.hpp):
// one positive and one negative case per rule QL000..QL010, the
// pass-contract gate the pipeline runs in release builds, and the
// whole-program properties the linter is meant to enforce — workflow and
// service outputs over the seeded random corpora lint clean, and the QASM
// front door rejects requests the engine could not honor.

#include "circuit/lint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/coupling.hpp"
#include "circuit/circuit.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass.hpp"
#include "circuit/pass_pipeline.hpp"
#include "circuit/qasm.hpp"
#include "flow/solver.hpp"
#include "pass_test_util.hpp"
#include "service/synthesis_service.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

bool has_rule(const LintReport& report, LintRule rule) {
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule == rule) return true;
  }
  return false;
}

std::string rules_fired(const LintReport& report) {
  std::string out;
  for (const LintDiagnostic& d : report.diagnostics) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

// The pipeline gate's configuration: error rules only, warnings off (the
// gray-code lowering legitimately emits zero rotations when elision is
// disabled, and pre-peephole streams legitimately carry identity pairs).
LintOptions gate_style_options() {
  LintOptions options;
  options.degenerate_rotations = false;
  options.identity_pairs = false;
  return options;
}

// ---------------------------------------------------------------------------
// Rule catalog metadata.

TEST(Lint, RuleCatalogCodesNamesSeverities) {
  EXPECT_EQ(lint_rule_code(LintRule::kParseError), "QL000");
  EXPECT_EQ(lint_rule_code(LintRule::kUnsupportedGate), "QL010");
  EXPECT_EQ(lint_rule_name(LintRule::kNoncanonicalSymmetric),
            "canonical-wire-order");
  EXPECT_EQ(lint_rule_severity(LintRule::kWireBounds), LintSeverity::kError);
  EXPECT_EQ(lint_rule_severity(LintRule::kDegenerateRotation),
            LintSeverity::kWarning);
  EXPECT_EQ(lint_rule_severity(LintRule::kIdentityPair),
            LintSeverity::kWarning);
  // The flow-sensitive rules (scanned by circuit/dataflow.hpp) share the
  // catalog: QL011..QL013 are optimizer hints, QL014 breaks the
  // workspace-register contract and stays an error.
  EXPECT_EQ(lint_rule_code(LintRule::kDeadControl), "QL011");
  EXPECT_EQ(lint_rule_code(LintRule::kAncillaReleasedDirty), "QL014");
  EXPECT_EQ(lint_rule_name(LintRule::kDeadControl), "dead-control");
  EXPECT_EQ(lint_rule_name(LintRule::kConstantOneControl),
            "constant-one-control");
  EXPECT_EQ(lint_rule_name(LintRule::kRedundantCnot), "redundant-cnot");
  EXPECT_EQ(lint_rule_name(LintRule::kAncillaReleasedDirty),
            "ancilla-released-dirty");
  EXPECT_EQ(lint_rule_severity(LintRule::kDeadControl),
            LintSeverity::kWarning);
  EXPECT_EQ(lint_rule_severity(LintRule::kConstantOneControl),
            LintSeverity::kWarning);
  EXPECT_EQ(lint_rule_severity(LintRule::kRedundantCnot),
            LintSeverity::kWarning);
  EXPECT_EQ(lint_rule_severity(LintRule::kAncillaReleasedDirty),
            LintSeverity::kError);
  EXPECT_EQ(lint_severity_name(LintSeverity::kError), "error");
}

// ---------------------------------------------------------------------------
// QL000 parse-error.

TEST(Lint, QasmParseErrorIsReported) {
  const LintReport report = lint_qasm("qreg q[2];\nnot_a_gate q[0];\n");
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(has_rule(report, LintRule::kParseError));
}

TEST(Lint, QasmWellFormedTextLintsClean) {
  std::optional<Circuit> parsed;
  const LintReport report = lint_qasm(
      "OPENQASM 2.0;\nqreg q[2];\nry(0.5) q[0];\ncx q[0],q[1];\n", {},
      &parsed);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_qubits(), 2);
  EXPECT_EQ(parsed->size(), 2u);
}

// ---------------------------------------------------------------------------
// QL001 wire-bounds. The Gate factories reject out-of-range wires at
// construction, so the raw-gate seam is the only way this state exists.

TEST(Lint, WireBoundsRejectsOutOfRangeTarget) {
  RawGate raw;
  raw.kind = GateKind::kX;
  raw.target = 3;
  LintReport report;
  lint_raw_gate(raw, 0, 3, {}, report);
  EXPECT_TRUE(has_rule(report, LintRule::kWireBounds)) << rules_fired(report);
}

TEST(Lint, WireBoundsAcceptsInRangeGate) {
  const RawGate raw = RawGate::from(Gate::cnot(0, 2));
  LintReport report;
  lint_raw_gate(raw, 0, 3, {}, report);
  EXPECT_FALSE(has_rule(report, LintRule::kWireBounds)) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL002 overlapping-controls.

TEST(Lint, OverlappingControlsRejectsControlOnTarget) {
  RawGate raw;
  raw.kind = GateKind::kCNOT;
  raw.target = 1;
  raw.controls = {{1, true}};
  LintReport report;
  lint_raw_gate(raw, 0, 3, {}, report);
  EXPECT_TRUE(has_rule(report, LintRule::kOverlappingControls))
      << rules_fired(report);
}

TEST(Lint, OverlappingControlsRejectsDuplicateControl) {
  RawGate raw;
  raw.kind = GateKind::kMCRy;
  raw.target = 2;
  raw.theta = 0.4;
  raw.controls = {{0, true}, {0, false}};
  LintReport report;
  lint_raw_gate(raw, 0, 4, {}, report);
  EXPECT_TRUE(has_rule(report, LintRule::kOverlappingControls))
      << rules_fired(report);
}

TEST(Lint, DistinctControlsLintClean) {
  const RawGate raw =
      RawGate::from(Gate::mcry({{0, true}, {1, false}}, 2, 0.4));
  LintReport report;
  lint_raw_gate(raw, 0, 4, {}, report);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL003 canonical-wire-order. Gate::remapped re-validates but does not
// re-canonicalize symmetric gates, so a permutation that swaps the stored
// wire pair leaves the gate in the non-canonical order the adjacency
// peepholes would miss.

TEST(Lint, NoncanonicalSymmetricGateIsFlagged) {
  Circuit circuit(2);
  circuit.append(Gate::cz(0, 1).remapped({1, 0}));
  const LintReport report = lint_circuit(circuit);
  EXPECT_TRUE(has_rule(report, LintRule::kNoncanonicalSymmetric))
      << rules_fired(report);
}

TEST(Lint, CanonicalSymmetricGateLintsClean) {
  Circuit circuit(2);
  circuit.append(Gate::cz(0, 1));
  circuit.append(Gate::iswap(0, 1));
  circuit.append(Gate::rzz(0, 1, 0.3));
  const LintReport report = lint_circuit(circuit);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL004 non-native-gate.

TEST(Lint, NonNativeGateAgainstTargetIsFlagged) {
  Circuit circuit(2);
  circuit.append(Gate::cnot(0, 1));
  LintOptions options;
  options.target = Target::cz();
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_TRUE(has_rule(report, LintRule::kNonNativeGate))
      << rules_fired(report);
}

TEST(Lint, NativeCircuitForTargetLintsClean) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 0.5));
  circuit.append(Gate::cz(0, 1));
  LintOptions options;
  options.target = Target::cz();
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL005 coupling-violation. Native two-qubit gates only; composite gates
// are exempt (they are routed during lowering, not here).

TEST(Lint, CouplingViolationOffDeviceEdgeIsFlagged) {
  Circuit circuit(3);
  circuit.append(Gate::cnot(0, 2));
  LintOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_TRUE(has_rule(report, LintRule::kCouplingViolation))
      << rules_fired(report);
}

TEST(Lint, CouplingCheckAcceptsEdgesAndSkipsComposites) {
  Circuit circuit(3);
  circuit.append(Gate::cnot(0, 1));
  circuit.append(Gate::cz(1, 2));
  // Composite multiplexor spanning non-adjacent wires: exempt by design.
  circuit.append(Gate::ucry({0, 2}, 1, {0.1, 0.2, 0.3, 0.4}));
  LintOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL006 degenerate-rotation (warning).

TEST(Lint, DegenerateRotationWarns) {
  Circuit circuit(1);
  circuit.append(Gate::ry(0, 1e-15));
  const LintReport report = lint_circuit(circuit);
  EXPECT_TRUE(has_rule(report, LintRule::kDegenerateRotation))
      << rules_fired(report);
  EXPECT_FALSE(report.has_errors());

  // The pipeline-gate configuration disables the rule.
  const LintReport gated = lint_circuit(circuit, gate_style_options());
  EXPECT_TRUE(gated.diagnostics.empty()) << rules_fired(gated);
}

TEST(Lint, LiveRotationDoesNotWarn) {
  Circuit circuit(1);
  circuit.append(Gate::ry(0, 0.5));
  const LintReport report = lint_circuit(circuit);
  EXPECT_FALSE(has_rule(report, LintRule::kDegenerateRotation))
      << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL007 identity-pair (warning).

TEST(Lint, AdjacentSelfInversePairWarns) {
  Circuit circuit(2);
  circuit.append(Gate::cnot(0, 1));
  circuit.append(Gate::cnot(0, 1));
  const LintReport report = lint_circuit(circuit);
  EXPECT_TRUE(has_rule(report, LintRule::kIdentityPair))
      << rules_fired(report);
  EXPECT_FALSE(report.has_errors());
}

TEST(Lint, NonAdjacentOrDistinctPairsDoNotWarn) {
  Circuit circuit(2);
  circuit.append(Gate::x(0));
  circuit.append(Gate::x(1));
  circuit.append(Gate::cnot(0, 1));
  circuit.append(Gate::cnot(1, 0));
  const LintReport report = lint_circuit(circuit);
  EXPECT_FALSE(has_rule(report, LintRule::kIdentityPair))
      << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL008 pass-contract, via lint_pass_application directly.

class KindIntroducingPass final : public Pass {
 public:
  std::string_view name() const override { return "kind-introducing-test"; }
  unsigned preserves() const override { return kPreservesAll; }
  bool run(Circuit& circuit, const PassOptions&) const override {
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      out.append(g.kind() == GateKind::kRy ? Gate::rz(g.target(), g.theta())
                                           : g);
    }
    circuit = std::move(out);
    return true;
  }
};

class OffEdgePass final : public Pass {
 public:
  std::string_view name() const override { return "off-edge-test"; }
  unsigned preserves() const override { return kPreservesAll; }
  bool run(Circuit& circuit, const PassOptions&) const override {
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      out.append(g.kind() == GateKind::kCNOT ? Gate::cnot(0, 2) : g);
    }
    circuit = std::move(out);
    return true;
  }
};

TEST(Lint, PassContractCatchesIntroducedKind) {
  Circuit before(2);
  before.append(Gate::ry(0, 0.4));
  Circuit after = before;
  const KindIntroducingPass pass;
  pass.run(after, {});
  const LintReport report = lint_pass_application(pass, before, after);
  EXPECT_TRUE(has_rule(report, LintRule::kPassContract))
      << rules_fired(report);
}

TEST(Lint, PassContractCatchesCouplingBreak) {
  Circuit before(3);
  before.append(Gate::cnot(0, 1));
  Circuit after = before;
  const OffEdgePass pass;
  pass.run(after, {});
  LintOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const LintReport report = lint_pass_application(pass, before, after, options);
  EXPECT_TRUE(has_rule(report, LintRule::kPassContract))
      << rules_fired(report);
}

TEST(Lint, PassContractAcceptsHonestShrink) {
  Circuit before(2);
  before.append(Gate::x(0));
  before.append(Gate::x(0));
  before.append(Gate::cnot(0, 1));
  Circuit after(2);
  after.append(Gate::cnot(0, 1));
  // Any registered optimization pass claims kPreservesAll; a shrink that
  // drops gates without new kinds satisfies the contract.
  ASSERT_FALSE(PassPipeline::registry().empty());
  const Pass& pass = *PassPipeline::registry().front();
  const LintReport report = lint_pass_application(pass, before, after);
  EXPECT_FALSE(has_rule(report, LintRule::kPassContract))
      << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL009 malformed-angles.

TEST(Lint, NonFiniteAngleIsFlagged) {
  RawGate raw;
  raw.kind = GateKind::kRy;
  raw.target = 0;
  raw.theta = std::numeric_limits<double>::quiet_NaN();
  LintReport report;
  lint_raw_gate(raw, 0, 1, {}, report);
  EXPECT_TRUE(has_rule(report, LintRule::kMalformedAngles))
      << rules_fired(report);
}

TEST(Lint, WrongMultiplexorTableSizeIsFlagged) {
  RawGate raw;
  raw.kind = GateKind::kUCRy;
  raw.target = 2;
  raw.controls = {{0, true}, {1, true}};
  raw.angles = {0.1, 0.2, 0.3};  // needs 2^2 = 4 entries
  LintReport report;
  lint_raw_gate(raw, 0, 3, {}, report);
  EXPECT_TRUE(has_rule(report, LintRule::kMalformedAngles))
      << rules_fired(report);
}

TEST(Lint, FiniteAnglesAndFullTableLintClean) {
  LintReport report;
  lint_raw_gate(RawGate::from(Gate::ry(0, 0.7)), 0, 1, {}, report);
  lint_raw_gate(RawGate::from(Gate::ucry({0, 1}, 2, {0.1, 0.2, 0.3, 0.4})), 1,
                3, {}, report);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// QL010 unsupported-gate (policy mask).

TEST(Lint, PolicyMaskRejectsDisallowedKind) {
  Circuit circuit(1);
  circuit.append(Gate::rz(0, 0.5));
  LintOptions options;
  options.allowed_kinds = lint_kind_bit(GateKind::kX) |
                          lint_kind_bit(GateKind::kRy) |
                          lint_kind_bit(GateKind::kCNOT);
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_TRUE(has_rule(report, LintRule::kUnsupportedGate))
      << rules_fired(report);
}

TEST(Lint, PolicyMaskAcceptsAllowedKinds) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 0.5));
  circuit.append(Gate::cnot(0, 1));
  LintOptions options;
  options.allowed_kinds =
      lint_kind_bit(GateKind::kRy) | lint_kind_bit(GateKind::kCNOT);
  const LintReport report = lint_circuit(circuit, options);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
}

// ---------------------------------------------------------------------------
// Report formatting.

TEST(Lint, ReportToStringAndJsonCarryCodes) {
  Circuit circuit(3);
  circuit.append(Gate::cnot(0, 2));
  LintOptions options;
  options.coupling = std::make_shared<CouplingGraph>(CouplingGraph::line(3));
  const LintReport report = lint_circuit(circuit, options);
  ASSERT_TRUE(report.has_errors());
  EXPECT_NE(report.to_string().find("QL005"), std::string::npos);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"code\":\"QL005\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The pipeline's release-mode gate: a pass whose output breaks its own
// preserves() declaration must be named in a std::logic_error. The gate
// fires with the debug simulation verify off, and fires first with it on:
// gate-count growth and new gate kinds are QL008's alone.

class GrowingPass final : public Pass {
 public:
  std::string_view name() const override { return "growing-test-pass"; }
  unsigned preserves() const override { return kPreservesAll; }
  bool run(Circuit& circuit, const PassOptions&) const override {
    circuit.append(Gate::rz(0, 0.25));
    return true;
  }
};

// Grows the circuit while the prepared state stays intact.
class PaddingPass final : public Pass {
 public:
  std::string_view name() const override { return "padding-test-pass"; }
  unsigned preserves() const override { return kPreservesAll; }
  bool run(Circuit& circuit, const PassOptions&) const override {
    circuit.append(Gate::x(0));
    circuit.append(Gate::x(0));
    return true;
  }
};

TEST(Lint, PipelineGateThrowsOnContractViolation) {
  Circuit circuit(2);
  circuit.append(Gate::ry(0, 0.4));
  const GrowingPass growing;
  const PaddingPass padding;
  for (const Pass* pass : std::initializer_list<const Pass*>{&growing,
                                                             &padding}) {
    for (const bool verify : {false, true}) {
      PipelineOptions options;
      options.verify_each_pass = verify;
      options.max_iterations = 1;
      const PassPipeline pipeline({pass}, options);
      try {
        pipeline.run(circuit);
        ADD_FAILURE() << "lint gate did not fire on " << pass->name();
      } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(pass->name()), std::string::npos) << what;
        EXPECT_NE(what.find("QL008"), std::string::npos) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: every optimized circuit from the shared random corpus passes
// the gate-style lint with zero diagnostics (the acceptance bar for the
// always-on pipeline gate), at every level. optimize_circuit itself runs
// the gate internally, so a throw here is equally a failure.

TEST(Lint, RandomCorpusOptimizedCircuitsLintClean) {
  test::CorpusOptions corpus_options;
  corpus_options.circuits_per_width = 3;
  const std::vector<Circuit> corpus =
      test::random_circuit_corpus(corpus_options);
  ASSERT_FALSE(corpus.empty());
  for (const OptLevel level : {OptLevel::kO1, OptLevel::kO2}) {
    PipelineOptions options;
    options.level = level;
    for (const Circuit& circuit : corpus) {
      const Circuit cleaned = optimize_circuit(circuit, options);
      const LintReport report = lint_circuit(cleaned, gate_style_options());
      EXPECT_TRUE(report.diagnostics.empty())
          << opt_level_name(level) << ":\n"
          << rules_fired(report);
    }
  }
}

// Property: workflow outputs lint clean — the stitched composite circuit
// with default rules minus warnings, and its CNOT lowering against the
// CNOT target with the full error set.

TEST(Lint, WorkflowOutputsLintClean) {
  Rng rng(0x11A7);
  std::vector<QuantumState> states = {make_ghz(5), make_w(5),
                                      make_dicke(5, 2)};
  states.push_back(make_random_uniform(5, 6, rng));
  WorkflowOptions options;
  options.opt_level = OptLevel::kO2;
  const Solver solver(options);
  for (const QuantumState& state : states) {
    const WorkflowResult result = solver.prepare(state);
    ASSERT_TRUE(result.found);
    const LintReport composite =
        lint_circuit(result.circuit, gate_style_options());
    EXPECT_TRUE(composite.diagnostics.empty()) << rules_fired(composite);

    LoweringOptions elide;
    elide.elide_zero_rotations = true;
    const Circuit lowered = lower(result.circuit, elide);
    LintOptions native = gate_style_options();
    native.target = Target::cnot();
    const LintReport low = lint_circuit(lowered, native);
    EXPECT_TRUE(low.diagnostics.empty()) << rules_fired(low);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The service QASM front door. Suite name starts with "SynthesisService"
// so the existing service-focused CI regexes pick it up.

namespace {

const char kGhzQasm[] =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[4];\n"
    "ry(1.5707963267948966) q[0];\n"
    "cx q[0],q[1];\n"
    "cx q[1],q[2];\n"
    "cx q[2],q[3];\n";

TEST(SynthesisServiceQasm, SubmitQasmPreparesDescribedState) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  ServiceResponse response = service.submit_qasm(kGhzQasm).get();
  ASSERT_TRUE(response.result.found);
  const Circuit request_circuit = from_qasm(kGhzQasm);
  Statevector sv(request_circuit.num_qubits());
  sv.apply(request_circuit);
  const QuantumState described =
      QuantumState::from_dense(request_circuit.num_qubits(), sv.amplitudes());
  verify_preparation_or_throw(response.result.circuit, described);
}

TEST(SynthesisServiceQasm, LintRejectionBeforeEnqueue) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  // rz is outside the real-amplitude request gate set: the request would
  // describe a complex state the engine cannot represent.
  const std::string complex_qasm =
      "qreg q[2];\nrz(0.5) q[0];\ncx q[0],q[1];\n";
  const LintReport report = service.lint_request(complex_qasm);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(has_rule(report, LintRule::kUnsupportedGate))
      << rules_fired(report);
  EXPECT_THROW(service.submit_qasm(complex_qasm), std::invalid_argument);
  EXPECT_THROW(service.submit_qasm("qreg q[2];\nbogus q[0];\n"),
               std::invalid_argument);
  EXPECT_EQ(service.requests_served(), 0u);
}

TEST(SynthesisServiceQasm, RejectionCarriesStructuredDiagnostics) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  // Two rz gates outside the request gate set: the structured report
  // must carry the QL010 code per offending gate, with gate indices, so
  // callers can surface them verbatim.
  const std::string bad_qasm =
      "qreg q[2];\nrz(0.5) q[0];\ncx q[0],q[1];\nrz(0.25) q[1];\n";
  try {
    service.submit_qasm(bad_qasm);
    FAIL() << "submit_qasm accepted a request the lint must reject";
  } catch (const ServiceLintError& e) {
    EXPECT_TRUE(e.report().has_errors());
    ASSERT_EQ(e.report().diagnostics.size(), 2u) << rules_fired(e.report());
    for (const LintDiagnostic& d : e.report().diagnostics) {
      EXPECT_EQ(d.rule, LintRule::kUnsupportedGate);
      EXPECT_EQ(d.severity, LintSeverity::kError);
    }
    EXPECT_EQ(e.report().diagnostics[0].gate_index, 0);
    EXPECT_EQ(e.report().diagnostics[1].gate_index, 2);
    // what() renders the same diagnostics for legacy catch sites.
    EXPECT_NE(std::string(e.what()).find("QL010"), std::string::npos);
  }
  EXPECT_EQ(service.requests_served(), 0u);
}

TEST(SynthesisServiceQasm, ResponseCarriesDataflowDiagnostics) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  SynthesisService service(options);
  const ServiceResponse response = service.submit_qasm(kGhzQasm).get();
  ASSERT_TRUE(response.result.found);
  // An accepted, clean request: the structured diagnostics must exist
  // and carry no errors (the produced circuit is the service's own
  // output — a flow-sensitive error here is a workflow bug).
  EXPECT_FALSE(response.diagnostics.has_errors())
      << response.diagnostics.to_string();
}

TEST(SynthesisServiceQasm, WidthCapRejectsWideRequests) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  options.max_qasm_qubits = 3;
  SynthesisService service(options);
  EXPECT_THROW(service.submit_qasm(kGhzQasm), std::invalid_argument);
}

TEST(SynthesisServiceQasm, LintRequestReportsCleanForGoodQasm) {
  SynthesisServiceOptions options;
  options.num_workers = 1;
  const SynthesisService service(options);
  const LintReport report = service.lint_request(kGhzQasm);
  EXPECT_FALSE(report.has_errors()) << rules_fired(report);
  EXPECT_FALSE(report.has_warnings()) << rules_fired(report);
}

}  // namespace
}  // namespace qsp
