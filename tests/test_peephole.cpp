// Regression and soundness tests for the commutation-aware peephole
// passes and the gates_commute predicate they lean on. The headline
// regression is the MCRy-control trap: a CNOT whose *target* lands on a
// wire some MCRy reads must NOT be treated as commuting (it flips the
// value the rotation's control reads), while a CNOT that merely *reads*
// that wire commutes fine. An unsound predicate here silently reorders
// rotations and corrupts the prepared state, so the predicate is pinned
// both directly and through the O2 pipeline, plus a randomized
// matrix-level soundness sweep.

#include "circuit/pass.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "circuit/pass_pipeline.hpp"
#include "pass_test_util.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

Circuit o2(const Circuit& circuit) {
  PipelineOptions options;
  options.level = OptLevel::kO2;
  options.verify_each_pass = true;
  return optimize_circuit(circuit, options);
}

// --- the MCRy-control regression -----------------------------------------

TEST(GatesCommute, CnotTargetingMcryControlDoesNotCommute) {
  const Gate mcry = Gate::mcry({{1, true}, {2, true}}, 3, 0.8);
  // CNOT target on wire 1 = a control wire of the MCRy: X-action meets a
  // diagonal read, so reordering is unsound.
  EXPECT_FALSE(gates_commute(Gate::cnot(0, 1), mcry));
  EXPECT_FALSE(gates_commute(mcry, Gate::cnot(0, 1)));
  // Same trap with a plain X on the control wire.
  EXPECT_FALSE(gates_commute(Gate::x(1), mcry));
  // And with the CNOT targeting the other control wire.
  EXPECT_FALSE(gates_commute(Gate::cnot(0, 2), mcry));
}

TEST(GatesCommute, CnotReadingMcryControlCommutes) {
  const Gate mcry = Gate::mcry({{1, true}, {2, false}}, 3, 0.8);
  // CNOT control on wire 1: both gates only read the shared wire.
  EXPECT_TRUE(gates_commute(Gate::cnot(1, 0), mcry));
  EXPECT_TRUE(gates_commute(mcry, Gate::cnot(1, 0)));
  // Negative-polarity control wires are reads all the same.
  EXPECT_TRUE(gates_commute(Gate::cnot(2, 0), mcry));
  // Disjoint wires always commute.
  EXPECT_TRUE(gates_commute(Gate::cnot(4, 0), mcry));
}

TEST(GatesCommute, BasicPairs) {
  // Diagonal x diagonal: shared control wires, z-axis rotations.
  EXPECT_TRUE(gates_commute(Gate::cnot(0, 1), Gate::cnot(0, 2)));
  EXPECT_TRUE(gates_commute(Gate::rz(0, 0.3), Gate::cnot(0, 1)));
  EXPECT_TRUE(gates_commute(Gate::rz(0, 0.3), Gate::rz(0, 0.5)));
  // X x X: shared target wire.
  EXPECT_TRUE(gates_commute(Gate::cnot(0, 2), Gate::cnot(1, 2)));
  EXPECT_TRUE(gates_commute(Gate::x(2), Gate::cnot(1, 2)));
  // Ry x Ry: shared rotation target.
  EXPECT_TRUE(gates_commute(Gate::ry(1, 0.2), Gate::cry(0, 1, 0.4)));
  // Mixed modes on a shared wire do not commute.
  EXPECT_FALSE(gates_commute(Gate::rz(1, 0.3), Gate::cnot(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::ry(1, 0.3), Gate::cnot(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::ry(0, 0.3), Gate::cnot(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::x(0), Gate::ry(0, 0.2)));
  // UCRz is diagonal on every wire, including its target.
  const Gate ucrz = Gate::ucrz({0}, 1, {0.3, 0.7});
  EXPECT_TRUE(gates_commute(ucrz, Gate::cnot(1, 2)));
  EXPECT_TRUE(gates_commute(ucrz, Gate::rz(1, 0.4)));
  EXPECT_FALSE(gates_commute(ucrz, Gate::cnot(2, 1)));
  // UCRy rotates its target: X there breaks commutation.
  const Gate ucry = Gate::ucry({0}, 1, {0.3, 0.7});
  EXPECT_FALSE(gates_commute(ucry, Gate::cnot(2, 1)));
  EXPECT_TRUE(gates_commute(ucry, Gate::ry(1, 0.4)));
}

// Matrix-level soundness: whenever gates_commute claims a pair commutes,
// applying them in either order must give the same unitary (checked
// column by column on the complex simulator, exact global phase).
TEST(GatesCommute, ClaimedPairsCommuteAsMatrices) {
  const int n = 4;
  test::CorpusOptions corpus;
  corpus.near_zero_fraction = 0.0;
  Rng rng(0xAC3D);
  int claimed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Gate a = test::random_gate(n, rng, corpus);
    const Gate b = test::random_gate(n, rng, corpus);
    if (!gates_commute(a, b)) continue;
    ++claimed;
    Circuit ab(n);
    ab.append(a);
    ab.append(b);
    Circuit ba(n);
    ba.append(b);
    ba.append(a);
    for (int x = 0; x < (1 << n); ++x) {
      Circuit prep_ab(n);
      Circuit prep_ba(n);
      for (int q = 0; q < n; ++q) {
        if ((x >> q) & 1) {
          prep_ab.append(Gate::x(q));
          prep_ba.append(Gate::x(q));
        }
      }
      prep_ab.append(ab);
      prep_ba.append(ba);
      ComplexStatevector sa(n);
      ComplexStatevector sb(n);
      sa.apply(prep_ab);
      sb.apply(prep_ba);
      for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
        ASSERT_NEAR(std::abs(sa.amplitudes()[i] - sb.amplitudes()[i]), 0.0,
                    1e-9)
            << a.to_string() << " vs " << b.to_string();
      }
    }
  }
  // The sweep must actually exercise the predicate.
  EXPECT_GT(claimed, 50);
}

// --- pipeline-level regressions ------------------------------------------

TEST(Peephole, CnotPairAcrossMcryControlWireIsNotFolded) {
  // The middle MCRy reads wire 1, the CNOT pair writes it: folding the
  // pair would change the prepared state. O2 must leave all three gates.
  Circuit c(4);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::mcry({{1, true}, {2, true}}, 3, 0.8));
  c.append(Gate::cnot(0, 1));
  // Make the trap observable: put weight on the control wires first.
  Circuit prep(4);
  prep.append(Gate::ry(0, 1.1));
  prep.append(Gate::ry(2, 2.0));
  prep.append(c);
  const Circuit out = o2(prep);
  EXPECT_EQ(out.size(), prep.size());
  EXPECT_NEAR(preparation_overlap(prep, out), 1.0, 1e-9);
}

TEST(Peephole, CnotPairAcrossMcryReadIsFolded) {
  // Here the MCRy reads wire 0 — the CNOT pair's *control* — so the pair
  // slides together and cancels.
  Circuit c(4);
  c.append(Gate::ry(0, 1.1));
  c.append(Gate::ry(2, 2.0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::mcry({{0, true}, {2, true}}, 3, 0.8));
  c.append(Gate::cnot(0, 1));
  const Circuit out = o2(c);
  EXPECT_EQ(out.size(), c.size() - 2);
  EXPECT_NEAR(preparation_overlap(c, out), 1.0, 1e-9);
}

TEST(Peephole, CnotFoldAcrossDiagonalRun) {
  // CNOT(0->1) ... CNOT(0->1) with only wire-0 reads in between.
  Circuit c(3);
  c.append(Gate::ry(0, 0.9));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(0, 0.4));
  c.append(Gate::cnot(0, 2));
  c.append(Gate::cnot(0, 1));
  const Circuit out = o2(c);
  EXPECT_NEAR(preparation_overlap(c, out), 1.0, 1e-9);
  EXPECT_EQ(out.size(), c.size() - 2);
  // The O1 adjacency sweep cannot see past the intervening reads.
  PipelineOptions o1_options;
  o1_options.level = OptLevel::kO1;
  EXPECT_EQ(optimize_circuit(c, o1_options).size(), c.size());
}

TEST(Peephole, RotationMergeAcrossCommutingCnot) {
  // Rz(0) commutes with a CNOT controlled on wire 0: the two halves fuse.
  Circuit c(2);
  c.append(Gate::ry(0, 0.7));
  c.append(Gate::rz(0, 0.3));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(0, 0.5));
  const Circuit out = o2(c);
  EXPECT_EQ(out.size(), c.size() - 1);
  EXPECT_NEAR(preparation_overlap(c, out), 1.0, 1e-9);
  // An Ry on the CNOT's *target* must not merge through it. The control
  // needs its own Ry first: on a provably-|0> control the dataflow pass
  // would (correctly) drop the CNOT as dead and let the halves fuse.
  Circuit blocked(2);
  blocked.append(Gate::ry(0, 0.9));
  blocked.append(Gate::ry(1, 0.3));
  blocked.append(Gate::cnot(0, 1));
  blocked.append(Gate::ry(1, 0.5));
  EXPECT_EQ(o2(blocked).size(), blocked.size());
}

TEST(Peephole, OppositeRotationsAnnihilateAcrossCommutingGap) {
  // Fused angle is zero: both halves disappear entirely. Wire 1 gets an
  // Ry first so the CNOT's control is not provably |0> — otherwise the
  // dataflow pass (correctly) removes the CNOT as dead too.
  Circuit c(3);
  c.append(Gate::ry(0, 1.2));
  c.append(Gate::ry(1, 0.8));
  c.append(Gate::rz(1, 0.6));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::rz(1, -0.6));
  const Circuit out = o2(c);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_NEAR(preparation_overlap(c, out), 1.0, 1e-9);
}

TEST(Peephole, XPairFoldsAcrossDisjointGates) {
  Circuit c(3);
  c.append(Gate::x(0));
  c.append(Gate::ry(1, 0.4));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::x(0));
  const Circuit out = o2(c);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_NEAR(preparation_overlap(c, out), 1.0, 1e-9);
}

TEST(Peephole, CommuteWindowBoundsTheBackwardWalk) {
  // A tight window stops the walk before the matching CNOT is reached.
  Circuit c(3);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(0, 0.1));
  c.append(Gate::rz(0, 0.2));
  c.append(Gate::cnot(0, 1));
  PipelineOptions options;
  options.level = OptLevel::kO2;
  options.pass.commute_window = 1;
  options.max_iterations = 1;
  std::vector<const Pass*> fold_only = {
      PassPipeline::find("cnot-commute-fold")};
  const Circuit out = PassPipeline(fold_only, options).run(c);
  EXPECT_EQ(out.size(), c.size());
  options.pass.commute_window = 8;
  const Circuit folded = PassPipeline(fold_only, options).run(c);
  EXPECT_EQ(folded.size(), c.size() - 2);
}

}  // namespace
}  // namespace qsp
