#include "core/slot_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "state/state_factory.hpp"
#include "util/rng.hpp"

namespace qsp {
namespace {

TEST(SlotState, ConstructionMergesAndSorts) {
  const SlotState s(3, {SlotEntry{5, 1}, SlotEntry{2, 2}, SlotEntry{5, 1}});
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.cardinality(), 2);
  EXPECT_EQ(s.entries()[0], (SlotEntry{2, 2}));
  EXPECT_EQ(s.entries()[1], (SlotEntry{5, 2}));
  EXPECT_THROW(SlotState(2, {}), std::invalid_argument);
  EXPECT_THROW(SlotState(2, {SlotEntry{4, 1}}), std::invalid_argument);
  EXPECT_THROW(SlotState(2, {SlotEntry{1, 0}}), std::invalid_argument);
}

TEST(SlotState, FromIndicesAndGround) {
  const SlotState s = SlotState::from_indices(3, {0, 3, 3, 5});
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.cardinality(), 3);
  const SlotState g = SlotState::ground(2, 7);
  EXPECT_TRUE(g.is_ground());
  EXPECT_EQ(g.total(), 7u);
}

TEST(SlotState, StateRoundTripUniform) {
  const QuantumState dicke = make_dicke(4, 2);
  const auto slot = SlotState::from_state(dicke);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->total(), 6u);
  EXPECT_EQ(slot->cardinality(), 6);
  EXPECT_TRUE(slot->to_state().approx_equal(dicke));
}

TEST(SlotState, StateRoundTripMergedAmplitudes) {
  // sqrt(1/4)|00> + sqrt(2/4)|01> + sqrt(1/4)|11>: counts (1, 2, 1).
  const QuantumState s(2, {Term{0, std::sqrt(0.25)}, Term{1, std::sqrt(0.5)},
                           Term{3, std::sqrt(0.25)}});
  const auto slot = SlotState::from_state(s);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->total(), 4u);
  EXPECT_EQ(slot->entries()[1], (SlotEntry{1, 2}));
  EXPECT_TRUE(slot->to_state().approx_equal(s));
}

TEST(SlotState, FromStateRejectsSignsAndIrrational) {
  const QuantumState neg(2, {Term{0, 1.0}, Term{1, -1.0}});
  EXPECT_FALSE(SlotState::from_state(neg).has_value());
  // Irrational squared-amplitude ratio (1 : sqrt(2)) within a small slot
  // budget.
  const QuantumState irr(2, {Term{0, 1.0}, Term{1, std::pow(2.0, 0.25)}});
  EXPECT_FALSE(SlotState::from_state(irr, 1000).has_value());
}

TEST(SlotState, WithXAndCnot) {
  const SlotState s = SlotState::from_indices(3, {0b000, 0b011});
  const SlotState x = s.with_x(2);
  EXPECT_EQ(x.entries()[0].index, 0b100u);
  EXPECT_EQ(x.entries()[1].index, 0b111u);
  // CNOT control q0 positive, target q2: only |011> fires.
  const SlotState c = s.with_cnot(0, true, 2);
  EXPECT_EQ(c.entries()[0].index, 0b000u);
  EXPECT_EQ(c.entries()[1].index, 0b111u);
  // Negative control: only |000> fires.
  const SlotState nc = s.with_cnot(0, false, 2);
  EXPECT_EQ(nc.entries()[0].index, 0b011u);
  EXPECT_EQ(nc.entries()[1].index, 0b100u);
}

TEST(SlotState, WithPermutationAndTranslation) {
  const SlotState s = SlotState::from_indices(3, {0b001, 0b110});
  const SlotState t = s.with_translation(0b001);
  EXPECT_EQ(t.entries()[0].index, 0b000u);
  EXPECT_EQ(t.entries()[1].index, 0b111u);
  const SlotState p = s.with_permutation({2, 1, 0});  // swap q0 and q2
  EXPECT_EQ(p.entries()[0].index, 0b011u);
  EXPECT_EQ(p.entries()[1].index, 0b100u);
}

TEST(SlotState, QubitConstant) {
  const SlotState s = SlotState::from_indices(3, {0b001, 0b011});
  int value = -1;
  EXPECT_TRUE(s.qubit_constant(0, &value));
  EXPECT_EQ(value, 1);
  EXPECT_TRUE(s.qubit_constant(2, &value));
  EXPECT_EQ(value, 0);
  EXPECT_FALSE(s.qubit_constant(1));
}

TEST(SlotState, QubitSeparable) {
  // GHZ-like: not separable.
  const SlotState ghz = SlotState::from_indices(3, {0b000, 0b111});
  for (int q = 0; q < 3; ++q) EXPECT_FALSE(ghz.qubit_separable(q));
  // Product on qubit 2: {00,01} x {0,1}(q2).
  const SlotState prod =
      SlotState::from_indices(3, {0b000, 0b001, 0b100, 0b101});
  EXPECT_TRUE(prod.qubit_separable(2));
  EXPECT_TRUE(prod.qubit_separable(0));
  // Ratio-based separability: counts (1,2) on each rest group of qubit 0.
  const SlotState ratio(2, {SlotEntry{0b00, 1}, SlotEntry{0b01, 2},
                            SlotEntry{0b10, 2}, SlotEntry{0b11, 4}});
  EXPECT_TRUE(ratio.qubit_separable(0));
  EXPECT_TRUE(ratio.qubit_separable(1));
  const SlotState skew(2, {SlotEntry{0b00, 1}, SlotEntry{0b01, 2},
                           SlotEntry{0b10, 2}, SlotEntry{0b11, 3}});
  EXPECT_FALSE(skew.qubit_separable(0));
}

TEST(SlotState, HashAndEquality) {
  const SlotState a = SlotState::from_indices(3, {1, 2});
  const SlotState b = SlotState::from_indices(3, {2, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  const SlotState c = SlotState::from_indices(3, {1, 3});
  EXPECT_NE(a, c);
}

TEST(SlotState, RandomUniformRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    const int m = 2 + static_cast<int>(rng.next_below(6));
    const QuantumState s = make_random_uniform(n, m, rng);
    const auto slot = SlotState::from_state(s);
    ASSERT_TRUE(slot.has_value());
    EXPECT_TRUE(slot->to_state().approx_equal(s));
    EXPECT_EQ(slot->total(), static_cast<std::uint64_t>(m));
  }
}

/// The decomposition rule tried on every total from the cardinality up to
/// `max_total`: the reference that SlotState::from_state must match.
std::optional<SlotState> from_state_linear_scan(const QuantumState& state,
                                                std::uint32_t max_total) {
  for (const Term& t : state.terms()) {
    if (t.amplitude < 0) return std::nullopt;
  }
  std::vector<SlotEntry> entries;
  for (std::uint64_t m = static_cast<std::uint64_t>(state.cardinality());
       m <= max_total; ++m) {
    entries.clear();
    bool ok = true;
    std::uint64_t used = 0;
    for (const Term& t : state.terms()) {
      const double exact = t.amplitude * t.amplitude * static_cast<double>(m);
      const auto count = static_cast<std::uint64_t>(std::llround(exact));
      if (count < 1 || std::abs(exact - static_cast<double>(count)) > 1e-6) {
        ok = false;
        break;
      }
      used += count;
      entries.push_back(SlotEntry{t.index, static_cast<std::uint32_t>(count)});
    }
    if (ok && used == m) return SlotState(state.num_qubits(), entries);
  }
  return std::nullopt;
}

TEST(SlotState, FromStateMatchesLinearScan) {
  // Rational states with totals up to 2^20, the same nudged off their
  // lattice by up to the 1e-6 tolerance, irrational states and the
  // symmetric families, each under three slot budgets.
  Rng rng(2302);
  std::vector<QuantumState> corpus = {make_dicke(6, 3), make_dicke(8, 2),
                                      make_w(7),        make_ghz(5),
                                      make_random_uniform(9, 24, rng)};
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(7));
    const int m = 1 + static_cast<int>(rng.next_below(12));
    const int scale = 4 + 4 * static_cast<int>(rng.next_below(5));
    const auto terms_m = static_cast<std::uint64_t>(m);
    const std::uint64_t total =
        terms_m + rng.next_below((std::uint64_t{1} << scale) - terms_m + 1);
    std::vector<std::uint64_t> counts(terms_m, 1);
    for (std::uint64_t left = total - terms_m; left > 0;) {
      const std::uint64_t share = 1 + rng.next_below(left);
      counts[rng.next_below(counts.size())] += share;
      left -= share;
    }
    const std::vector<std::uint64_t> indices =
        rng.sample_distinct(std::uint64_t{1} << n, counts.size());
    const double nudge =
        trial % 3 == 0 ? 0.0
                       : std::pow(10.0, -6.0 - rng.next_double(0.0, 4.0));
    std::vector<Term> terms;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const double a = std::sqrt(static_cast<double>(counts[i]) /
                                 static_cast<double>(total));
      terms.push_back(Term{static_cast<BasisIndex>(indices[i]),
                           a * (1.0 + (i == 0 ? nudge : 0.0))});
    }
    corpus.emplace_back(n, std::move(terms));
    corpus.push_back(make_random_real(n, m, rng, false));
  }
  int decomposable = 0;
  for (const QuantumState& state : corpus) {
    for (const std::uint32_t max_total : {255u, 1u << 12, 1u << 20}) {
      const auto expected = from_state_linear_scan(state, max_total);
      const auto actual = SlotState::from_state(state, max_total);
      ASSERT_EQ(actual.has_value(), expected.has_value())
          << state.to_string() << " max_total " << max_total;
      if (!expected.has_value()) continue;
      ++decomposable;
      EXPECT_EQ(*actual, *expected) << state.to_string();
    }
  }
  EXPECT_GT(decomposable, 100);
}

}  // namespace
}  // namespace qsp
