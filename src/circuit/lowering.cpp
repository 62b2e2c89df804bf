#include "circuit/lowering.hpp"

#include <stdexcept>
#include <string>

#include "circuit/cost_model.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace qsp {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Sum over i in [0, n) of parity(i & mask) ? -a[i] : a[i], the
/// Walsh-style transform behind ucry_multiplexor_angles. Element i feeds
/// lane i % 4 and the lanes combine as (l0 + l2) + (l1 + l3). That
/// rounding order is part of the output: a one-ulp change can flip
/// zero-rotation elision, and with it the CNOT counts.
double parity_signed_sum(const double* a, std::size_t n, std::uint32_t mask) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const int par = parity(static_cast<BasisIndex>(i), mask);
    lane[i & 3] += (par != 0) ? -a[i] : a[i];
  }
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

void emit_ucr(Circuit& out, const std::vector<int>& controls, int target,
              const std::vector<double>& pattern_angles,
              const LoweringOptions& options, bool z_axis);

void emit_ucry(Circuit& out, const std::vector<int>& controls, int target,
               const std::vector<double>& pattern_angles,
               const LoweringOptions& options) {
  emit_ucr(out, controls, target, pattern_angles, options, /*z_axis=*/false);
}

void emit_cry(Circuit& out, const ControlLiteral& c, int target,
              double theta) {
  // Standard 2-CNOT realization. With the circuit [Ry(a); CX; Ry(b); CX]
  // the control=1 branch sees Ry(a - b) and the control=0 branch Ry(a+b):
  //   positive literal: a =  theta/2, b = -theta/2
  //   negative literal: a =  theta/2, b = +theta/2
  const double a = theta / 2;
  const double b = c.positive ? -theta / 2 : theta / 2;
  out.append(Gate::ry(target, a));
  out.append(Gate::cnot(c.qubit, target));
  out.append(Gate::ry(target, b));
  out.append(Gate::cnot(c.qubit, target));
}

void emit_ucr(Circuit& out, const std::vector<int>& controls, int target,
              const std::vector<double>& pattern_angles,
              const LoweringOptions& options, bool z_axis) {
  auto rotation = [&](double theta) {
    return z_axis ? Gate::rz(target, theta) : Gate::ry(target, theta);
  };
  const std::size_t c = controls.size();
  if (c == 0) {
    Gate r = rotation(pattern_angles[0]);
    if (!options.elide_zero_rotations || !is_identity_rotation(r)) {
      out.append(std::move(r));
    }
    return;
  }
  const std::vector<double> phi = ucry_multiplexor_angles(pattern_angles);
  const std::uint32_t slots = std::uint32_t{1} << c;
  // Gray-code walk: rotation j, then CNOT whose control is the bit that
  // changes between gray(j) and gray(j+1); the last CNOT closes the cycle
  // with the top control so the accumulated X-parity cancels.
  std::uint32_t pending_mask = 0;  // control bits of postponed CNOTs
  auto flush = [&] {
    for (std::size_t b = 0; b < c; ++b) {
      if ((pending_mask >> b) & 1u) {
        out.append(Gate::cnot(controls[b], target));
      }
    }
    pending_mask = 0;
  };
  for (std::uint32_t j = 0; j < slots; ++j) {
    Gate r = rotation(phi[j]);
    if (!options.elide_zero_rotations || !is_identity_rotation(r)) {
      flush();
      out.append(std::move(r));
    }
    const int change =
        (j + 1 == slots) ? static_cast<int>(c) - 1 : gray_change_bit(j);
    pending_mask ^= std::uint32_t{1} << change;
  }
  flush();
}

// ---------------------------------------------------------------------------
// mcry-expand: MCRy -> UCRy via the one-hot pattern-angle embedding. The
// Walsh transform of a one-hot angle vector is dense, so no elision
// applies downstream and the lowered cost is exactly 2^c (Table I).
// ---------------------------------------------------------------------------
class McryExpandPass final : public Pass {
 public:
  std::string_view name() const override { return "mcry-expand"; }
  unsigned preserves() const override {
    return kPreservesPreparation | kPreservesCoupling;
  }

  bool run(Circuit& circuit, const PassOptions&) const override {
    bool changed = false;
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      if (g.kind() == GateKind::kMCRy) {
        out.append(mcry_to_ucry(g));
        changed = true;
      } else {
        out.append(g);
      }
    }
    if (changed) circuit = std::move(out);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// ucr-gray-lower: multiplexors and controlled rotations down to the
// primitive {X, Ry, Rz, CNOT} stream — UCRy/UCRz via the gray-code walk,
// CRy via the 2-CNOT form, negative-control CNOTs via X conjugation, and
// (with PassOptions::elide_zero_rotations) trivial rotations dropped.
// MCRy is accepted too (embedded first) so the pass is total even when
// run outside the staged sequence.
// ---------------------------------------------------------------------------
class UcrGrayLowerPass final : public Pass {
 public:
  std::string_view name() const override { return "ucr-gray-lower"; }
  unsigned preserves() const override {
    return kPreservesPreparation | kPreservesCoupling;
  }

  bool run(Circuit& circuit, const PassOptions& options) const override {
    const LoweringOptions lowering{options.elide_zero_rotations};
    bool changed = false;
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      switch (g.kind()) {
        case GateKind::kX:
        case GateKind::kCZ:
        case GateKind::kISwap:
        case GateKind::kRZZ:
          out.append(g);
          break;
        case GateKind::kRy:
        case GateKind::kRz:
          if (lowering.elide_zero_rotations && is_identity_rotation(g)) {
            changed = true;
          } else {
            out.append(g);
          }
          break;
        case GateKind::kCNOT: {
          const ControlLiteral c = g.controls()[0];
          if (c.positive) {
            out.append(g);
          } else {
            out.append(Gate::x(c.qubit));
            out.append(Gate::cnot(c.qubit, g.target()));
            out.append(Gate::x(c.qubit));
            changed = true;
          }
          break;
        }
        case GateKind::kCRy:
          emit_cry(out, g.controls()[0], g.target(), g.theta());
          changed = true;
          break;
        case GateKind::kMCRy:
        case GateKind::kUCRy: {
          const Gate u = mcry_to_ucry(g);
          std::vector<int> controls;
          for (const auto& c : u.controls()) controls.push_back(c.qubit);
          emit_ucry(out, controls, u.target(), u.angles(), lowering);
          changed = true;
          break;
        }
        case GateKind::kUCRz: {
          std::vector<int> controls;
          for (const auto& c : g.controls()) controls.push_back(c.qubit);
          emit_ucr(out, controls, g.target(), g.angles(), lowering,
                   /*z_axis=*/true);
          changed = true;
          break;
        }
      }
    }
    if (changed) circuit = std::move(out);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// native-legalize: every CNOT becomes the PassOptions::target's native
// two-qubit gate plus single-qubit dressing; other gates pass through
// (composites are the earlier stages' business). The decompositions stay
// on the CNOT's own wire pair, so routed circuits stay on device edges.
// All three were verified against the CNOT unitary up to global phase.
// ---------------------------------------------------------------------------
class NativeLegalizePass final : public Pass {
 public:
  std::string_view name() const override { return "native-legalize"; }
  unsigned preserves() const override {
    return kPreservesPreparation | kPreservesCoupling;
  }

  bool run(Circuit& circuit, const PassOptions& options) const override {
    if (options.target.is_cnot()) return false;
    bool changed = false;
    Circuit out(circuit.num_qubits());
    for (const Gate& g : circuit.gates()) {
      if (g.kind() != GateKind::kCNOT) {
        out.append(g);
        continue;
      }
      const ControlLiteral c = g.controls()[0];
      if (!c.positive) out.append(Gate::x(c.qubit));
      emit_native_cnot(out, c.qubit, g.target(), options.target);
      if (!c.positive) out.append(Gate::x(c.qubit));
      changed = true;
    }
    if (changed) circuit = std::move(out);
    return changed;
  }

 private:
  static void emit_native_cnot(Circuit& out, int c, int t,
                               const Target& target) {
    switch (target.two_qubit_kind()) {
      case GateKind::kCZ:
        // CNOT = H_t CZ H_t with H = X * Ry(pi/2) as an operator
        // product; in circuit order the Ry precedes the X. Exact.
        out.append(Gate::ry(t, kPi / 2));
        out.append(Gate::x(t));
        out.append(Gate::cz(c, t));
        out.append(Gate::ry(t, kPi / 2));
        out.append(Gate::x(t));
        break;
      case GateKind::kRZZ:
        // CZ = Rz_c(pi/2) Rz_t(pi/2) RZZ(-pi/2) up to a global
        // e^{-i pi/4} (all diagonal, so the order is free), wrapped in
        // the same Hadamard conjugation as the CZ case.
        out.append(Gate::ry(t, kPi / 2));
        out.append(Gate::x(t));
        out.append(Gate::rz(c, kPi / 2));
        out.append(Gate::rz(t, kPi / 2));
        out.append(Gate::rzz(c, t, -kPi / 2));
        out.append(Gate::ry(t, kPi / 2));
        out.append(Gate::x(t));
        break;
      case GateKind::kISwap:
        // Two-iSwap realization, up to global phase, with
        // Rx(th) = [Rz(pi/2); Ry(th); Rz(-pi/2)] in circuit order and
        // the two adjacent target Rz(pi/2) pre-fused into Rz(pi):
        //   [Rz_t(pi/2); iSwap; Rx_c(pi/2); iSwap; Rz_t(pi);
        //    Ry_t(pi/2); Rz_t(-pi/2); Rz_c(-pi/2)]
        out.append(Gate::rz(t, kPi / 2));
        out.append(Gate::iswap(c, t));
        out.append(Gate::rz(c, kPi / 2));
        out.append(Gate::ry(c, kPi / 2));
        out.append(Gate::rz(c, -kPi / 2));
        out.append(Gate::iswap(c, t));
        out.append(Gate::rz(t, kPi));
        out.append(Gate::ry(t, kPi / 2));
        out.append(Gate::rz(t, -kPi / 2));
        out.append(Gate::rz(c, -kPi / 2));
        break;
      case GateKind::kCNOT:
      default:
        QSP_ASSERT_MSG(false, "native-legalize: not a two-qubit target");
    }
  }
};

/// The UCRy equal to a CRy, MCRy or UCRy (one-hot pattern-angle table);
/// throws std::invalid_argument naming `caller` for any other kind.
Gate embed_ucry(const Gate& gate, const char* caller) {
  if (gate.kind() == GateKind::kUCRy) return gate;
  if (gate.kind() != GateKind::kMCRy && gate.kind() != GateKind::kCRy) {
    throw std::invalid_argument(std::string(caller) +
                                ": not a CRy, MCRy or UCRy: " +
                                gate.to_string());
  }
  std::vector<int> controls;
  std::uint32_t pattern = 0;
  for (std::size_t i = 0; i < gate.controls().size(); ++i) {
    controls.push_back(gate.controls()[i].qubit);
    if (gate.controls()[i].positive) pattern |= std::uint32_t{1} << i;
  }
  std::vector<double> angles(std::size_t{1} << controls.size(), 0.0);
  angles[pattern] = gate.theta();
  return Gate::ucry(std::move(controls), gate.target(), std::move(angles));
}

}  // namespace

const std::vector<const Pass*>& lowering_pass_sequence() {
  static const McryExpandPass mcry_expand;
  static const UcrGrayLowerPass ucr_gray_lower;
  static const NativeLegalizePass native_legalize;
  static const std::vector<const Pass*> passes = {
      &mcry_expand,
      &ucr_gray_lower,
      &native_legalize,
  };
  return passes;
}

Gate mcry_to_ucry(const Gate& gate) { return embed_ucry(gate, "mcry_to_ucry"); }

Gate reorder_ucry_controls(const Gate& gate,
                           const std::vector<int>& new_order) {
  const Gate u = embed_ucry(gate, "reorder_ucry_controls");
  const std::size_t c = u.controls().size();
  if (new_order.size() != c) {
    throw std::invalid_argument("reorder_ucry_controls: order size");
  }
  // position_of[q] = bit position of control qubit q in the current gate.
  std::vector<int> old_bit(c);
  for (std::size_t j = 0; j < c; ++j) {
    int found = -1;
    for (std::size_t i = 0; i < c; ++i) {
      if (u.controls()[i].qubit == new_order[j]) found = static_cast<int>(i);
    }
    if (found < 0) {
      throw std::invalid_argument(
          "reorder_ucry_controls: order must permute the controls");
    }
    old_bit[j] = found;
  }
  std::vector<double> angles(u.angles().size());
  for (std::uint32_t s_new = 0; s_new < angles.size(); ++s_new) {
    std::uint32_t s_old = 0;
    for (std::size_t j = 0; j < c; ++j) {
      if ((s_new >> j) & 1u) {
        s_old |= std::uint32_t{1} << old_bit[j];
      }
    }
    angles[s_new] = u.angles()[s_old];
  }
  return Gate::ucry(new_order, u.target(), std::move(angles));
}

std::vector<double> ucry_multiplexor_angles(const std::vector<double>& a) {
  const std::size_t slots = a.size();
  if (slots == 0 || (slots & (slots - 1)) != 0) {
    throw std::invalid_argument(
        "ucry_multiplexor_angles: table size must be a power of two, not " +
        std::to_string(slots));
  }
  std::vector<double> phi(slots, 0.0);
  for (std::uint32_t j = 0; j < slots; ++j) {
    const std::uint32_t g = gray_code(j);
    phi[j] = parity_signed_sum(a.data(), slots, g) /
             static_cast<double>(slots);
  }
  return phi;
}

Circuit lower_onto(const Circuit& circuit, const Target& target,
                   const LoweringOptions& options) {
  PassOptions pass_options;
  pass_options.elide_zero_rotations = options.elide_zero_rotations;
  pass_options.target = target;
  Circuit out = circuit;
  for (const Pass* pass : lowering_pass_sequence()) {
    pass->run(out, pass_options);
  }
  return out;
}

Circuit lower(const Circuit& circuit, const LoweringOptions& options) {
  // Identity-target staged lowering. Every stage rewrites gates locally
  // and in order, so the composition is gate-for-gate identical to the
  // historical monolithic walk (regression-pinned in tests/test_lowering).
  return lower_onto(circuit, Target::cnot(), options);
}

std::int64_t lowered_cnot_count(const Circuit& lowered) {
  return two_qubit_gate_count(lowered, Target::cnot());
}

std::int64_t count_cnots_after_lowering(const Circuit& circuit,
                                        const LoweringOptions& options) {
  return lowered_cnot_count(lower(circuit, options));
}

std::int64_t count_two_qubit_after_lowering(const Circuit& circuit,
                                            const Target& target,
                                            const LoweringOptions& options) {
  return two_qubit_gate_count(lower_onto(circuit, target, options), target);
}

}  // namespace qsp
