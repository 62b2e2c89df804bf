#pragma once
// Gate IR. The library of the paper (Table I): Ry, CNOT, controlled-Ry and
// multi-controlled Ry, plus X (a zero-cost single-qubit gate used by the
// canonicalization) and the uniformly-controlled Ry multiplexor (UCRy) used
// both by the n-flow baseline and as the lowering vehicle for MCRy.

#include <cstdint>
#include <string>
#include <vector>

namespace qsp {

enum class GateKind : std::uint8_t {
  kX,     ///< Pauli-X on the target.
  kRy,    ///< Ry(theta) on the target.
  kCNOT,  ///< Controlled-X, one control literal.
  kCRy,   ///< Controlled-Ry(theta), one control literal.
  kMCRy,  ///< Multi-controlled Ry(theta), >= 2 control literals.
  kUCRy,  ///< Uniformly controlled Ry: one rotation per control pattern.
  // Z-axis rotations for the phase-oracle extension (complex amplitudes,
  // paper Section VI-A). They leave the measurement distribution alone and
  // are simulated by the complex statevector only.
  kRz,    ///< Rz(theta) = diag(e^{-i theta/2}, e^{i theta/2}).
  kUCRz,  ///< Uniformly controlled Rz: one rotation per control pattern.
  // Device-native two-qubit gates for backend legalization (target.hpp).
  // Symmetric on their two wires; stored with the lower wire as a positive
  // "control" literal so the Gate layout is reused, but neither wire is a
  // control in the circuit-semantics sense.
  kCZ,     ///< Controlled-Z: diag(1, 1, 1, -1) on the wire pair.
  kISwap,  ///< iSWAP: |01> -> i|10>, |10> -> i|01>, |00>/|11> fixed.
  kRZZ,    ///< exp(-i theta/2 Z(x)Z): e^{-i theta/2} on equal bits,
           ///< e^{+i theta/2} on unequal bits.
};

/// Rotations with every |angle| at or below this are the identity: the
/// dead-rotation pass drops them, zero-eliding lowering skips them, lint
/// rule QL006 flags them and the dataflow engine does not widen on them.
/// is_identity_rotation (below) is the one place that applies it.
inline constexpr double kIdentityAngleEpsilon = 1e-12;

/// A control literal: gate fires when `qubit` holds `positive ? 1 : 0`.
struct ControlLiteral {
  int qubit = 0;
  bool positive = true;

  friend bool operator==(const ControlLiteral&,
                         const ControlLiteral&) = default;
};

/// One gate instance. The static factories are the only way to build one,
/// and every Gate obeys their rules: wires are non-negative and distinct,
/// CZ/iSWAP/RZZ store their lower wire as the positive control literal,
/// MCRy controls are sorted by wire, and a UCRy/UCRz angle table has
/// 2^controls entries.
class Gate {
 public:
  static Gate x(int target);
  static Gate ry(int target, double theta);
  static Gate cnot(int control, int target, bool positive = true);
  static Gate cry(int control, int target, double theta,
                  bool positive = true);
  /// Controls must name distinct qubits, none equal to the target.
  static Gate mcry(std::vector<ControlLiteral> controls, int target,
                   double theta);
  /// `angles.size()` must equal 2^controls.size(); angles[s] applies when
  /// the control qubits (controls[i] = bit i of s) read pattern s.
  static Gate ucry(std::vector<int> controls, int target,
                   std::vector<double> angles);
  static Gate rz(int target, double theta);
  /// Uniformly controlled Rz; same pattern convention as ucry.
  static Gate ucrz(std::vector<int> controls, int target,
                   std::vector<double> angles);
  /// Symmetric device natives: the wire pair is canonicalized (the lower
  /// wire is stored as the positive control literal), so cz(a, b) ==
  /// cz(b, a) and adjacent duplicates cancel/fuse under the passes.
  static Gate cz(int a, int b);
  static Gate iswap(int a, int b);
  static Gate rzz(int a, int b, double theta);

  GateKind kind() const { return kind_; }
  int target() const { return target_; }
  double theta() const { return theta_; }
  const std::vector<ControlLiteral>& controls() const { return controls_; }
  const std::vector<double>& angles() const { return angles_; }
  int num_controls() const;

  /// Inverse gate (same kind; rotations get negated angles). Throws
  /// std::logic_error for kISwap, whose inverse is not in the gate set
  /// (iSwap^2 = Z(x)Z, not the identity); iSwap only appears in terminal
  /// legalized circuits, which are never adjointed.
  Gate adjoint() const;

  /// Gate with every qubit id q replaced by qubit_map[q] (used to embed
  /// narrow sub-circuits into a wider register and to relabel cached
  /// templates), built by this kind's factory: the result equals the gate
  /// the factory makes from the mapped fields, so a symmetric pair comes
  /// back in (lower, higher) order and MCRy controls come back sorted.
  /// Only the wires change: angles, tables and the unused theta of a kind
  /// without an angle keep their bits.
  /// Throws std::invalid_argument for a qubit outside the map, and for a
  /// map that sends a wire negative or two of the gate's wires together.
  Gate remapped(const std::vector<int>& qubit_map) const;

  /// All qubits the gate touches (target + controls).
  std::vector<int> qubits() const;

  /// Largest qubit id referenced.
  int max_qubit() const;

  std::string to_string() const;

  friend bool operator==(const Gate&, const Gate&) = default;

 private:
  Gate() = default;

  GateKind kind_ = GateKind::kX;
  int target_ = 0;
  double theta_ = 0.0;
  std::vector<ControlLiteral> controls_;
  std::vector<double> angles_;  // UCRy only
};

/// True when the gate is a rotation (Ry, CRy, MCRy, Rz, RZZ, UCRy, UCRz)
/// whose every angle has magnitude at most kIdentityAngleEpsilon, so the
/// gate is the identity.
bool is_identity_rotation(const Gate& gate);

/// True for the kinds that are their own inverse (X, CNOT, CZ): two equal
/// adjacent gates of such a kind are the identity.
bool is_self_inverse(GateKind kind);

}  // namespace qsp
