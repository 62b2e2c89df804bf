#pragma once
// State compression by canonicalization (paper Section V-B). States are
// grouped into equivalence classes under zero-CNOT-cost operations:
//   U(2):   single-qubit gates  -> X-translations + free merges of
//           separable qubits (which also "filter out separable qubits")
//   P U(2): additionally qubit permutations (symmetric coupling assumed)
//
// The search stores one raw state per class; keys are canonical slot
// vectors, so collisions are impossible by construction.

#include <cstddef>
#include <vector>

#include "circuit/gate.hpp"
#include "core/slot_state.hpp"

namespace qsp {

enum class CanonicalLevel {
  kNone,       ///< identity (ablation; zero-cost arcs must be searched)
  kU2,         ///< free merges + X-translation minimization
  kPU2Greedy,  ///< + deterministic greedy qubit ordering (sound, may split
               ///<   an orbit into several classes; used for larger n)
  kPU2Exact,   ///< + exact lex-min over all qubit permutations (n <= 8),
               ///<   found by branch and bound over output bit positions:
               ///<   a partial relabeling whose fixed low words are not
               ///<   minimal is dropped. Above n = 8 it runs the greedy
               ///<   ordering; raising that cutoff would change keys.
};

/// Canonical form: sorted (index << 32 | count) entries after compression
/// and transform minimization. Equal keys <=> same equivalence class
/// (kNone/kU2/kPU2Exact) or same sub-class (kPU2Greedy).
using CanonicalKey = std::vector<std::uint64_t>;

struct CanonicalKeyHash {
  std::size_t operator()(const CanonicalKey& key) const;
};

/// Apply all zero-cost merges: clear every separable non-constant qubit to
/// 0, repeating to a fixed point. Slot count is preserved. When
/// `merge_gates` is non-null, the Ry gates realizing each merge on the
/// statevector are appended to it (in application order).
SlotState compress_free(const SlotState& state,
                        std::vector<Gate>* merge_gates = nullptr);

/// Canonical key of the state's equivalence class at the given level.
CanonicalKey canonical_key(const SlotState& state, CanonicalLevel level);

/// A canonical key together with the zero-cost transformation that reaches
/// it: applying `merge_gates` (in order), then an X on every set bit of
/// `translation`, then relabeling qubits (bit permutation[q] of the new
/// index is bit q of the old one) maps the state's vector exactly onto the
/// amplitudes of the canonical form read as a slot state. The equivalence
/// cache uses this to rewire one class representative's optimal circuit
/// onto another member of the same class at zero extra CNOT cost.
struct CanonicalWitness {
  CanonicalKey key;
  std::vector<Gate> merge_gates;
  BasisIndex translation = 0;
  std::vector<int> permutation;
};

/// Witness variant of canonical_key: `result.key` equals
/// canonical_key(state, level) bit for bit (both run the same candidate
/// scan), plus the transformation that realizes it.
CanonicalWitness canonical_witness(const SlotState& state,
                                   CanonicalLevel level);

/// True if the state is reducible to ground by zero-cost gates alone.
bool free_reducible(const SlotState& state, CanonicalLevel level);

/// Zero-cost gate sequence (Ry merges and X flips) mapping `state` to the
/// ground state. Throws std::invalid_argument if the state is not fully
/// separable. If `reached` is non-null it receives the final slot state.
std::vector<Gate> free_disentangle_gates(const SlotState& state,
                                         SlotState* reached = nullptr);

/// Like free_disentangle_gates but stops instead of throwing when only
/// entangled qubits remain: peels all separable structure (Ry merges, X
/// flips) and returns the gates; `state` is updated to the peeled form,
/// whose qubits are each either constant 0 or entangled.
std::vector<Gate> free_peel_gates(SlotState& state);

}  // namespace qsp
