#pragma once
// Runtime SIMD instruction-set dispatch for the integer wide primitives in
// util/bitops (packed canonical words and slot-entry columns). The active
// ISA is resolved exactly once per process: the QSP_SIMD environment
// variable ("scalar" or "avx2") wins when set and satisfiable, otherwise
// the best ISA the CPU supports is selected. Every wide primitive has a
// scalar and (on x86-64) an AVX2 implementation that compute the same
// words, so the choice is a pure performance knob — results never depend
// on it (pinned by the differential suites in tests/test_simd.cpp).
// Floating-point code (the statevector simulator, the multiplexor angle
// transform) has one implementation and does not dispatch.

#include <atomic>

namespace qsp::simd {

enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when this build can emit AVX2 kernels AND the running CPU
/// advertises AVX2. Constant per process.
bool avx2_supported();

/// The ISA every dispatching wide primitive uses. Resolved once (env
/// override first, then CPU detection) and cached; see file comment.
Isa active_isa();

/// Human-readable name ("scalar" / "avx2") for logs and bench JSON.
const char* isa_name(Isa isa);

/// Test-only override of the dispatch choice, e.g. to compute canonical
/// keys once per ISA and compare them. Returns the previous
/// ISA. Requesting kAvx2 without support throws. Not for production use:
/// the override is process-global.
Isa set_isa_for_testing(Isa isa);

/// RAII form of set_isa_for_testing for differential tests.
class ScopedIsaForTesting {
 public:
  explicit ScopedIsaForTesting(Isa isa) : previous_(set_isa_for_testing(isa)) {}
  ~ScopedIsaForTesting() { set_isa_for_testing(previous_); }
  ScopedIsaForTesting(const ScopedIsaForTesting&) = delete;
  ScopedIsaForTesting& operator=(const ScopedIsaForTesting&) = delete;

 private:
  Isa previous_;
};

}  // namespace qsp::simd
