// Extension bench: arbitrary complex-amplitude preparation via the phase
// oracle (paper Section VI-A, citing Amy et al.). Reports the CNOT split
// between the magnitude preparation (real workflow) and the diagonal
// phase oracle, with full complex-statevector verification.

#include <iostream>

#include "bench_common.hpp"
#include "circuit/lowering.hpp"
#include "circuit/pass_pipeline.hpp"
#include "flow/solver.hpp"
#include "phase/phase_oracle.hpp"
#include "sim/verifier.hpp"
#include "state/state_factory.hpp"
#include "util/table.hpp"

int main() {
  using namespace qsp;
  bench::print_banner(
      "Extension: complex amplitudes via phase oracle",
      "|psi> = D(phi) |mag>: the workflow prepares the magnitudes, a UCRz\n"
      "chain imprints the support phases (<= 2^n - 2 CNOTs; zero for real\n"
      "targets). Every row is verified on the complex simulator.");

  LoweringOptions elide;
  elide.elide_zero_rotations = true;

  TextTable table({"n", "m", "mag CNOTs", "oracle CNOTs", "total",
                   "verified"});
  Rng rng(2026);
  const int n_max = bench::full_mode() ? 12 : 8;
  for (int n = 3; n <= n_max; ++n) {
    for (const int m : {n, 1 << (n - 1)}) {
      const ComplexState target = make_random_complex(n, m, rng);
      const ComplexPrepResult res = prepare_complex(target);
      if (!res.found) {
        table.add_row({TextTable::fmt(n), TextTable::fmt(m), "-", "-", "-",
                       "failed"});
        continue;
      }
      const Solver solver;
      const WorkflowResult mag = solver.prepare(target.magnitudes());
      const std::int64_t mag_cnots =
          mag.found ? count_cnots_after_lowering(
                          optimize_circuit(mag.circuit), elide)
                    : -1;
      const std::int64_t total =
          count_cnots_after_lowering(optimize_circuit(res.circuit), elide);
      const bool ok = verify_preparation(res.circuit, target).ok;
      if (!ok) {
        std::cerr << "COMPLEX VERIFICATION FAILED at n=" << n << "\n";
        return 1;
      }
      table.add_row({TextTable::fmt(n), TextTable::fmt(m),
                     TextTable::fmt(mag_cnots),
                     TextTable::fmt(total - mag_cnots),
                     TextTable::fmt(total), "yes"});
      bench::json_row("ext_complex_phase",
                      {{"instance",
                        "n=" + std::to_string(n) + " m=" + std::to_string(m)},
                       {"n", n},
                       {"m", m},
                       {"magnitude_cnots", mag_cnots},
                       {"oracle_cnots", total - mag_cnots},
                       {"cnot_cost", total},
                       {"optimal", false},
                       {"seconds", 0.0},
                       {"threads", 1}});
    }
  }
  std::cout << table.render();
  std::cout << "\nThe oracle pays up to 2^n - 2 CNOTs on dense random\n"
               "phases; optimizing it further (parity-network synthesis,\n"
               "Amy et al.) is orthogonal to the magnitude pipeline.\n";
  return 0;
}
