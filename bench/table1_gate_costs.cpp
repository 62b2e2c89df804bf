// Table I reproduction: CNOT costs of the gate library. For each gate we
// print the model cost and the measured CNOT count of its lowering to
// {U(2), CNOT}, and check the lowering implements the same unitary.

#include <cmath>
#include <iostream>
#include <string>
#include <tuple>

#include "bench_common.hpp"
#include "circuit/cost_model.hpp"
#include "circuit/lowering.hpp"
#include "sim/statevector.hpp"
#include "util/table.hpp"

namespace {

using namespace qsp;

/// Max |difference| between the two circuits' action on every basis state.
double unitary_distance(const Circuit& a, const Circuit& b, int n) {
  double worst = 0.0;
  for (BasisIndex x = 0; x < (BasisIndex{1} << n); ++x) {
    std::vector<double> basis(std::size_t{1} << n, 0.0);
    basis[x] = 1.0;
    Statevector sa(QuantumState::from_dense(n, basis));
    Statevector sb(QuantumState::from_dense(n, basis));
    sa.apply(a);
    sb.apply(b);
    for (std::size_t i = 0; i < sa.amplitudes().size(); ++i) {
      worst = std::max(worst,
                       std::abs(sa.amplitudes()[i] - sb.amplitudes()[i]));
    }
  }
  return worst;
}

void report(TextTable& table, const std::string& name, const Gate& gate,
            int n) {
  Circuit c(n);
  c.append(gate);
  const Circuit low = lower(c);
  const double dist = unitary_distance(c, low, n);
  table.add_row({name, TextTable::fmt(gate_cnot_cost(gate)),
                 TextTable::fmt(lowered_cnot_count(low)),
                 dist < 1e-9 ? "yes" : "NO"});
  bench::json_row("table1_gate_costs",
                  {{"instance", name},
                   {"target", "cnot"},
                   {"model_cost", gate_cnot_cost(gate)},
                   {"cnot_cost", lowered_cnot_count(low)},
                   {"optimal", true},
                   {"seconds", 0.0},
                   {"threads", 1}});
  if (dist >= 1e-9) {
    std::cerr << "lowering mismatch for " << name << "\n";
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace qsp;
  bench::print_banner(
      "Table I: gate library CNOT costs",
      "Model cost vs measured CNOTs after lowering to {U(2), CNOT}; the\n"
      "lowering is checked for unitary equivalence on the full basis.");

  TextTable table({"gate", "model cost", "lowered CNOTs", "unitary ok"});
  report(table, "Ry", Gate::ry(0, 1.234), 1);
  report(table, "X", Gate::x(0), 1);
  report(table, "CNOT", Gate::cnot(0, 1), 2);
  report(table, "CRy", Gate::cry(0, 1, 0.9), 2);
  const int max_controls = bench::full_mode() ? 8 : 6;
  for (int c = 2; c <= max_controls; ++c) {
    std::vector<ControlLiteral> controls;
    for (int q = 0; q < c; ++q) {
      controls.push_back(ControlLiteral{q, (q % 3) != 0});
    }
    report(table, "MCRy (" + std::to_string(c) + " ctrl)",
           Gate::mcry(controls, c, 0.77), c + 1);
  }
  std::cout << table.render();
  std::cout << "\nPaper Table I: Ry=0, CNOT=1, CRy=2, MCRy(c)=2^c.\n";

  // Backend legalization: the same library lowered onto each built-in
  // target. The native two-qubit count is (lowered CNOTs) x (natives per
  // CNOT): 1 for CZ/RZZ, 2 for iSwap.
  TextTable legal({"gate", "target", "2q gates"});
  for (const Target& target : Target::builtin()) {
    if (target.is_cnot()) continue;
    for (const auto& [name, gate, width] :
         {std::tuple<std::string, Gate, int>{"CNOT", Gate::cnot(0, 1), 2},
          {"CRy", Gate::cry(0, 1, 0.9), 2},
          {"MCRy (3 ctrl)",
           Gate::mcry({ControlLiteral{0, true}, ControlLiteral{1, true},
                       ControlLiteral{2, false}},
                      3, 0.77),
           4}}) {
      Circuit c(width);
      c.append(gate);
      const std::int64_t count = count_two_qubit_after_lowering(c, target);
      legal.add_row({name, std::string(target.name()), TextTable::fmt(count)});
      bench::json_row("table1_gate_costs",
                      {{"instance", name + " @" + std::string(target.name())},
                       {"target", std::string(target.name())},
                       {"model_cost", gate_cnot_cost(gate)},
                       {"cnot_cost", count},
                       {"optimal", true},
                       {"seconds", 0.0},
                       {"threads", 1}});
    }
  }
  std::cout << "\n" << legal.render();
  return 0;
}
