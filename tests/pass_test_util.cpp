#include "pass_test_util.hpp"

#include <cmath>
#include <deque>
#include <stdexcept>

namespace qsp::test {
namespace {

constexpr double kPi = 3.14159265358979323846;

double random_angle(Rng& rng, const CorpusOptions& options) {
  if (rng.next_bool(options.near_zero_fraction)) {
    // Below the default dead-rotation epsilon (1e-12), signed.
    return rng.next_double(-1e-13, 1e-13);
  }
  return rng.next_double(-kPi, kPi);
}

std::vector<double> random_angles(std::size_t count, Rng& rng,
                                  const CorpusOptions& options) {
  std::vector<double> angles(count);
  // Draw the whole multiplexor near zero or generic as a block, so UCRy
  // and UCRz instances actually exercise the dead-rotation pass (mixing
  // per-slot would almost never produce an all-trivial multiplexor).
  const bool near_zero = rng.next_bool(options.near_zero_fraction);
  for (double& a : angles) {
    a = near_zero ? rng.next_double(-1e-13, 1e-13)
                  : rng.next_double(-kPi, kPi);
  }
  return angles;
}

/// Distinct qubit ids: one target plus `controls` controls.
std::vector<int> distinct_qubits(int n, int count, Rng& rng) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(count));
  for (const std::uint64_t q :
       rng.sample_distinct(static_cast<std::uint64_t>(n),
                           static_cast<std::size_t>(count))) {
    out.push_back(static_cast<int>(q));
  }
  rng.shuffle(out);
  return out;
}

}  // namespace

Gate random_gate(int n, Rng& rng, const CorpusOptions& options) {
  if (n < 2) throw std::invalid_argument("random_gate: need >= 2 qubits");
  const int kinds = options.with_phase_gates ? 8 : 6;
  switch (static_cast<int>(rng.next_below(static_cast<std::uint64_t>(kinds)))) {
    case 0:
      return Gate::x(static_cast<int>(rng.next_below(n)));
    case 1:
      return Gate::ry(static_cast<int>(rng.next_below(n)),
                      random_angle(rng, options));
    case 2: {
      const std::vector<int> q = distinct_qubits(n, 2, rng);
      return Gate::cnot(q[0], q[1], rng.next_bool(0.8));
    }
    case 3: {
      const std::vector<int> q = distinct_qubits(n, 2, rng);
      return Gate::cry(q[0], q[1], random_angle(rng, options),
                       rng.next_bool(0.8));
    }
    case 4: {
      if (n < 3) {
        const std::vector<int> q = distinct_qubits(n, 2, rng);
        return Gate::cry(q[0], q[1], random_angle(rng, options));
      }
      const int num_controls =
          2 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(std::min(n - 1, 3) - 1)));
      const std::vector<int> q = distinct_qubits(n, num_controls + 1, rng);
      std::vector<ControlLiteral> controls;
      for (int i = 0; i < num_controls; ++i) {
        controls.push_back({q[static_cast<std::size_t>(i)], rng.next_bool(0.8)});
      }
      return Gate::mcry(std::move(controls), q.back(),
                        random_angle(rng, options));
    }
    case 5: {
      const int num_controls =
          1 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(std::min(n - 1, 2))));
      std::vector<int> q = distinct_qubits(n, num_controls + 1, rng);
      const int target = q.back();
      q.pop_back();
      return Gate::ucry(std::move(q), target,
                        random_angles(std::size_t{1} << num_controls, rng,
                                      options));
    }
    case 6:
      return Gate::rz(static_cast<int>(rng.next_below(n)),
                      random_angle(rng, options));
    default: {
      const int num_controls =
          1 + static_cast<int>(rng.next_below(
                  static_cast<std::uint64_t>(std::min(n - 1, 2))));
      std::vector<int> q = distinct_qubits(n, num_controls + 1, rng);
      const int target = q.back();
      q.pop_back();
      return Gate::ucrz(std::move(q), target,
                        random_angles(std::size_t{1} << num_controls, rng,
                                      options));
    }
  }
}

Circuit random_circuit(int n, int size, Rng& rng,
                       const CorpusOptions& options) {
  Circuit circuit(n);
  std::deque<Gate> recent;
  for (int i = 0; i < size; ++i) {
    if (!recent.empty() && rng.next_bool(options.duplicate_fraction)) {
      // Re-emit a recent gate verbatim: X/CNOT repeats become cancellation
      // pairs, rotation repeats become fusion pairs, usually with a few
      // unrelated gates in between for the commutation-aware passes.
      circuit.append(recent[static_cast<std::size_t>(
          rng.next_below(recent.size()))]);
      continue;
    }
    Gate g = random_gate(n, rng, options);
    recent.push_back(g);
    if (recent.size() > 4) recent.pop_front();
    circuit.append(std::move(g));
  }
  return circuit;
}

std::vector<Circuit> random_circuit_corpus(const CorpusOptions& options) {
  std::vector<Circuit> corpus;
  Rng rng(options.seed);
  for (const int n : options.widths) {
    for (int i = 0; i < options.circuits_per_width; ++i) {
      corpus.push_back(random_circuit(n, options.gates_per_circuit, rng,
                                      options));
    }
  }
  return corpus;
}

Circuit random_coupled_circuit(const CouplingGraph& device, int size, Rng& rng,
                               const CorpusOptions& options) {
  const int n = device.num_qubits();
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (device.has_edge(a, b)) edges.emplace_back(a, b);
    }
  }
  if (edges.empty()) {
    throw std::invalid_argument("random_coupled_circuit: device has no edges");
  }
  Circuit circuit(n);
  std::deque<Gate> recent;
  for (int i = 0; i < size; ++i) {
    if (!recent.empty() && rng.next_bool(options.duplicate_fraction)) {
      circuit.append(recent[static_cast<std::size_t>(
          rng.next_below(recent.size()))]);
      continue;
    }
    Gate g = Gate::x(0);
    switch (rng.next_below(options.with_phase_gates ? 4 : 3)) {
      case 0:
        g = Gate::x(static_cast<int>(rng.next_below(n)));
        break;
      case 1:
        g = Gate::ry(static_cast<int>(rng.next_below(n)),
                     random_angle(rng, options));
        break;
      case 2: {
        const auto& [a, b] = edges[static_cast<std::size_t>(
            rng.next_below(edges.size()))];
        g = rng.next_bool() ? Gate::cnot(a, b) : Gate::cnot(b, a);
        break;
      }
      default:
        g = Gate::rz(static_cast<int>(rng.next_below(n)),
                     random_angle(rng, options));
        break;
    }
    recent.push_back(g);
    if (recent.size() > 4) recent.pop_front();
    circuit.append(std::move(g));
  }
  return circuit;
}

}  // namespace qsp::test
