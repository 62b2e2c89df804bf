#!/usr/bin/env python3
"""Compare benchmark JSONL runs against a committed baseline.

Rows are matched by an identity key derived from their fields:

  kernel rows   (bench/micro_core hand-timed sweep): (kernel, n)
  search rows   (micro_core astar sweep):            (instance, method, threads)
  fig7 rows     (bench_fig7_runtime):                (instance, method, threads)

Two classes of checks:

  * Deterministic fields are compared exactly and ALWAYS enforced:
    `checksum` on kernel rows (bit-identity of canonical keys, heuristic
    values, and simulator amplitudes), `cnot_cost` and `optimal` on
    search rows. A mismatch means the optimization changed results, not
    just speed, and the tool exits nonzero.

  * Timing fields (`seconds_per_iter`, `seconds`) are reported as
    deltas. Under --strict — meant for same-machine A/B runs (CI compares
    the scalar and AVX2 files of one `micro_core --ab` run, which times
    both ISAs in the same rounds) — a `seconds_per_iter` row fails when
    its slowdown exceeds --tolerance (default 25%) AND each side's own
    `spread`, the (second slowest - second fastest) / median of the
    row's timing windows: a slowdown inside the noise either run
    measured is not evidence of a regression. Rows without a `spread`
    field count it as 0. One-shot `seconds` rows stay report-only (a
    single search wall clock is too noisy to gate on). Cross-machine
    runs against the committed baseline should omit --strict — absolute
    timings are not comparable across hosts.

Rows present on only one side are reported; missing current rows fail
(coverage regressions should be loud), extra current rows do not.

Search-stat fields other than the deterministic ones (queue peaks, node
counts under threads > 1) are nondeterministic by design and never
compared.

Usage:
  tools/bench_compare.py baseline.jsonl current.jsonl [--strict]
      [--tolerance 0.25]
"""

import argparse
import json
import sys


def row_key(row):
    # `target` (backend gate set) is part of the identity of a row: the
    # same instance legalized for cz/iswap/rzz is a different measurement.
    # Rows predating the field (and CNOT-only sweeps that omit it) get
    # None, so old baselines keep matching.
    if "kernel" in row:
        return ("kernel", row["kernel"], row.get("n"), row.get("target"))
    if "instance" in row:
        return ("search", row["instance"], row.get("method"),
                row.get("threads"), row.get("target"))
    return None


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            key = row_key(row)
            if key is None:
                continue
            if key in rows:
                raise SystemExit(f"{path}: duplicate row key {key}")
            rows[key] = row
    return rows


DETERMINISTIC_FIELDS = ("checksum", "cnot_cost", "optimal", "tle")
# Only the adaptively-timed per-iteration kernels are stable enough to
# gate on; one-shot search wall clocks (`seconds`) stay report-only even
# under --strict.
TIMING_FIELDS = ("seconds_per_iter", "seconds")
STRICT_TIMING_FIELDS = ("seconds_per_iter",)


def fmt_key(key):
    return "/".join(str(p) for p in key[1:] if p is not None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--strict", action="store_true",
                    help="fail on timing regressions beyond --tolerance "
                         "(same-machine A/B runs only)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional timing regression under "
                         "--strict (default 0.25)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    missing = sorted(set(base) - set(cur))
    for key in missing:
        failures.append(f"missing from current run: {fmt_key(key)}")
    for key in sorted(set(cur) - set(base)):
        print(f"  [new]  {fmt_key(key)} (not in baseline)")

    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        # A time-limited row's outcome depends on the host's speed, not
        # on correctness: report a flip but never enforce its fields.
        if b.get("tle") or c.get("tle"):
            if b.get("tle") != c.get("tle"):
                print(f"  [~] {fmt_key(key)} tle {b.get('tle')} -> "
                      f"{c.get('tle')} (budget-dependent; not enforced)")
            continue
        for field in DETERMINISTIC_FIELDS:
            if field in b and b[field] != c.get(field):
                failures.append(
                    f"{fmt_key(key)}: {field} {b[field]} -> {c.get(field)}")
        for field in TIMING_FIELDS:
            if field not in b or field not in c:
                continue
            bt, ct = b[field], c[field]
            if bt <= 0:
                continue
            delta = (ct - bt) / bt
            marker = " "
            gated = ""
            if args.strict and field in STRICT_TIMING_FIELDS:
                noise = max(b.get("spread", 0.0), c.get("spread", 0.0))
                gated = f", spread {noise * 100:.1f}%"
                if delta > args.tolerance and delta > noise:
                    failures.append(
                        f"{fmt_key(key)}: {field} regressed "
                        f"{delta * 100:+.1f}% ({bt:.3g}s -> {ct:.3g}s, "
                        f"spread {noise * 100:.1f}%)")
                    marker = "!"
            print(f"  [{marker}] {fmt_key(key):40s} {field} "
                  f"{bt:.3g} -> {ct:.3g} ({delta * 100:+.1f}%{gated})")

    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(set(base) & set(cur))} rows compared, "
          f"deterministic fields identical"
          + (", timing within tolerance" if args.strict else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
