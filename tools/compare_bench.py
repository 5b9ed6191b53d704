#!/usr/bin/env python3
"""Compare an ecdra-bench v1 report against a committed baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--tolerance X]
    compare_bench.py BASELINE.json CURRENT.json \
        --counter NAME [--min-ratio X] [--min-base X]
    compare_bench.py --self-test

Fails (exit 1) if any benchmark present in both files is more than
``tolerance`` times slower (ns_per_op) in CURRENT than in BASELINE.
Benchmarks present in only one file produce a warning, not a failure,
so adding or retiring benches does not break CI.

Quality reports (the ablation suites) carry their numbers in
``counters`` and have ``ns_per_op = 0`` on both sides; those rows skip
the timing gate. Pass ``--counter NAME`` to gate such a report on a
counter instead: every common row whose baseline value of NAME is at
least ``--min-base`` (default 1.0 — skips near-zero cells where ratios
are pure noise) must keep CURRENT/BASELINE >= ``--min-ratio``
(default 0.5, loose enough for a smoke run against a full-trial
snapshot).

The default tolerance is deliberately loose (3x): shared CI runners
have noisy clocks and the gate exists to catch order-of-magnitude
regressions (an accidental O(n^2), a dropped fast path), not 10% drift.
Tighten locally with --tolerance when bisecting a real regression.

The deterministic pmf-op counters (``OP_COUNTERS``: convolutions,
compactions, truncations, ProbSumLeq calls and Gamma CDF evaluations per
iteration) are gated exactly beside the clock: a row present in both
files whose baseline value is an integer must report the same value.
Fractional values (a hit/miss mix averaged over however many iterations
the run chose, as in BM_ReadyPmf) only warn when they differ.
``compare_bench.py --self-test`` checks this rule on synthetic reports.
"""

import argparse
import json
import os
import sys
import tempfile

OP_COUNTERS = ("convolve_ops", "compact_ops", "truncate_ops",
               "prob_sum_leq_ops", "gamma_cdf_evals")


def load_results(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "ecdra-bench v1":
        raise SystemExit(f"{path}: not an ecdra-bench v1 report")
    return {r["name"]: r for r in doc.get("results", [])}


def check_op_counters(base, cur, common):
    """Exact gate on the deterministic op counters; returns failing rows."""
    failures = []
    for name in common:
        b_counters = base[name].get("counters", {})
        c_counters = cur[name].get("counters", {})
        for key in OP_COUNTERS:
            if key not in b_counters:
                continue
            b = b_counters[key]
            c = c_counters.get(key)
            if c is None:
                print(f"WARNING: {name} has no counter {key!r}; skipped")
            elif float(b).is_integer():
                if c != b:
                    failures.append(f"{name}:{key}")
                    print(f"{name}: {key} {b:g} -> {c:g}  FAIL (exact)")
            elif c != b:
                print(f"WARNING: {name}: {key} {b:g} -> {c:g} "
                      "(fractional, not gated)")
    return failures


def self_test():
    """Runs the exact op-counter rule on synthetic reports."""
    def report(rows):
        return {"schema": "ecdra-bench v1", "suite": "self-test",
                "results": [{"name": n, "iterations": 10, "ns_per_op": t,
                             "counters": c} for n, t, c in rows]}

    base = report([("exact", 100.0, {"convolve_ops": 3, "compact_ops": 2}),
                   ("mix", 10.0, {"truncate_ops": 0.25})])
    cases = [
        ("identical counts pass", base, 0),
        ("a changed integer count fails",
         report([("exact", 100.0, {"convolve_ops": 4, "compact_ops": 2}),
                 ("mix", 10.0, {"truncate_ops": 0.25})]), 1),
        ("a changed fractional count warns",
         report([("exact", 100.0, {"convolve_ops": 3, "compact_ops": 2}),
                 ("mix", 10.0, {"truncate_ops": 0.3})]), 0),
        ("the clock gate still fails past 3x",
         report([("exact", 400.0, {"convolve_ops": 3, "compact_ops": 2}),
                 ("mix", 10.0, {"truncate_ops": 0.25})]), 1),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(base, fh)
        for label, current, expected in cases:
            cur_path = os.path.join(tmp, "cur.json")
            with open(cur_path, "w", encoding="utf-8") as fh:
                json.dump(current, fh)
            print(f"--- self-test: {label}")
            status = main([base_path, cur_path])
            if status != expected:
                print(f"self-test FAILED: {label}: exit {status}, "
                      f"expected {expected}")
                return 1
    print("self-test passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the exact op-counter gate on synthetic reports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="max allowed slowdown ratio current/baseline (default: 3.0)",
    )
    parser.add_argument(
        "--counter",
        help="gate on this counters[] key instead of ns_per_op "
        "(for quality reports where ns_per_op is 0)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="min allowed current/baseline counter ratio (default: 0.5)",
    )
    parser.add_argument(
        "--min-base",
        type=float,
        default=1.0,
        help="skip counter rows whose baseline value is below this "
        "(default: 1.0)",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("BASELINE and CURRENT are required")

    base = load_results(args.baseline)
    cur = load_results(args.current)

    for name in sorted(set(base) - set(cur)):
        print(f"WARNING: {name} missing from {args.current}")
    for name in sorted(set(cur) - set(base)):
        print(f"WARNING: {name} not in baseline {args.baseline}")

    failures = []
    common = sorted(set(base) & set(cur))
    if not common:
        raise SystemExit("no benchmarks in common; nothing compared")

    width = max(len(n) for n in common)
    if args.counter:
        key = args.counter
        print(f"{'benchmark':<{width}}  {'base ' + key:>18}  "
              f"{'cur ' + key:>18}  ratio")
        for name in common:
            b = base[name].get("counters", {}).get(key)
            c = cur[name].get("counters", {}).get(key)
            if b is None or c is None:
                print(f"WARNING: {name} has no counter {key!r}; skipped")
                continue
            if b < args.min_base:
                print(f"{name:<{width}}  {b:>18.1f}  {c:>18.1f}  "
                      f"(base < {args.min_base:g}; skipped)")
                continue
            ratio = c / b
            flag = ""
            if ratio < args.min_ratio:
                failures.append(name)
                flag = f"  FAIL (< {args.min_ratio:g}x)"
            print(f"{name:<{width}}  {b:>18.1f}  {c:>18.1f}  "
                  f"{ratio:5.2f}x{flag}")
        if failures:
            print(
                f"\n{len(failures)} benchmark(s) dropped {key} below "
                f"{args.min_ratio:g}x of baseline: {', '.join(failures)}"
            )
            return 1
        print(f"\nall common benchmarks kept {key} within "
              f"{args.min_ratio:g}x of baseline")
        return 0

    print(f"{'benchmark':<{width}}  {'base ns/op':>12}  {'cur ns/op':>12}  ratio")
    for name in common:
        b = base[name]["ns_per_op"]
        c = cur[name]["ns_per_op"]
        if b == 0 and c == 0:
            # Quality report row (counters only): the timing gate does not
            # apply — use --counter to gate these.
            print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  counter-only")
            continue
        ratio = c / b if b > 0 else float("inf")
        flag = ""
        if ratio > args.tolerance:
            failures.append(name)
            flag = f"  FAIL (> {args.tolerance:g}x)"
        print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  {ratio:5.2f}x{flag}")

    op_failures = check_op_counters(base, cur, common)
    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:g}x: {', '.join(failures)}"
        )
    if op_failures:
        print(
            f"\n{len(op_failures)} op counter(s) changed: "
            f"{', '.join(op_failures)}"
        )
    if failures or op_failures:
        return 1
    print(f"\nall {len(common)} common benchmarks within {args.tolerance:g}x, "
          "op counters exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
