#!/usr/bin/env python3
"""Repeat mode for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json N times per workload,
each run with its own seed, and prints the median, quartiles and spread
(interquartile range over median) of every end-to-end metric. A metric
whose spread is wider than its bound is flagged, and so is one whose
spread is wider than a third of its bound: the steadiness aimed at, so
that two sets of runs of the same code agree within the bound.

With --sets 2 it makes a second, independent set of N runs per workload
(other seeds, after the first set) and prints, for every metric, the
change of the second set's median against the first's, flagged when it
is worse by more than the metric's bound, and whether the share of
failed operations is the same in both sets.

With --trace it also makes N traced runs per workload, prints the median
of every per-layer metric, and the tracing overhead: the difference
between the end-to-end medians of the traced and the untraced runs
(traced runs print their end-to-end figures as `e2e` report lines).

A run that fails its checks (non-zero exit, `correct` false) stops the
script: no figures are summarized from an incorrect run.

Run from the repository root:

    python3 e2e_bench/repeat.py [--runs 10] [--seed0 1] [--sets 1|2] \\
        [--workload NAME] [--trace]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    checks = [line for line in lines if line.startswith("CHECK FAILED")]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if out.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"run failed (exit {out.returncode}): {' '.join(argv)}\n"
                 + "\n".join(checks) + f"\n{out.stderr[-2000:]}")
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "e2e":
            report[parts[1]] = float(parts[2])
    for line in lines[:-1]:
        if line.startswith(("live:", "control:", "ops ")):
            print(f"    {line}")
    return result, report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_set(cmd, w, seeds, seconds, trace):
    """Untraced (and optionally traced) runs of one workload."""
    values, shares, traced_e2e, layers = {}, set(), {}, {}
    for seed in seeds:
        print(f"[{w}] seed {seed}", flush=True)
        res, _ = run(cmd, w, seed, seconds, False)
        shares.add((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if trace:
            res, report = run(cmd, w, seed, seconds, True)
            for name, m in res["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
            for name, v in report.items():
                traced_e2e.setdefault(name, []).append(v)
    return values, shares, traced_e2e, layers


def print_spreads(w, seeds, values, shares, metrics):
    print(f"\n== {w}: {len(seeds)} runs (seeds {seeds[0]}-{seeds[-1]}), "
          f"failed/attempted={sorted(shares)}")
    print(f"{'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}  flag")
    for name, vs in sorted(values.items()):
        q1, med, q3 = quartiles(vs)
        spread = (q3 - q1) / med if med else float("inf")
        bound = metrics[name]["bound"] if name in metrics else None
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "WIDER THAN BOUND"
            elif spread > bound / 3:
                flag = "above bound/3"
        print(f"{name:<26} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spread:>7.3f} {bound if bound is not None else '-':>6}  {flag}")
        print(f"{'':<26} runs: {' '.join(f'{v:.4g}' for v in vs)}")


def print_shift(w, first, second, metrics):
    (va, sa), (vb, sb) = first, second
    print(f"\n== {w}: second set against the first")
    fa = {f / a for f, a in sa}
    fb = {f / a for f, a in sb}
    same = len(fa | fb) == 1
    print(f"failed share: first {sorted(fa)}, second {sorted(fb)}"
          f"{'' if same else '  DIFFERS'}")
    print(f"{'metric':<26} {'median 1':>14} {'median 2':>14} {'change':>7} "
          f"{'worse':>7} {'bound':>6}  flag")
    for name in sorted(va):
        ma, mb = statistics.median(va[name]), statistics.median(vb[name])
        change = mb / ma - 1 if ma else float("inf")
        m = metrics.get(name)
        if m is None:
            print(f"{name:<26} {ma:>14.4f} {mb:>14.4f} {change:>+7.3f}")
            continue
        worse = change if m["better"] == "lower" else -change
        flag = "WORSE THAN BOUND" if worse > m["bound"] else ""
        print(f"{name:<26} {ma:>14.4f} {mb:>14.4f} {change:>+7.3f} "
              f"{worse:>+7.3f} {m['bound']:>6}  {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    sets = {}
    for k in range(args.sets):
        for w in workloads:
            seeds = list(range(args.seed0 + k * args.runs,
                               args.seed0 + (k + 1) * args.runs))
            trace = args.trace and k == 0
            values, shares, traced_e2e, layers = run_set(
                cmd, w, seeds, seconds, trace)
            sets.setdefault(w, []).append((values, shares))
            print_spreads(w, seeds, values, shares, metrics)
            if trace:
                print(f"\n-- {w}: per-layer medians over {args.runs} traced runs")
                for name, vs in sorted(layers.items()):
                    vs = [v for v in vs if v is not None]
                    med = statistics.median(vs) if vs else float("nan")
                    print(f"{name:<48} {med:>16.4f}")
                print(f"\n-- {w}: tracing overhead "
                      "(traced median / untraced median - 1)")
                for name, vs in sorted(traced_e2e.items()):
                    if name in values:
                        base = statistics.median(values[name])
                        t = statistics.median(vs)
                        print(f"{name:<26} {t:>14.4f} vs {base:>14.4f}  "
                              f"{t / base - 1:+.3f}")
            print(flush=True)
    if args.sets == 2:
        for w in workloads:
            print_shift(w, sets[w][0], sets[w][1], metrics)


if __name__ == "__main__":
    main()
