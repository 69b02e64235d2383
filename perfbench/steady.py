"""Steadiness check: run every workload in two interleaved sets and compare.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1000]

Each pass runs every workload once through ``run.py`` for BENCHMARK.json's
``run_seconds``, as the benchmark is run; passes alternate the workload
order.  Pass i uses seed ``first-seed + i`` and belongs to set ``i % 2``,
so the two sets of ``runs`` runs each interleave in time.  For each set
and each end-to-end metric this prints the median, the quartiles and the
spread (interquartile range over the median) against the metric's bound,
then how far the second set's median lies from the first, either way, and
whether the failed share of operations is the same in both.  A figure past
its bound is marked OVER BOUND and the command exits with 1.  The raw
results go to ``perfbench/results/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stdout"] = proc.stdout
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [[], []] for w in workloads}

    for i in range(2 * args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            start = time.monotonic()
            result = run_once(workload, args.first_seed + i, seconds)
            results[workload][i % 2].append(result)
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"[{i + 1}/{2 * args.runs}] {workload} seed {args.first_seed + i} "
                  f"({time.monotonic() - start:.0f} s) correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {line}",
                  flush=True)

    worst = 0.0
    over = False
    for workload in workloads:
        print(f"\n{workload}")
        medians = []
        shares = set()
        for s, runs in enumerate(results[workload]):
            set_shares = {r["failed"] / r["attempted"] for r in runs}
            shares |= set_shares
            print(f"  set {s + 1}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}, "
                  f"failed shares {sorted(set_shares)}")
            row = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                row[name] = med
                worst = max(worst, sp / metric["bound"])
                over |= sp > metric["bound"]
                flag = "" if sp <= metric["bound"] / 3 else (
                    "  above a third of the bound" if sp <= metric["bound"] else "  OVER BOUND")
                print(f"    {name:12s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                      f"spread {sp:6.2%} of bound {metric['bound']:.0%}{flag}")
            medians.append(row)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = medians[0][name], medians[1][name]
            apart = abs(b - a) / a
            over |= apart > metric["bound"]
            flag = "" if apart <= metric["bound"] else "  OVER BOUND"
            print(f"    set 2 vs set 1 {name:12s} {(b - a) / a:+7.2%} "
                  f"(bound {metric['bound']:.0%}){flag}")
        if len(shares) > 1:
            over = True
            print("    failed shares differ between runs  OVER BOUND")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as handle:
        json.dump({"seconds": seconds, "first_seed": args.first_seed, "results": results},
                  handle, indent=1)
    print(f"raw results: {path}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
