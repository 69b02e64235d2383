"""Run one workload of the randsum benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
``src/``.  The workload runs in a process of its own (``worker.py``),
single-threaded, and ``setup_s`` is the median set-up time of that
process and of SETUP_PROBES more processes that only set up, each scaled
to the reference kernel's nominal speed.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, and the spans go to
``perfbench/results/spans-<workload>-<seed>.jsonl``.

Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
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
WORKER = os.path.join(HERE, "worker.py")
# set-up time of one process varies by about 10% from one to the next
# here, so it is the median of this many probes and the worker's own
SETUP_PROBES = 6
# Set-up follows the host's speed, which drifts by up to 25% between runs
# here.  Each process times the reference kernel right after set-up, and
# its set-up time is scaled by REF_NOMINAL_S over that kernel time: seconds
# on a host where the kernel takes 3.5 ms, about this machine's median.
REF_NOMINAL_S = 3.5e-3
# every child is killed past this many seconds, so a run ends within 180 s
DEADLINE_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one worker thread for the study pool and for any BLAS pool: a second
    # thread buys nothing on GIL-bound cells and only adds scheduling noise
    env.update(RANDSUM_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args, extra, deadline):
    """Run the worker; returns its parsed last line of standard output."""
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    launched = time.perf_counter()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--launched", repr(launched), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def nominal_setup_s(result: dict) -> float:
    return result["setup_s"] * REF_NOMINAL_S / result["setup_ref_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "randsum", "cli.py")):
        print(f"no randsum source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        result = spawn(args, ["--spans", os.path.join(
            HERE, "results", f"spans-{args.workload}-{args.seed}.jsonl")], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    probes.append(result)
    result["extra"]["setup_raw_s"] = statistics.median(p["setup_s"] for p in probes)

    measured = dict(result["metrics"], setup_s=statistics.median(map(nominal_setup_s, probes)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for key, value in result["extra"].items():
        print(f"  ({key} {value:.6g})")
    print(f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  correct {result['correct']}")
    for name, log in result["failures"].items():
        print(f"  FAILED {name}: {log}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
