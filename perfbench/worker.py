"""One run of one workload, in a process of its own.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH`` and every thread pool capped at one thread.  The run is a
closed loop: whole rounds of the workload's operation list, repeated
until the next round would overrun ``--seconds`` (at least MIN_ROUNDS).
A reference kernel is timed before and after every operation; its time
is left out of every figure, and ``wall_ref`` and ``op_p50_ref`` divide
each operation's wall time by the kernel time measured next to it.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

MIN_ROUNDS = 3
REF_REPEATS = 7
# the kernel right after set-up gauges the host's speed during set-up; a
# longer median than between operations, since it scales a single figure
SETUP_REF_REPEATS = 21
TAIL_MIN_OPS = 40


def ref_kernel(normals) -> float:
    """A 20,000-step Python float loop plus a sort of 200,000 normals."""
    import numpy as np

    start = time.perf_counter()
    x = 0.0
    for _ in range(20_000):
        x = x * 0.5 + 1.0
    np.sort(normals)
    return time.perf_counter() - start


def ref_time(normals) -> float:
    return statistics.median(ref_kernel(normals) for _ in range(REF_REPEATS))


def run_op(cli, op, config_path, out_dir):
    """Run one command as a user would; returns (exit code, wall, cpu, log)."""
    log = io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main(op.argv(config_path, out_dir))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the run goes on; the operation counts as failed
            code = -1
            print(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return code, wall, cpu, log.getvalue()


def setup(args):
    """Imports, the lazy scipy.stats import and config generation."""
    from workloads import WORKLOADS

    import numpy as np
    from randsum import cli
    from randsum.distributions import ShiftedPoisson

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"randsum was imported from {cli.__file__}, not from {src}")
    ShiftedPoisson(2.0).tail_mass(1)  # pulls in scipy.stats

    ops = WORKLOADS[args.workload](args.seed)
    paths = {}
    for op in ops:
        out_dir = os.path.join(args.workdir, op.name)
        os.makedirs(out_dir, exist_ok=True)
        config_path = None
        if op.config is not None:
            config_path = os.path.join(args.workdir, f"{op.name}.json")
            with open(config_path, "w") as handle:
                json.dump(op.config, handle, indent=2)
        paths[op.name] = (config_path, out_dir)
    normals = np.random.default_rng(20_000).standard_normal(200_000)
    return cli, ops, paths, normals


def measure(args, cli, ops, paths, normals):
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []  # one entry per round: (traced, [(name, ok, wall, cpu, ratio)])
    outputs = {}
    failures = {}
    layer_rounds = []
    ref = ref_time(normals)
    refs = [ref]
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            since = tracer.mark()
            cached = 0
        records = []
        for op in ops:
            config_path, out_dir = paths[op.name]
            code, wall, cpu, log = run_op(cli, op, config_path, out_dir)
            if traced:
                cached = max(cached, tracer.entries_cached())
            after = ref_time(normals)
            refs.append(after)
            ref_mean = 0.5 * (ref + after)
            ref = after
            try:
                with open(os.path.join(out_dir, op.output), "rb") as handle:
                    data = handle.read()
                os.unlink(os.path.join(out_dir, op.output))
            except OSError:
                data = None
            ok = code == 0 and data is not None
            if ok:
                outputs.setdefault(op.name, []).append(data)
            else:
                failures[op.name] = f"exit {code}: {log[-400:]}"
            records.append((op.name, ok, wall, cpu, wall / ref_mean))
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.layer_metrics(since, cached))
        rounds.append((traced, records))
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / len(rounds)
        if tracer:  # pairs of an untraced and a traced round
            done = traced and elapsed + 2 * per_round > args.seconds
        else:
            done = len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, outputs, failures, layer_rounds, refs, peak_rss_mb, tracer


def summarize(rounds, refs, peak_rss_mb, layer_rounds):
    """Figures of one run: medians over the untraced rounds.

    Raw wall and CPU times follow the host's speed, which moved by up to
    30% between runs on the machine this benchmark was tuned on, so the
    end-to-end figures are the drift-corrected ones in reference-kernel
    units; the raw ones are printed alongside and reported by the traced
    run.
    """
    plain = [records for traced, records in rounds if not traced]

    def per_op_median(column):
        return sum(statistics.median(r[i][column] for r in plain) for i in range(len(plain[0])))

    walls = sorted(rec[2] for records in plain for rec in records)
    raw = {
        "wall_s": per_op_median(2),
        "cpu_s": per_op_median(3),
        "op_p50_ms": 1000.0 * statistics.median(walls),
    }
    extra = dict(raw, ops_timed=len(walls), rounds=len(plain),
                 ref_kernel_ms=1000.0 * statistics.median(refs))
    if len(walls) >= TAIL_MIN_OPS:
        extra["op_p90_ms"] = 1000.0 * statistics.quantiles(walls, n=10)[-1]
    if not layer_rounds:
        metrics = {
            "wall_ref": per_op_median(4),
            "op_p50_ref": statistics.median(rec[4] for records in plain for rec in records),
            "peak_rss_mb": peak_rss_mb,
        }
        return metrics, extra
    traced_walls = [sum(r[2] for r in records) for traced, records in rounds if traced]
    metrics = {key: statistics.median_low(r[key] for r in layer_rounds) for key in layer_rounds[0]}
    metrics.update({f"bench.{key}": value for key, value in raw.items()})
    metrics["bench.ref_kernel_ms"] = extra["ref_kernel_ms"]
    metrics["bench.trace_overhead_s"] = statistics.median(traced_walls) - raw["wall_s"]
    return metrics, extra


def verify(ops, outputs):
    """Oracle and determinism checks on the outputs of operations that did not fail.

    Returns the problems, which make the run incorrect, and the operations
    whose output fails only checks that a known fault of the program
    explains; those count as failed in every round.
    """
    import oracles

    problems = []
    faulty = {}
    for op in ops:
        docs = outputs.get(op.name)
        if not docs:
            continue
        if any(d != docs[0] for d in docs[1:]):
            problems.append(f"{op.name}: output bytes differ between rounds")
        failed = oracles.failures(oracles.check_output(op, json.loads(docs[0])))
        if failed and all(check.fault for check in failed):
            faulty[op.name] = (f"known fault ({failed[0].fault}) in {len(failed)} checks, "
                               f"first {failed[0].name}: {failed[0].detail}")
            continue
        for check in failed:
            problems.append(f"{op.name}: {check.name}: {check.detail}")
    return problems, faulty


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.perf_counter() of the launcher just before the spawn")
    parser.add_argument("--spans", help="JSON-lines file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        cli, ops, paths, normals = setup(args)
        # perf_counter reads CLOCK_MONOTONIC, which is system-wide, so the
        # launcher's reading before the spawn and this one bracket the whole
        # set-up, interpreter start included
        setup_s = time.perf_counter() - args.launched
        setup_ref_s = statistics.median(ref_kernel(normals) for _ in range(SETUP_REF_REPEATS))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
            return 0
        rounds, outputs, failures, layer_rounds, refs, peak, tracer = measure(
            args, cli, ops, paths, normals)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    metrics, extra = summarize(rounds, refs, peak, layer_rounds)
    problems, faulty = verify(ops, outputs)
    failures.update(faulty)
    if tracer is not None and args.spans:
        os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
        tracer.write_spans(args.spans)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(records) for _, records in rounds),
        "failed": sum(not rec[1] or rec[0] in faulty for _, records in rounds for rec in records),
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "metrics": metrics,
        "extra": extra,
        "problems": problems,
        "failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
