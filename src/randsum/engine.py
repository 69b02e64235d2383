"""Seeded Monte Carlo for random sums, convergence studies, and selfcheck.

Sampling contract: every summand is drawn individually (no collapsing a
row into its known sum law), so empirical results stay independent
evidence against the exact computations.  One draw of a random sum
consumes one index variate and then the row's entry variates; batches
consume the same variates in a documented deterministic order (index
batch first, then entries column by column or row-flattened, depending
on the row's runs; see ``_prefix_sums``).  An atomic law or a finite
index draws one uniform per variate and inverts its CDF at the cut
points numpy's ``Generator.choice`` builds, so it consumes the stream
as ``choice`` did and returns the same values.  ``rows`` mode draws the
rows in ascending k, each for its draws in position order.
``metrics`` draws nothing: every sampled distance is ``empirical_delta``'s.

Streams: substreams are derived from the master seed with
``numpy.random.SeedSequence.spawn``; each concurrent task owns its
substream exclusively and results merge in plan order, so study output
does not depend on thread scheduling.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import arrays as _arrays
from . import conditions as _conditions
from . import metrics as _metrics
from .arrays import TriangularArray, array_from_config, expand, take
from .distributions import (
    QUAD_ABS_TOL,
    Normal,
    RandomIndex,
    ScalarDistribution,
    index_from_config,
)

__all__ = [
    "CHUNK_DRAWS",
    "spawn_streams",
    "sample_random_sums",
    "empirical_delta",
    "DISTANCES",
    "StudyPlan",
    "StudyResult",
    "run_study",
    "builtin_plan",
    "BUILTIN_PLAN_NAMES",
    "selfcheck",
    "json_text",
    "csv_text",
]

# cap on scalar draws materialized at once (512 KiB of float64, which a core's
# L2 cache holds with its temporaries); chunks end at row boundaries and numpy
# streams the same variates however a draw is split, so the cap never changes a draw
CHUNK_DRAWS = 1 << 16
# default worker count before the RANDSUM_THREADS cap is applied
_DEFAULT_WORKERS = 4


def thread_cap() -> int:
    """Worker cap from RANDSUM_THREADS (>= 1); default 4."""
    raw = os.environ.get("RANDSUM_THREADS", "")
    try:
        cap = int(raw) if raw else _DEFAULT_WORKERS
    except ValueError:
        cap = _DEFAULT_WORKERS
    return max(1, cap)


def spawn_streams(seed: int, count: int) -> List[np.random.Generator]:
    """Independent generators derived from one master seed."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


# ---------------------------------------------------------------------------
# random-sum sampling
# ---------------------------------------------------------------------------


def _chunk_boundaries(ks: np.ndarray, cap: int) -> List[Tuple[int, int]]:
    """Split rows into contiguous chunks whose total draws stay under cap.

    Each chunk is the longest run of rows from its first one whose draws
    sum to at most cap; a single row longer than the cap still becomes
    its own chunk.
    """
    ends = np.cumsum(ks, dtype=np.int64)
    spans: List[Tuple[int, int]] = []
    start = 0
    while True:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + cap, side="right")))
        spans.append((start, min(stop, len(ks))))
        if stop >= len(ks):
            return spans
        start = stop


def _iid_row_sums(dist: ScalarDistribution, ks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty(ks.size)
    for a, b in _chunk_boundaries(ks, CHUNK_DRAWS):
        part = ks[a:b]
        total = int(np.sum(part))
        flat = np.asarray(dist.sample(rng, total), dtype=float)
        starts = np.concatenate([[0], np.cumsum(part[:-1])]).astype(np.int64)
        out[a:b] = np.add.reduceat(flat, starts)
    return out


def _equal_row_sums(sigmas: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` sums of rows of standard normals scaled column by column by
    ``sigmas``, drawn in blocks of as many rows as CHUNK_DRAWS variates hold
    (or one row, if longer): the chunks ``_chunk_boundaries`` cuts from
    equal lengths, each row summed alone by ``np.add.reduceat``."""
    k = sigmas.size
    rows = max(1, CHUNK_DRAWS // k)
    buffer = np.empty((min(rows, count), k))
    starts = np.arange(0, buffer.size, k)
    out = np.empty(count)
    for lo in range(0, count, rows):
        block = rng.standard_normal(out=buffer[:min(rows, count - lo)])
        block *= sigmas
        out[lo:lo + len(block)] = np.add.reduceat(block.ravel(), starts[:len(block)])
    return out


def _normal_row_sums(sigmas: np.ndarray, ks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sums of the first ks[i] standard normals of draw i, each scaled by its
    position's sigma; equal lengths take ``_equal_row_sums``, whose chunks
    and sums are the ones below."""
    k = int(ks[0])
    if (ks == k).all():
        return _equal_row_sums(sigmas[:k], ks.size, rng)
    out = np.empty(ks.size)
    for a, b in _chunk_boundaries(ks, CHUNK_DRAWS):
        part = ks[a:b]
        total = int(np.sum(part))
        starts = np.concatenate([[0], np.cumsum(part[:-1])]).astype(np.int64)
        # per-position column index j-1 = global position - own row start
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, part)
        flat = rng.standard_normal(total)
        flat *= sigmas[pos]
        out[a:b] = np.add.reduceat(flat, starts)
    return out


def _columnwise_row_sums(
    runs: List[Tuple[ScalarDistribution, int]], ks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """General fallback: draw column j for every sum still needing it.  The
    sums are kept in ascending length (stable), so those are a tail
    ``acc[start:]``; they go back to ``ks`` order once, at the end."""
    order = np.argsort(ks, kind="stable")
    sorted_ks = ks[order]
    acc = np.zeros(ks.size)
    for j, law in enumerate(expand(runs), start=1):
        start = int(np.searchsorted(sorted_ks, j, side="left"))
        acc[start:] += np.asarray(law.sample(rng, ks.size - start), dtype=float)
    out = np.empty(ks.size)
    out[order] = acc
    return out


def _prefix_sums(
    array: TriangularArray, n: int, ks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sums of entries (n, 1..k) for each k in ks, summand by summand.

    Dispatch on the row's runs: a row of one unbounded run takes flat
    i.i.d. draws of its law, a row of centered normals up to max(ks)
    scales one flat block of standard normals, and any other row draws
    column by column.
    """
    runs = array.runs(n)
    first, size = next(runs)
    if size is None:
        return _iid_row_sums(first, ks, rng)
    upto = int(np.max(ks))
    variances = array.normal_variances(n, upto)
    if variances is not None:
        sigmas = np.sqrt(variances)
        if not np.all(np.isfinite(sigmas)):
            raise ArithmeticError(
                f"entry scales of row {n} overflow beyond position {sigmas.size}; "
                "shrink the index range or eta"
            )
        return _normal_row_sums(sigmas, ks, rng)
    return _columnwise_row_sums(take(chain([(first, size)], runs), upto), ks, rng)


def sample_random_sums(
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    rng: np.random.Generator,
    size: int,
    *,
    mode: str = "prefix",
) -> np.ndarray:
    """Draw ``size`` realizations of the random-length sum.

    ``mode="prefix"``: S = X_{n,1} + ... + X_{n,nu} within row ``n``.
    ``mode="rows"``: for each drawn nu = k the complete row-k sum is
    taken instead (each row carrying its own normalizer, the
    normalized-sequence reading).
    """
    if size < 1:
        raise ValueError("size must be positive")
    if mode not in ("prefix", "rows"):
        raise ValueError("mode must be 'prefix' or 'rows'")
    ks = np.asarray(index.sample(rng, size), dtype=np.int64)
    if mode == "prefix":
        return _prefix_sums(array, n, ks, rng)

    # rows in ascending k, each at its draws' positions in ascending order;
    # the stable sort of keys that fit 16 bits is a radix sort
    keys = ks.astype(np.int16)
    order = np.argsort(keys if np.array_equal(keys, ks) else ks, kind="stable")
    sorted_ks = ks[order]
    firsts = np.flatnonzero(sorted_ks[1:] != sorted_ks[:-1]) + 1
    rows = sorted_ks[np.concatenate(([0], firsts))]
    out = np.empty(size)
    for row, where in zip(rows.tolist(), np.split(order, firsts)):
        row_ks = np.full(where.size, array.row_length(row), dtype=np.int64)
        out[where] = _prefix_sums(array, row, row_ks, rng)
    return out


def empirical_delta(
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    rng: np.random.Generator,
    samples: int = 100_000,
    alpha: float = 0.01,
    *,
    mode: str = "prefix",
    reference: Optional[ScalarDistribution] = None,
) -> _metrics.DistanceEstimate:
    """KS statistic of sampled random sums against the standard normal."""
    if samples < 1_000:
        raise ValueError("need at least 1000 samples")
    draws = sample_random_sums(array, index, n, rng, samples, mode=mode)
    target = reference if reference is not None else Normal(0.0, 1.0)
    return _metrics.empirical_kolmogorov(draws, target, alpha)


# Each distance to the standard normal at grid point n, called as
# fn(array, index, n, rng, samples, alpha, eta, mode), of which only
# empirical_delta reads rng, samples and alpha; the study and the
# distances command both read this table.  The functions are looked up
# when called, so a wrapper set on the module sees every call.
DISTANCES = {
    # the fixed-length row sum, index aside
    "kolmogorov_row": lambda array, index, n, rng, samples, alpha, eta, mode:
        _metrics.kolmogorov(_metrics.row_sum_law(array, n), Normal(0.0, 1.0)),
    "empirical_delta": lambda array, index, n, rng, samples, alpha, eta, mode:
        empirical_delta(array, index, n, rng, samples, alpha, mode=mode),
    "delta_mixture": lambda array, index, n, rng, samples, alpha, eta, mode:
        _metrics.delta_mixture(array, index, n, eta, mode=mode),
    "delta_randomsum": lambda array, index, n, rng, samples, alpha, eta, mode:
        _metrics.delta_randomsum(array, index, n, eta, mode=mode),
}


def distance(name: str, *args) -> "_metrics.DistanceEstimate":
    """``DISTANCES[name](*args)``, raising ArithmeticError on a nan value or
    bound: the cell that would hold it fails instead."""
    est = DISTANCES[name](*args)
    if math.isnan(est.value) or math.isnan(est.bound):
        raise ArithmeticError(f"{name} evaluated to nan")
    return est


# ---------------------------------------------------------------------------
# study plans
# ---------------------------------------------------------------------------


# each check kind's required fields (see _evaluate_check); any kind may
# also carry the optional ones
CHECK_FIELDS = {
    "to_zero": ("metric", "final_max"),
    "noisy_decrease": ("metric", "final_max"),
    "constant": ("metric", "target"),
    "all_below": ("metric", "threshold"),
    "final_above": ("metric", "threshold"),
    "tracks_metric": ("metric", "other"),
}
_CHECK_OPTIONAL = ("epsilon", "name", "tol")


@dataclass(frozen=True)
class StudyPlan:
    """Declarative description of one convergence study.

    ``index`` is a config mapping whose numeric fields may hold the
    literal string ``"n"``, resolved per grid point (e.g. geometric with
    ``p = 1/n`` is ``{"family": "geometric", "mean": "n"}``).
    ``distances`` are names in ``DISTANCES``.  ``checks`` are trend
    verdicts evaluated on the finished table; see ``_evaluate_check`` for
    the kinds.
    """

    label: str
    array: dict
    index: Optional[dict]
    n_grid: Tuple[int, ...]
    epsilon_grid: Tuple[float, ...] = (0.1, 0.5)
    delta: float = 1.0
    samples: int = 100_000
    alpha: float = 0.01
    seed: int = 0
    eta: float = _conditions.DEFAULT_ETA
    mode: str = "prefix"
    functionals: Tuple[str, ...] = ()
    distances: Tuple[str, ...] = ("empirical_delta",)
    checks: Tuple[dict, ...] = ()

    def validated(self) -> "StudyPlan":
        if self.samples < 1_000:
            raise ValueError("Monte Carlo sample count must be >= 1000")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.n_grid or not self.epsilon_grid:
            raise ValueError("n and epsilon grids must be nonempty")
        if any(int(n) < 1 for n in self.n_grid):
            raise ValueError("n grid entries must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.mode not in ("prefix", "rows"):
            raise ValueError("mode must be 'prefix' or 'rows'")
        if not 0.0 < self.eta <= _conditions.MAX_ETA:
            raise ValueError(f"eta must lie in (0, {_conditions.MAX_ETA}]")
        unknown = set(self.distances) - set(DISTANCES)
        if unknown:
            raise ValueError(f"unknown distances: {sorted(unknown)}")
        # each distance writes one row per grid point, which the checks read
        # as one series
        for i, name in enumerate(self.distances):
            if name in self.distances[:i]:
                raise ValueError(f"distances[{i}]: repeated distance {name!r}")
        unknown = set(self.functionals) - set(_conditions.REPORT_FUNCTIONALS)
        if unknown:
            raise ValueError(f"unknown functionals: {sorted(unknown)}")
        # the metric names of the study's rows, cut at "@" (cf_deviation@t=...)
        emitted = {*(self.functionals or _conditions.REPORT_FUNCTIONALS), *self.distances}
        for i, check in enumerate(self.checks):
            kind = check.get("kind")
            if not isinstance(kind, str) or kind not in CHECK_FIELDS:
                raise ValueError(
                    f"checks[{i}].kind: unknown check kind {kind!r}; "
                    f"available: {', '.join(CHECK_FIELDS)}"
                )
            for key in check:
                if key not in ("kind", *_CHECK_OPTIONAL, *CHECK_FIELDS[kind]):
                    raise ValueError(f"checks[{i}].{key}: unknown key")
            for key in CHECK_FIELDS[kind]:
                if key not in check:
                    raise ValueError(f"checks[{i}].{key}: required for check kind {kind!r}")
            for key in ("epsilon", "final_max", "target", "threshold", "tol"):
                value = check.get(key, 0.0)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"checks[{i}].{key}: expected a number")
            for key in ("metric", "other"):
                if key in check and str(check[key]).split("@")[0] not in emitted:
                    raise ValueError(
                        f"checks[{i}].{key}: the study emits no metric {check[key]!r}; "
                        f"it emits: {', '.join(sorted(emitted))}"
                    )
            # only condition rows carry an epsilon, one of the grid's
            if "epsilon" not in check:
                continue
            if check["metric"] in self.distances:
                raise ValueError(
                    f"checks[{i}].epsilon: the rows of {check['metric']!r} carry no epsilon"
                )
            if check["epsilon"] not in self.epsilon_grid:
                raise ValueError(
                    f"checks[{i}].epsilon: {check['epsilon']!r} is not in the epsilon grid "
                    f"{list(self.epsilon_grid)}"
                )
        return self

    def to_json_dict(self) -> dict:
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items()}


def json_text(doc: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Sequence[dict]) -> str:
    """The header line, then one line per row mapping, read in header order.

    A missing or ``None`` field is empty and a float prints as its repr,
    so the table is bit-deterministic for fixed values.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in header))
    return "\n".join(lines) + "\n"


STUDY_CSV_HEADER = ("label", "n", "epsilon", "delta", "metric", "value", "error_bound")


@dataclass
class StudyResult:
    """Result table plus verdicts for one study run.

    ``rows`` hold one mapping per (n, metric) cell.  Both renderings are
    bit-deterministic for a fixed plan: the JSON document holds the rows,
    verdicts, errors and pass flag, but not the wall-clock
    ``runtime_seconds``.
    """

    rows: List[dict]
    verdicts: List[dict]
    errors: List[dict]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts) and not self.errors

    def csv_text(self) -> str:
        return csv_text(STUDY_CSV_HEADER, self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "verdicts": self.verdicts,
            "errors": self.errors,
            "passed": self.passed,
        }


def _study_cell(
    plan: StudyPlan,
    array: TriangularArray,
    n: int,
    rng: np.random.Generator,
) -> Tuple[List[dict], List[dict]]:
    """All rows for one grid point n.  Pure given its own rng."""
    rows: List[dict] = []
    errors: List[dict] = []
    index = index_from_config(plan.index, n)

    def emit(metric: str, value: float, bound: float, epsilon=None, delta=None):
        rows.append(
            {
                "label": plan.label,
                "n": int(n),
                "epsilon": epsilon,
                "delta": delta,
                "metric": metric,
                "value": float(value),
                "error_bound": float(bound),
            }
        )

    for eps in plan.epsilon_grid:
        try:
            report = _conditions.evaluate_report(
                array,
                n,
                eps,
                plan.delta,
                index=index,
                eta=plan.eta,
                functionals=plan.functionals,
            )
        except Exception as exc:  # record and continue per spec
            errors.append({"n": int(n), "epsilon": eps, "stage": "conditions",
                           "error": f"{type(exc).__name__}: {exc}"})
            continue
        for name in sorted(report.values):
            emit(
                name,
                report.values[name],
                report.error_bounds.get(name, 0.0),
                epsilon=eps,
                delta=plan.delta,
            )

    for dist_name in plan.distances:
        try:
            est = distance(
                dist_name, array, index, n, rng, plan.samples, plan.alpha, plan.eta, plan.mode
            )
            emit(dist_name, est.value, est.bound)
        except Exception as exc:
            errors.append({"n": int(n), "stage": dist_name,
                           "error": f"{type(exc).__name__}: {exc}"})
    return rows, errors


def _metric_series(rows: List[dict], metric: str, epsilon: Optional[float]) -> List[dict]:
    picked = [
        r
        for r in rows
        if r["metric"] == metric and (epsilon is None or r["epsilon"] == epsilon)
    ]
    return sorted(picked, key=lambda r: r["n"])


def _evaluate_check(check: dict, rows: List[dict]) -> dict:
    """One trend verdict.

    kinds:
      to_zero        strictly decreasing while above final_max,
                     nonincreasing afterwards, final <= final_max
      noisy_decrease each step down within the summed error bounds,
                     final <= final_max (Monte Carlo trend)
      constant       every value = target +- tol
      all_below      every value <= threshold
      final_above    last value >= threshold
      tracks_metric  |metric - other| <= combined bounds per n
    """
    kind = check["kind"]
    metric = check["metric"]
    eps = check.get("epsilon")
    series = _metric_series(rows, metric, eps)
    name = check.get("name") or f"{kind}:{metric}" + (f"@eps={eps:g}" if eps is not None else "")
    if not series:
        return {"check": name, "passed": False, "detail": "no rows for metric"}
    vals = [r["value"] for r in series]
    bounds = [r["error_bound"] for r in series]

    if kind == "to_zero":
        final_max = float(check["final_max"])
        ok = vals[-1] <= final_max
        detail = f"final={vals[-1]:.3e}"
        for a, b in zip(vals[:-1], vals[1:]):
            if a > final_max:
                if not b < a:
                    ok = False
                    detail += f"; not strictly decreasing at {a:.3e}->{b:.3e}"
                    break
            elif b > a + 1e-12:
                ok = False
                detail += f"; increases below threshold {a:.3e}->{b:.3e}"
                break
        return {"check": name, "passed": ok, "detail": detail}

    if kind == "noisy_decrease":
        final_max = float(check["final_max"])
        ok = vals[-1] <= final_max
        detail = f"final={vals[-1]:.4f} (bound {bounds[-1]:.4f})"
        for i in range(len(vals) - 1):
            slack = bounds[i] + bounds[i + 1]
            if vals[i + 1] > vals[i] + slack:
                ok = False
                detail += f"; rise beyond noise at step {i}"
                break
        return {"check": name, "passed": ok, "detail": detail}

    if kind == "constant":
        target = float(check["target"])
        tol = float(check.get("tol", 1e-12))
        worst = max(abs(v - target) for v in vals)
        return {
            "check": name,
            "passed": worst <= tol,
            "detail": f"max deviation {worst:.3e}",
        }

    if kind == "all_below":
        threshold = float(check["threshold"])
        worst = max(vals)
        return {
            "check": name,
            "passed": worst <= threshold,
            "detail": f"max value {worst:.3e}",
        }

    if kind == "final_above":
        threshold = float(check["threshold"])
        return {
            "check": name,
            "passed": vals[-1] >= threshold,
            "detail": f"final={vals[-1]:.4f}",
        }

    # tracks_metric, the last kind StudyPlan.validated admits
    other = _metric_series(rows, check["other"], None)
    if len(other) != len(series):
        return {"check": name, "passed": False, "detail": "metric grids differ"}
    worst = 0.0
    ok = True
    for a, b in zip(series, other):
        gap = abs(a["value"] - b["value"])
        allow = a["error_bound"] + b["error_bound"]
        worst = max(worst, gap - allow)
        if gap > allow:
            ok = False
    return {"check": name, "passed": ok, "detail": f"worst excess {worst:.3e}"}


def run_study(plan: StudyPlan) -> StudyResult:
    """Execute a plan: per-n condition reports, distances, trend verdicts.

    Cells run concurrently up to the RANDSUM_THREADS cap; each cell owns a
    pre-spawned substream and results merge in grid order, so the output
    is identical whatever the worker count.
    """
    plan = plan.validated()
    t0 = time.perf_counter()
    array = array_from_config(plan.array)
    streams = spawn_streams(plan.seed, len(plan.n_grid))

    tasks = list(zip(plan.n_grid, streams))
    workers = min(thread_cap(), len(tasks))
    results: List[Optional[Tuple[List[dict], List[dict]]]] = [None] * len(tasks)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_study_cell, plan, array, n, rng)
                for n, rng in tasks
            ]
            for i, fut in enumerate(futures):
                results[i] = fut.result()
    else:
        for i, (n, rng) in enumerate(tasks):
            results[i] = _study_cell(plan, array, n, rng)

    rows: List[dict] = []
    errors: List[dict] = []
    for cell_rows, cell_errors in results:
        rows.extend(cell_rows)
        errors.extend(cell_errors)
    verdicts = [_evaluate_check(c, rows) for c in plan.checks]
    return StudyResult(
        rows=rows,
        verdicts=verdicts,
        errors=errors,
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# bundled study plans
# ---------------------------------------------------------------------------


_BUILTIN_PLANS: Dict[str, StudyPlan] = {
    "lindeberg_uniform_poisson": StudyPlan(
        label="lindeberg-uniform-poisson",
        array={"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
        index={"family": "poisson", "mean": "n"},
        n_grid=(16, 64, 256, 1024, 4096, 10_000),
        epsilon_grid=(0.1,),
        delta=1.0,
        functionals=("lindeberg", "feller", "rand_lindeberg", "rand_feller"),
        distances=("empirical_delta",),
        checks=(
            {"kind": "to_zero", "metric": "rand_lindeberg", "epsilon": 0.1,
             "final_max": 1e-3},
            {"kind": "noisy_decrease", "metric": "empirical_delta",
             "final_max": 0.02},
        ),
    ),
    # the index must concentrate (relative spread -> 0) for the
    # unstandardized random sum to go normal; a geometric index would
    # park the distance at the Laplace-mixture gap forever
    "lyapunov_exponential_poisson": StudyPlan(
        label="lyapunov-exponential-poisson",
        array={"array": "iid", "base": {"family": "exponential-centered", "rate": 1.0}},
        index={"family": "poisson", "mean": "n"},
        n_grid=(16, 64, 256, 1024, 4096),
        epsilon_grid=(0.3,),
        delta=1.0,
        functionals=("lyapunov", "rand_lyapunov", "rand_lindeberg"),
        distances=("empirical_delta",),
        checks=(
            {"kind": "to_zero", "metric": "rand_lyapunov", "epsilon": 0.3,
             "final_max": 0.05},
            {"kind": "noisy_decrease", "metric": "empirical_delta",
             "final_max": 0.05},
        ),
    ),
    "feller_necessity_rare_jump": StudyPlan(
        label="feller-necessity-rare-jump",
        array={"array": "rare-jump"},
        index={"family": "geometric", "mean": "n"},
        n_grid=(4, 16, 64, 256),
        epsilon_grid=(0.5,),
        delta=1.0,
        functionals=("rand_lindeberg", "rand_feller", "rand_infinitesimality"),
        distances=("empirical_delta", "delta_mixture"),
        checks=(
            {"kind": "final_above", "metric": "rand_lindeberg", "epsilon": 0.5,
             "threshold": 0.5},
            {"kind": "to_zero", "metric": "rand_feller", "epsilon": 0.5,
             "final_max": 0.02},
            # empirical KS minus its DKW bound lower-bounds the true
            # distance, so this is the rigorous non-vanishing evidence
            {"kind": "final_above", "metric": "empirical_delta",
             "threshold": 0.05},
        ),
    ),
    # the concentrated poisson index keeps the sampled rows near n; the
    # grid cap is a cost choice (per-row laws are O(k) at rows-mode scale)
    "rotar_shiryaev_series": StudyPlan(
        label="rotar-shiryaev-series",
        array={"array": "series", "base_seq": "shiryaev"},
        index={"family": "poisson", "mean": "n"},
        n_grid=(16, 64, 256, 512),
        epsilon_grid=(0.5,),
        delta=1.0,
        mode="rows",
        functionals=("rotar", "feller"),
        distances=("empirical_delta", "delta_mixture"),
        checks=(
            {"kind": "all_below", "metric": "rotar", "epsilon": 0.5,
             "threshold": 1e-8},
            {"kind": "all_below", "metric": "delta_mixture", "threshold": 1e-10},
            {"kind": "all_below", "metric": "empirical_delta", "threshold": 0.02},
        ),
    ),
}

BUILTIN_PLAN_NAMES = tuple(sorted(_BUILTIN_PLANS))


def builtin_plan(name: str, **overrides) -> StudyPlan:
    """A bundled study plan by name; overrides replace plan fields.

    Every call returns fresh config dicts, so callers may edit them.
    """
    try:
        plan = _BUILTIN_PLANS[name]
    except KeyError:
        raise KeyError(
            f"unknown plan {name!r}; available: {', '.join(BUILTIN_PLAN_NAMES)}"
        ) from None
    return replace(copy.deepcopy(plan), **overrides)


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def _check(name: str, passed: bool, slack: float, detail: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "slack": float(slack),
        "detail": detail,
    }


def _selfcheck_distributions() -> List[dict]:
    from .distributions import (
        CenteredExponential,
        Rademacher,
        Uniform,
        scale,
    )

    out: List[dict] = []
    families = [
        ("normal", Normal(0.3, 2.0)),
        ("uniform", Uniform(-1.0, 2.0)),
        ("rademacher", Rademacher()),
        ("exponential-centered", CenteredExponential(1.5)),
    ]

    worst = 0.0
    for _, dist in families:
        lo = dist.mean - 6.0 * dist.std
        hi = dist.mean + 6.0 * dist.std
        xs = np.linspace(lo, hi, 128)
        diffs = np.diff(np.asarray(dist.cdf(xs), dtype=float))
        worst = min(worst, float(np.min(diffs)))
    out.append(_check("cdf_monotone", worst >= -1e-12, worst, "min cdf increment"))

    # tsm grows as the threshold shrinks and tops out at the second moment
    worst = math.inf
    for _, dist in families:
        second = dist.variance + dist.mean * dist.mean
        prev = -math.inf
        for eps in (1.0, 0.5, 0.1, 1e-3, 1e-9):
            v = dist.truncated_second_moment(eps)
            if v < prev - 1e-12:
                worst = -1.0
            prev = max(prev, v)
        worst = min(worst, second - prev + 1e-9)
    out.append(_check("tsm_monotone_to_second_moment", worst >= 0.0, worst))

    worst = 0.0
    for _, dist in families:
        scaled = scale(dist, 1.7)
        for t in (0.3, 1.1):
            gap = abs(complex(scaled.char_fn(t)) - complex(dist.char_fn(1.7 * t)))
            worst = max(worst, gap)
    out.append(_check("char_fn_scaling", worst <= 1e-12, worst))

    worst = 0.0
    for _, dist in families:
        norms = [dist.abs_moment(p) ** (1.0 / p) for p in (2.0, 2.5, 3.0)]
        worst = min(worst, norms[1] - norms[0], norms[2] - norms[1])
    out.append(_check("moment_norm_monotone", worst >= -1e-9, worst))
    return out


def _selfcheck_arrays() -> List[dict]:
    out: List[dict] = []
    built = [
        _arrays.make_iid_array(_selfcheck_base()),
        _arrays.make_shiryaev_array(),
        _arrays.make_rare_jump_array(),
        _arrays.from_series(_arrays.shiryaev_series()),
    ]
    worst = 0.0
    for arr in built:
        for n in (2, 4, 8):
            rep = arr.validate(n)
            worst = max(worst, rep.var_residual, rep.max_abs_mean)
            if not rep.passed:
                worst = max(worst, 1.0)
    out.append(_check("array_conditions", worst <= 1e-10, worst))

    direct = _arrays.make_shiryaev_array()
    viaseries = _arrays.from_series(_arrays.shiryaev_series(), rows="n")
    worst = 0.0
    for n in (2, 5):
        for j in range(1, 7):
            a = direct.entry(n, j)
            b = viaseries.entry(n, j)
            same_family = type(a) is type(b)
            rel = abs(a.variance - b.variance) / a.variance
            worst = max(worst, rel if same_family else 1.0)
    out.append(_check("series_matches_direct", worst <= 1e-12, worst))

    worst = 0.0
    for arr in built:
        variances = [law.variance for law in expand(arr.prefix_runs(4))]
        lhs = sum(v * v for v in variances)
        rhs = max(variances)
        worst = max(worst, lhs - rhs)
    out.append(_check("sigma4_sum_bound", worst <= 1e-12, worst))
    return out


def _selfcheck_base():
    from .distributions import Uniform

    return Uniform(-1.0, 1.0)


def _selfcheck_conditions() -> List[dict]:
    from .distributions import Deterministic, Geometric, Rademacher

    out: List[dict] = []
    arr = _arrays.make_iid_array(Rademacher())
    det = Deterministic(4)
    worst = 0.0
    pairs = [
        ("RL", _conditions.lindeberg(arr, 4, 0.3), {"epsilon": 0.3}),
        ("RLambda", _conditions.lyapunov(arr, 4, 1.0), {"delta": 1.0}),
        ("RF", _conditions.feller(arr, 4), {}),
        ("RI", _conditions.infinitesimality(arr, 4, 0.3), {"epsilon": 0.3}),
        ("RR", _conditions.rotar(arr, 4, 0.3), {"epsilon": 0.3}),
    ]
    for tag, classical, kwargs in pairs:
        rand = _conditions.randomized(tag, arr, det, 4, **kwargs)
        worst = max(worst, abs(rand - classical))
    out.append(_check("deterministic_index_reduction", worst <= 1e-10, worst))

    checks = _conditions.implication_suite(
        arr, Geometric(0.5), (2, 6), (0.25, 1.0), (0.5, 1.0)
    )
    slack = min(c.slack for c in checks)
    out.append(
        _check(
            "implication_chain",
            all(c.ok for c in checks),
            slack,
            f"{len(checks)} inequalities",
        )
    )

    sh = _arrays.make_shiryaev_array()
    rotar_val = _conditions.rotar(sh, 4, 0.5)
    apriori = _conditions.rotar_error_bound(sh.row_length(4))
    passed = rotar_val <= 1e-8 and apriori <= 1e-8
    out.append(
        _check(
            "rotar_zero_on_normal",
            passed,
            1e-8 - max(rotar_val, apriori),
            f"value {rotar_val:.2e}, a priori bound {apriori:.2e}",
        )
    )
    return out


def _selfcheck_metrics() -> List[dict]:
    from .distributions import FiniteIndex, Rademacher

    out: List[dict] = []
    est = _metrics.kolmogorov(Normal(0.0, 1.0), Normal(0.0, 1.0))
    out.append(_check("kolmogorov_identity", est.value == 0.0, -est.value))

    arr = _arrays.make_iid_array(Rademacher())
    law = _metrics.row_sum_law(arr, 8)
    import itertools

    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    sums = signs.sum(axis=1) / math.sqrt(8.0)
    uniq, counts = np.unique(sums, return_counts=True)
    probs = counts / signs.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    from scipy.special import ndtr

    exact = 0.0
    for i, v in enumerate(uniq):
        exact = max(exact, abs(cum[i] - float(ndtr(v))), abs(cum[i + 1] - float(ndtr(v))))
    est = _metrics.kolmogorov(law, Normal(0.0, 1.0))
    gap = abs(est.value - exact)
    out.append(_check("kolmogorov_binomial_oracle", gap <= 1e-12, gap))

    z_base = _metrics.zeta(Rademacher(), Normal(0.0, 1.0), 2)
    from .distributions import scale

    z_scaled = _metrics.zeta(scale(Rademacher(), 2.0), Normal(0.0, 4.0), 2)
    rel = abs(z_scaled.value - 4.0 * z_base.value) / (4.0 * z_base.value)
    out.append(_check("zeta_homogeneity", rel <= 1e-8, rel))

    lower = _metrics.zeta_lower_bound(Rademacher(), Normal(0.0, 1.0), 2)
    slack = z_base.value + z_base.bound + 1e-9 - lower.value
    out.append(_check("zeta_sandwich", slack >= 0.0, slack))

    idx = FiniteIndex([1, 2, 4], [0.25, 0.5, 0.25])
    dm = _metrics.delta_mixture(arr, idx, 4, 1e-12)
    dr = _metrics.delta_randomsum(arr, idx, 4, 1e-12)
    slack = dm.value + dm.bound + dr.bound - dr.value
    out.append(_check("randomsum_below_mixture", slack >= 0.0, slack))
    return out


def _selfcheck_engine(seed: int) -> List[dict]:
    from .distributions import Geometric

    out: List[dict] = []
    a_draws = sample_random_sums(
        _arrays.make_iid_array(_selfcheck_base()),
        Geometric(0.25),
        8,
        np.random.default_rng(np.random.SeedSequence(seed)),
        4096,
    )
    b_draws = sample_random_sums(
        _arrays.make_iid_array(_selfcheck_base()),
        Geometric(0.25),
        8,
        np.random.default_rng(np.random.SeedSequence(seed)),
        4096,
    )
    same = bool(np.array_equal(a_draws, b_draws))
    out.append(_check("stream_determinism", same, 0.0 if same else -1.0))

    series = _arrays.from_series(_arrays.shiryaev_series())
    rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
    est = empirical_delta(series, Geometric(0.2), 8, rng, 20_000, 0.001, mode="rows")
    slack = est.bound - est.value
    out.append(
        _check(
            "exact_normal_series_ks",
            est.value <= est.bound,
            slack,
            f"KS {est.value:.4f} vs DKW {est.bound:.4f}",
        )
    )

    dm = _metrics.delta_mixture(series, Geometric(0.2), 8, 1e-12, mode="rows")
    out.append(_check("exact_normal_series_mixture", dm.value <= 1e-10, 1e-10 - dm.value))
    return out


def selfcheck(seed: int = 42) -> dict:
    """Small-scale invariant suite across all modules.

    The report is a plain dict; serialized with sorted keys it is
    byte-identical across runs for a fixed seed (no timestamps, no
    runtimes).  It records the quadrature tolerance, whose a priori
    Rotar guarantee is part of the checks.
    """
    checks: List[dict] = []
    checks.extend(_selfcheck_distributions())
    checks.extend(_selfcheck_arrays())
    checks.extend(_selfcheck_conditions())
    checks.extend(_selfcheck_metrics())
    checks.extend(_selfcheck_engine(seed))
    return {
        "seed": int(seed),
        "quad_tol": QUAD_ABS_TOL,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
