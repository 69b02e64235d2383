"""Spans and counters around randsum's layer entry points.

The tracer wraps public entry points of ``distributions``, ``arrays``,
``conditions``, ``metrics``, ``engine`` and ``cli`` where the program
looks them up at call time: module attributes for functions, class
attributes for methods, and ``scipy.integrate.quad`` for quadrature.
The program's source is not touched, and ``uninstall`` restores every
attribute.  Frequent tiny calls (``TriangularArray.entry`` and the
samplers) are counted without a span.

A span is ``(name, start, end, parent)``.  A span's self time is its
duration minus the durations of its direct children; the program runs
single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# metric name -> span names whose self time it sums
SELF_TIME = {
    "distributions.quad_s": ("distributions.quad",),
    "distributions.truncation_s": ("distributions.truncation",),
    "engine.sample_s": ("engine.sample_random_sums", "engine.normal_row_sums"),
    "engine.study_s": ("engine.run_study",),
    "arrays.validate_s": ("arrays.validate",),
    "conditions.report_s": ("conditions.evaluate_report",),
    "conditions.rotar_s": ("conditions.rotar", "conditions.randomized_detailed:RR"),
    "conditions.randomized_s": ("conditions.randomized_detailed",),
    "metrics.kolmogorov_s": ("metrics.kolmogorov",),
    "metrics.mixture_s": ("metrics.delta_mixture", "metrics.delta_randomsum"),
    "metrics.empirical_ks_s": ("metrics.empirical_kolmogorov",),
    "metrics.zeta_s": ("metrics.zeta",),
    "cli.config_s": ("cli.config",),
    "cli.write_s": ("cli.write",),
}

# metric name -> span names whose count it is
SPAN_COUNT = {
    "distributions.quad_calls": ("distributions.quad",),
    "distributions.truncation_calls": ("distributions.truncation",),
    "arrays.validate_calls": ("arrays.validate",),
    "conditions.report_calls": ("conditions.evaluate_report",),
    "conditions.randomized_calls": ("conditions.randomized_detailed",
                                    "conditions.randomized_detailed:RR"),
    "metrics.kolmogorov_calls": ("metrics.kolmogorov",),
    "metrics.zeta_calls": ("metrics.zeta",),
}


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.atoms_max = 0
        self.new_arrays: List[object] = []
        self._stack: List[int] = []
        self._sample_depth = 0
        self._restore: List[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn: Callable, after: Optional[Callable] = None,
                 namer: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(namer(*args, **kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _drawn(self, fn: Callable) -> Callable:
        """Count the variates an outermost ``sample`` call returns."""

        @functools.wraps(fn)
        def wrapper(dist, rng, size=None):
            self._sample_depth += 1
            try:
                out = fn(dist, rng, size)
            finally:
                self._sample_depth -= 1
            if self._sample_depth == 0:
                self.counts["distributions.draws"] += int(np.size(out))
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import scipy.integrate

        from randsum import arrays, cli, conditions, distributions, engine, metrics

        p = self._patch
        p(scipy.integrate, "quad", self._spanned("distributions.quad", scipy.integrate.quad))
        p(distributions.RandomIndex, "truncation",
          self._spanned("distributions.truncation", distributions.RandomIndex.truncation))
        for module in (distributions, metrics):
            for cls in list(vars(module).values()):
                if (isinstance(cls, type) and cls.__module__ == module.__name__
                        and "sample" in cls.__dict__
                        and not issubclass(cls, distributions.RandomIndex)):
                    p(cls, "sample", self._drawn(cls.__dict__["sample"]))

        # the vectorized all-normal path draws with rng.standard_normal
        # directly, one variate per summand of every requested row prefix
        def normal_draws(result, sigmas, ks, rng):
            self.counts["distributions.draws"] += int(np.sum(ks))

        p(engine, "_normal_row_sums",
          self._spanned("engine.normal_row_sums", engine._normal_row_sums, normal_draws))
        p(engine, "sample_random_sums",
          self._spanned("engine.sample_random_sums", engine.sample_random_sums))
        p(engine, "run_study", self._spanned("engine.run_study", engine.run_study))

        tri = arrays.TriangularArray
        p(tri, "entry", self._counted("arrays.entry_calls", tri.entry))
        p(tri, "validate", self._spanned("arrays.validate", tri.validate))
        init = tri.__init__

        def register(array, *args, **kwargs):
            init(array, *args, **kwargs)
            self.new_arrays.append(array)

        p(tri, "__init__", register)

        p(conditions, "evaluate_report",
          self._spanned("conditions.evaluate_report", conditions.evaluate_report))
        p(conditions, "rotar", self._spanned("conditions.rotar", conditions.rotar))
        p(conditions, "randomized_detailed",
          self._spanned("conditions.randomized_detailed", conditions.randomized_detailed,
                        namer=lambda tag, *a, **k: "conditions.randomized_detailed"
                        + (":RR" if tag == "RR" else "")))

        def grid_points(est, *args, **kwargs):
            self.counts["metrics.kolmogorov_points"] += int(est.params.get("grid", 0))

        p(metrics, "kolmogorov",
          self._spanned("metrics.kolmogorov", metrics.kolmogorov, grid_points))
        sum_init = metrics.SumLaw.__init__

        def atoms(law, *args, **kwargs):
            sum_init(law, *args, **kwargs)
            self.atoms_max = max(self.atoms_max, int(law._values.size))

        p(metrics.SumLaw, "__init__", atoms)
        for name in ("delta_mixture", "delta_randomsum", "empirical_kolmogorov", "zeta"):
            p(metrics, name, self._spanned(f"metrics.{name}", getattr(metrics, name)))

        p(cli, "main", self._spanned("cli.main", cli.main))
        p(cli, "_load_config", self._spanned("cli.config", cli._load_config))
        p(cli, "effective_config", self._spanned("cli.config", cli.effective_config))

        def written(result, path, text):
            self.counts["cli.output_bytes"] += len(text.encode())

        p(cli, "_atomic_write", self._spanned("cli.write", cli._atomic_write, written))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-operation and per-round readings ------------------------------

    def entries_cached(self) -> int:
        """Entries held in the entry caches of the arrays built since the last call."""
        total = sum(a._entry_cached.cache_info().currsize for a in self.new_arrays)
        self.new_arrays.clear()
        return total

    def mark(self) -> tuple:
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since: tuple, entries_cached: int) -> Dict[str, float]:
        """Per-layer metrics over the spans and counts recorded after ``since``."""
        first, counts_then = since
        spans = self.spans[first:]
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for offset, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child_time[first + offset]
            calls[name] += 1
        counts = self.counts - counts_then

        out: Dict[str, float] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_time[n] for n in names)
        for metric, names in SPAN_COUNT.items():
            out[metric] = sum(calls[n] for n in names)
        for key in ("distributions.draws", "arrays.entry_calls",
                    "metrics.kolmogorov_points", "cli.output_bytes"):
            out[key] = counts[key]
        sample_s = out["engine.sample_s"]
        out["engine.draws_per_s"] = counts["distributions.draws"] / sample_s if sample_s else 0.0
        out["arrays.entries_cached"] = entries_cached
        out["metrics.atoms_max"] = self.atoms_max
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
