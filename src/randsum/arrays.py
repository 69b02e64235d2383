"""Triangular arrays of row-independent, zero-mean summands.

An array assigns a law to every entry ``(n, j)`` with ``j >= 1``; rows are
conceptually infinite so that a random index may exceed the row length.
The row length ``k_n`` (nondecreasing, unbounded) marks where the row
variance constraint applies: ``sum_{j<=k_n} var(n, j) = 1``.

Entries within a row are independent by construction; no joint sampling
state lives on the array, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .distributions import (
    ConfigEntry,
    Normal,
    ScalarDistribution,
    TwoPoint,
    distribution_from_config,
    scale,
    scaled_normal_variance,
    shift,
)

__all__ = [
    "ArrayError",
    "RowLengths",
    "TriangularArray",
    "SeriesForm",
    "RowValidation",
    "make_iid_array",
    "make_shiryaev_array",
    "make_rare_jump_array",
    "from_series",
    "shiryaev_series",
    "ARRAY_KINDS",
    "array_from_config",
]

RowRule = Union[str, int, Callable[[int], int]]

# Tolerances for row validation.
MEAN_TOL = 1e-12
VAR_SUM_TOL = 1e-10


class ArrayError(ValueError):
    """Invalid array construction or a row violating its preconditions."""


class RowLengths:
    """Row-length rule n -> k_n; must be nondecreasing and unbounded.

    Accepts the string ``"n"`` (identity, the default), ``"2n"`` or a
    plain callable.  Integer rules are deliberately not accepted: a
    constant rule would violate unboundedness.
    """

    def __init__(self, rule: RowRule = "n", minimum: int = 1):
        self._minimum = int(minimum)
        if isinstance(rule, str):
            if rule == "n":
                self._fn = lambda n: n
            elif rule == "2n":
                self._fn = lambda n: 2 * n
            else:
                raise ArrayError(f"unknown row-length rule {rule!r}")
            self._tag = rule
        elif callable(rule):
            self._fn = rule
            self._tag = "custom"
        else:
            raise ArrayError("row-length rule must be a string or callable")

    @property
    def tag(self) -> str:
        return self._tag

    def __call__(self, n: int) -> int:
        if n < 1 or int(n) != n:
            raise ArrayError("row parameter n must be a positive integer")
        k = int(self._fn(int(n)))
        if k < 1:
            raise ArrayError(f"row length k_n must be >= 1, got {k} at n={n}")
        return max(k, self._minimum)


@dataclass(frozen=True)
class RowValidation:
    """Outcome of checking one row against the array conditions."""

    n: int
    row_length: int
    max_abs_mean: float
    var_sum: float
    mean_ok: bool
    var_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.var_ok

    @property
    def var_residual(self) -> float:
        return abs(self.var_sum - 1.0)


# A run of equal laws: (law, count); a count of None never ends.
Run = Tuple[ScalarDistribution, Optional[int]]


def expand(runs: Iterable[Tuple[object, Optional[int]]]) -> Iterator:
    """Each run's item once per position it covers, read lazily."""
    for item, size in runs:
        yield from repeat(item) if size is None else repeat(item, size)


def take(runs: Iterable[Run], k: int) -> List[Tuple[ScalarDistribution, int]]:
    """The runs covering positions 1..k, the last one cut at k.

    Reads no run past position k, so it builds no law there.
    """
    out: List[Tuple[ScalarDistribution, int]] = []
    runs = iter(runs)
    while k > 0:
        law, size = next(runs)
        size = k if size is None or size > k else size
        out.append((law, size))
        k -= size
    return out


def run_sum(runs: Sequence[Tuple[float, int]]) -> float:
    """Sum of each value taken count times, added left to right.

    The values are expanded and added in position order, so the sum keeps
    the bits of the position-by-position sum.
    """
    if not runs:
        return 0.0
    values, counts = zip(*runs)
    return float(np.cumsum(np.repeat(values, counts))[-1])


def _centered_normal(law: ScalarDistribution) -> bool:
    return isinstance(law, Normal) and law.mean == 0.0


class TriangularArray:
    """Base class: rows of independent zero-mean entries.

    Subclasses implement ``_entry(n, j)`` for every ``j >= 1`` and expose a
    row-length rule; ``entry`` caches its results per array.  Row
    consumers read a row through ``runs``, which by default makes each
    position a run of its own; a row of one law overrides it.  Rows of
    centered normals are also read as one variance vector through
    ``normal_variances``, which arrays with a closed form override.
    """

    label: str = "array"

    def __init__(self, rows: RowRule = "n", *, min_row: int = 1):
        self.row_lengths = RowLengths(rows, minimum=min_row)
        self._entry_cached = lru_cache(maxsize=None)(self._entry)
        self._validations: Dict[int, RowValidation] = {}

    def row_length(self, n: int) -> int:
        return self.row_lengths(n)

    def entry(self, n: int, j: int) -> ScalarDistribution:
        """Law of the entry at row n, position j (1-based, any j >= 1)."""
        if j < 1 or int(j) != j:
            raise ArrayError("entry position j must be a positive integer")
        return self._entry_cached(int(n), int(j))

    def _entry(self, n: int, j: int) -> ScalarDistribution:
        raise NotImplementedError

    def runs(self, n: int) -> Iterator[Run]:
        """Row n's laws as runs ``(law, count)`` in position order.

        Rows are infinite, so the runs never end; each is built only when
        it is read.
        """
        for j in count(1):
            yield self.entry(n, j), 1

    def prefix_runs(self, n: int, k: Optional[int] = None) -> List[Tuple[ScalarDistribution, int]]:
        """The runs of row n covering positions 1..k (default k_n)."""
        return take(self.runs(n), self.row_length(n) if k is None else k)

    def normal_variances(self, n: int, k: Optional[int] = None) -> Optional[np.ndarray]:
        """Variances of positions 1..k of row n (default k_n) when every one
        of those entries is a centered ``Normal``, else None.

        The values are bit for bit those of ``entry(n, j).variance``.
        """
        runs = self.prefix_runs(n, k)
        if not all(_centered_normal(law) for law, _ in runs):
            return None
        return np.repeat([law.variance for law, _ in runs], [size for _, size in runs])

    def validate(self, n: int) -> RowValidation:
        """Check row n for zero entry means and unit variance sum."""
        k = self.row_length(n)
        runs = self.prefix_runs(n, k)
        max_mean = max(abs(law.mean) for law, _ in runs)
        var_sum = run_sum([(law.variance, size) for law, size in runs])
        return RowValidation(
            n=n,
            row_length=k,
            max_abs_mean=max_mean,
            var_sum=var_sum,
            mean_ok=max_mean <= MEAN_TOL,
            var_ok=abs(var_sum - 1.0) <= VAR_SUM_TOL,
        )

    def validation(self, n: int) -> RowValidation:
        """``validate(n)``, computed once per row.

        Rows never change, so the result is kept; threads that race on a
        new row each compute the same result and one of them is kept.
        """
        check = self._validations.get(n)
        if check is None:
            check = self._validations[n] = self.validate(n)
        return check


class _OneLawArray(TriangularArray):
    """Row n holds one law, built from k_n, at every position and beyond."""

    def __init__(self, row_law: Callable[[int], ScalarDistribution], label: str, rows: RowRule):
        super().__init__(rows)
        self._row_law = lru_cache(maxsize=None)(row_law)
        self.label = label

    def _entry(self, n: int, j: int) -> ScalarDistribution:
        return self._row_law(self.row_length(n))

    def runs(self, n: int) -> Iterator[Run]:
        yield self._row_law(self.row_length(n)), None


class _ShiryaevArray(TriangularArray):
    """All-normal array with geometrically growing base variances.

    Base sequence: D X_1 = 1 and D X_j = 2^(j-2) for j >= 2, normalized by
    B_n^2 = sum_{j<=k_n} D X_j = 2^(k_n - 1).  Every entry is normal, the
    row variances sum to one exactly, and the largest normalized entry
    variance equals 1/2 for every row, so the Feller condition fails while
    each row sum is exactly standard normal.
    """

    def __init__(self, rows: RowRule = "n"):
        super().__init__(rows, min_row=2)
        self.label = "shiryaev"

    @staticmethod
    def base_variance(j: int) -> float:
        expo = 0 if j == 1 else j - 2
        return 2.0 ** expo if expo <= 1023 else math.inf

    def _entry(self, n: int, j: int) -> ScalarDistribution:
        k = self.row_length(n)
        # variance ratio 2^(j-1-k) formed without the overflowing raw terms;
        # positions far past the row saturate at inf (the honest divergence)
        expo = (1 - k) if j == 1 else (j - 1 - k)
        variance = 2.0 ** expo if expo <= 1023 else math.inf
        if variance == 0.0:
            raise ArrayError(
                f"shiryaev entry ({n}, {j}) underflows to zero variance; "
                "rows this deep are outside the numeric envelope"
            )
        return Normal(0.0, variance)


_LOG_MAX = math.log(sys.float_info.max)


class SeriesForm:
    """A fixed sequence X_1, X_2, ... viewed as normalization input.

    ``base(j)`` returns the law of X_j; ``center(j)`` and ``variance(j)``
    report its mean a_j and variance.  The partial variance sums
    B_n^2 = sum_{j<=n} var(j) are tracked exactly in linear space while
    they fit in a float and continue in log space afterwards, so rows far
    past the overflow point of the raw sums stay usable.

    When the raw member laws themselves outgrow float64, supply explicit
    ``log_variance`` and ``standardized`` callables (the law of
    (X_j - a_j)/sd_j); by default both derive from ``base``.
    ``standardized_variances`` tells whether the standardized members are
    centered normals; the series array's ``normal_variances`` and
    ``series_implication_suite`` switch to closed forms when they are.
    """

    def __init__(
        self,
        base: Callable[[int], ScalarDistribution],
        label: str = "series",
        *,
        log_variance: Optional[Callable[[int], float]] = None,
        standardized: Optional[Callable[[int], ScalarDistribution]] = None,
    ):
        self._base = lru_cache(maxsize=None)(base)
        self.label = label
        self._log_variance_fn = log_variance
        self._standardized_fn = standardized
        self._logvar: List[float] = []
        self._logbsq: List[float] = []
        # the last B_n^2, summed in linear space while it stays finite;
        # written under _extend_lock
        self._bsq_linear = 0.0
        self._linear_alive = True
        # variances of the leading standardized members that are centered
        # normals; closed once a member is not one
        self._normal_vars: List[float] = []
        self._normals_open = True
        # run_study shares one array, and so one series, across its threads;
        # reentrant, since a standardized callable may read the series
        self._extend_lock = threading.RLock()

    def base(self, j: int) -> ScalarDistribution:
        if j < 1:
            raise ArrayError("series position must be >= 1")
        return self._base(int(j))

    def center(self, j: int) -> float:
        return self.base(j).mean

    def variance(self, j: int) -> float:
        lv = self.log_variance(j)
        return math.exp(lv) if lv <= _LOG_MAX else math.inf

    def log_variance(self, j: int) -> float:
        if j < 1:
            raise ArrayError("series position must be >= 1")
        if self._log_variance_fn is not None:
            return float(self._log_variance_fn(int(j)))
        var_j = self.base(j).variance
        if var_j <= 0:
            raise ArrayError(f"series member {j} has nonpositive variance")
        if math.isinf(var_j):
            raise ArrayError(
                f"series member {j} has a variance past float range; "
                "supply an explicit log_variance"
            )
        return math.log(var_j)

    def standardized(self, j: int) -> ScalarDistribution:
        """Law of (X_j - a_j) / sd_j."""
        if self._standardized_fn is not None:
            return self._standardized_fn(int(j))
        sd = math.exp(0.5 * self.log_variance(j))
        return scale(shift(self.base(j), -self.center(j)), 1.0 / sd)

    def standardized_variances(self, k: int) -> Optional[List[float]]:
        """Variances of the standardized members 1..k when every one of
        them is a centered ``Normal``, else None.

        Each member is read once: the answers are kept per position.
        """
        if len(self._normal_vars) < k and self._normals_open:
            with self._extend_lock:
                while len(self._normal_vars) < k and self._normals_open:
                    member = self.standardized(len(self._normal_vars) + 1)
                    if _centered_normal(member):
                        self._normal_vars.append(member.variance)
                    else:
                        self._normals_open = False
        return self._normal_vars[:k] if len(self._normal_vars) >= k else None

    def _extend(self, n: int) -> None:
        # _logbsq is appended last, so once it holds n terms _logvar does too
        # and readers need no lock
        if len(self._logbsq) >= n:
            return
        with self._extend_lock:
            while len(self._logvar) < n:
                j = len(self._logvar) + 1
                lv = float(self.log_variance(j))
                if math.isnan(lv) or lv == -math.inf:
                    raise ArrayError(f"series member {j} has nonpositive variance")
                if lv == math.inf:
                    raise ArrayError(f"series member {j} has an infinite log variance")
                self._logvar.append(lv)
                if self._linear_alive:
                    var_j = math.exp(lv) if lv <= _LOG_MAX else math.inf
                    nxt = self._bsq_linear + var_j
                    if math.isfinite(nxt):
                        self._bsq_linear = nxt
                        self._logbsq.append(math.log(nxt))
                        continue
                    self._linear_alive = False
                self._logbsq.append(float(np.logaddexp(self._logbsq[-1], lv)))

    def log_b_squared(self, n: int) -> float:
        if n < 1 or int(n) != n:
            raise ArrayError("series prefix length must be a positive integer")
        self._extend(int(n))
        return self._logbsq[int(n) - 1]

    def log_variance_profile(self, n: int) -> np.ndarray:
        """Member log variances for j = 1..n."""
        self._extend(int(n))
        return np.asarray(self._logvar[: int(n)], dtype=float)

    def log_b_squared_profile(self, n: int) -> np.ndarray:
        """log B_k^2 for k = 1..n."""
        self._extend(int(n))
        return np.asarray(self._logbsq[: int(n)], dtype=float)


def _series_factor(log_var: float, log_bsq: float) -> float:
    """sd_j / B_k from log sd_j^2 and log B_k^2, unchecked."""
    half_log = 0.5 * (log_var - log_bsq)
    # positions far past the row: the ratio leaves float range, and the
    # saturated law keeps the divergence honest instead of crashing
    return math.exp(half_log) if half_log <= _LOG_MAX else math.inf


class _SeriesArray(TriangularArray):
    """Array built from a series: entry(n, j) = (X_j - a_j) / B_{k_n}."""

    def __init__(self, series: SeriesForm, rows: RowRule = "n"):
        super().__init__(rows)
        self.series = series
        self.label = f"series-{series.label}"

    @staticmethod
    def _factor(n: int, j: int, log_var: float, log_bsq: float, variance: float) -> float:
        """sd_j / B_{k_n} for entry (n, j) from the two logs, checked so
        that the entry's variance, factor**2 times the standardized
        member's ``variance``, stays positive."""
        factor = _series_factor(log_var, log_bsq)
        # the square underflows long before the factor itself does
        if factor * factor * variance == 0.0:
            raise ArrayError(
                f"series entry ({n}, {j}) underflows to zero variance; "
                "rows this deep are outside the numeric envelope"
            )
        return factor

    def _entry(self, n: int, j: int) -> ScalarDistribution:
        k = self.row_length(n)
        member = self.series.standardized(j)
        log_var, log_bsq = self.series.log_variance(j), self.series.log_b_squared(k)
        return scale(member, self._factor(n, j, log_var, log_bsq, member.variance))

    def normal_variances(self, n: int, k: Optional[int] = None) -> Optional[np.ndarray]:
        # _entry's arithmetic with no law built: the differences and products
        # round alike in numpy, but np.exp need not round as libm does, so
        # the factors come from math.exp
        row = self.row_length(n)
        k = row if k is None else int(k)
        member_vars = self.series.standardized_variances(k)
        if member_vars is None:
            return None
        log_bsq = self.series.log_b_squared(row)
        # the profile's log variances are the ones log_variance returns;
        # past the row they are read one by one, as _entry reads them
        log_vars = np.concatenate((
            self.series.log_variance_profile(min(k, row)),
            np.fromiter(map(self.series.log_variance, range(row + 1, k + 1)), float),
        ))
        # fmin takes NaN and every half log past _LOG_MAX to _LOG_MAX, whose
        # factor squares to inf, as _series_factor's saturated factor does
        half_logs = np.fmin(0.5 * (log_vars - log_bsq), _LOG_MAX)
        factors = np.fromiter(map(math.exp, half_logs.tolist()), float, len(half_logs))
        variances = factors * factors * np.fromiter(member_vars, float, len(member_vars))
        # a product that is not positive re-runs the checked path, which
        # raises what the entry would
        for i in np.flatnonzero(~(variances > 0.0)).tolist():
            var = member_vars[i]
            scaled_normal_variance(var, self._factor(n, i + 1, float(log_vars[i]), log_bsq, var))
        return variances


def make_iid_array(
    base: ScalarDistribution, rows: RowRule = "n", label: Optional[str] = None
) -> TriangularArray:
    """I.i.d. array: every entry of row n is the centered base scaled to
    variance 1/k_n."""
    if base.variance <= 0:
        raise ArrayError("i.i.d. array requires a base law with positive variance")
    centered = shift(base, -base.mean) if base.mean != 0.0 else base
    return _OneLawArray(
        lambda k: scale(centered, 1.0 / math.sqrt(k * centered.variance)),
        label or f"iid-{base.family}",
        rows,
    )


def make_shiryaev_array(rows: RowRule = "n") -> TriangularArray:
    """The all-normal Feller-violating array (row length floor of 2)."""
    return _ShiryaevArray(rows)


def make_rare_jump_array(rows: RowRule = "n") -> TriangularArray:
    """Two-point array whose row sums approach a centered Poisson law.

    Each entry of row n takes the value 1 with probability 1/(k_n + 1) and
    -1/k_n otherwise.  Rows satisfy the zero-mean and unit-variance-sum
    conditions exactly, the Feller functional vanishes like 1/k_n, yet the
    Lindeberg functional stays near one for thresholds below 1.
    """
    return _OneLawArray(lambda k: TwoPoint(-1.0 / k, 1.0, 1.0 - 1.0 / (k + 1.0)), "rare-jump", rows)


_STD_NORMAL = Normal(0.0, 1.0)
_LN2 = math.log(2.0)


def shiryaev_series() -> SeriesForm:
    """Series X_j ~ N(0, 2^(j-2)) (X_1 ~ N(0,1)) matching the all-normal array.

    Raw variances leave float range past j ~ 1076, so the series carries
    explicit log variances and standardized members.
    """
    return SeriesForm(
        lambda j: Normal(0.0, _ShiryaevArray.base_variance(j)),
        label="shiryaev",
        log_variance=lambda j: 0.0 if j == 1 else (j - 2) * _LN2,
        standardized=lambda j: _STD_NORMAL,
    )


def from_series(series: SeriesForm, rows: RowRule = "n") -> TriangularArray:
    """Triangular array induced by a series: entries (X_j - a_j)/B_{k_n}."""
    return _SeriesArray(series, rows)


def _series_from_config(cfg: dict) -> TriangularArray:
    seq = cfg.get("base_seq", "shiryaev")
    if seq != "shiryaev":
        raise ArrayError(f"unknown series base sequence {seq!r}")
    return from_series(shiryaev_series(), cfg.get("rows", "n"))


ARRAY_KINDS = {
    "iid": ConfigEntry(
        lambda c: make_iid_array(distribution_from_config(c["base"]), c.get("rows", "n"),
                                 f"iid-{c['base']['family']}"),
        ("base",),
        ("rows",),
    ),
    "shiryaev": ConfigEntry(lambda c: make_shiryaev_array(c.get("rows", "n")), (), ("rows",)),
    "rare-jump": ConfigEntry(lambda c: make_rare_jump_array(c.get("rows", "n")), (), ("rows",)),
    "series": ConfigEntry(_series_from_config, (), ("base_seq", "rows")),
}


def array_from_config(cfg: dict) -> TriangularArray:
    """Build an array from a config mapping (ARRAY_KINDS)."""
    kind = cfg.get("array")
    if kind not in ARRAY_KINDS:
        raise ArrayError(f"unknown array kind {kind!r}")
    return ARRAY_KINDS[kind].build(cfg)
