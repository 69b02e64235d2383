"""Classical and randomized CLT condition functionals on triangular arrays.

Classical functionals act on row ``n`` over positions ``j = 1..k_n``:

* ``lindeberg(eps)``      sum_j E[X_{nj}^2 1{|X_{nj}| >= eps}]
* ``lyapunov(delta)``     sum_j E|X_{nj}|^{2+delta},  delta in (0, 1]
* ``feller()``            max_j Var X_{nj}
* ``infinitesimality``    max_j P(|X_{nj}| >= eps)
* ratio form              max_j E[X^2 / (1 + X^2)]
* ``cf_deviation(t)``     max_j |phi_{nj}(t) - 1|
* ``rotar(eps)``          sum_j int_{|x|>eps} |x| |F_{nj}(x) - Phi_{0,s_j}(x)| dx

Randomized counterparts replace the fixed row length with a random index
``nu`` independent of the summands: the functional becomes the mixture
``sum_k P(nu = k) * prefix_functional(k)`` where the prefix runs over
``j = 1..k`` on the (row-infinite) array.  Mixtures are truncated at the
smallest ``K`` with ``P(nu > K) <= eta`` and the neglected tail is
reported as a remainder bound where a finite majorant exists.

Thresholds use the non-strict convention ``|X| >= eps`` so that
Chebyshev-type comparisons stay exact on atomic laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import gammaln, ndtr

from .arrays import TriangularArray, expand, run_sum
from .distributions import (
    _SQRT_2PI,
    QUAD_ABS_TOL,
    CdfPiece,
    Normal,
    RandomIndex,
    ScalarDistribution,
    _norm_pdf,
    _quad,
)

__all__ = [
    "InvalidRowError",
    "lindeberg",
    "lyapunov",
    "feller",
    "infinitesimality",
    "infinitesimality_ratio",
    "cf_deviation",
    "rotar",
    "sigma_star",
    "randomized",
    "RandomizedValue",
    "randomized_detailed",
    "RANDOMIZED_TAGS",
    "FUNCTIONALS",
    "InequalityCheck",
    "implication_suite",
    "series_implication_suite",
    "ConditionReport",
    "REPORT_FUNCTIONALS",
    "evaluate_report",
]

# Default truncation tail for randomized mixtures.
DEFAULT_ETA = 1e-10
# Largest admissible truncation tail accepted by the randomized evaluator.
MAX_ETA = 1e-3
# Slack tolerance when checking implication inequalities numerically.
IMPLICATION_SLACK = 1e-9
# The t values at which a report evaluates cf_deviation.
CF_T_GRID = (0.5, 1.0, 2.0)
# Tail target when choosing the finite window of the Rotar integral.
_ROTAR_TAIL_TARGET = 1e-12
# A priori error of one entry's Rotar integral: the quadrature tolerance
# plus the certified tail remainder.
_ROTAR_ALLOWANCE = QUAD_ABS_TOL + _ROTAR_TAIL_TARGET
# Unit roundoff u of float64.
UNIT_ROUNDOFF = 2.0 ** -53


def rounding_gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u): the relative error of m roundings
    (Higham 2002, ch. 3)."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


class InvalidRowError(ValueError):
    """Row fails the zero-mean or unit-variance-sum precondition."""


def _guard_row(array: TriangularArray, n: int) -> int:
    check = array.validation(n)
    if not check.passed:
        raise InvalidRowError(
            f"row n={n} of {array.label!r} violates array conditions: "
            f"max |mean| = {check.max_abs_mean:.3e}, variance sum = {check.var_sum!r}"
        )
    return check.row_length


def _delta_ok(delta: float) -> float:
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return float(delta)


def _eps_ok(epsilon: float) -> float:
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return float(epsilon)


# ---------------------------------------------------------------------------
# per-entry evaluations
# ---------------------------------------------------------------------------


# scipy.optimize.brentq's defaults
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * 2.0 ** -52
_BRENT_MAXITER = 100


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            maxiter: int = _BRENT_MAXITER) -> float:
    """A root of ``f`` in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq.c`` at scipy's defaults
    (xtol 2e-12, rtol 4 eps), so it returns the bits that
    ``scipy.optimize.brentq`` returns without importing scipy.optimize.
    Raises ValueError when f(xa) and f(xb) have the same sign or ``f``
    returns NaN, and RuntimeError after ``maxiter`` iterations.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or nan here, and either one bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations")


def _x_cdf_primitive(x: float, sigma: float) -> float:
    """G(x) = (x^2 - sigma^2) Phi(x/sigma)/2 + sigma x phi(x/sigma)/2, a
    primitive of x Phi(x/sigma) that vanishes at -inf."""
    z = x / sigma
    return 0.5 * ((x * x - sigma * sigma) * float(ndtr(z)) + sigma * x * float(_norm_pdf(z)))


def _rotar_left(pieces: Sequence[CdfPiece], sigma: float, eps: float) -> float:
    """int_{-inf}^{-eps} |x| |F(x) - Phi(x/sigma)| dx in closed form.

    F is ``alpha x + beta`` on each piece ``(a, b, alpha, beta)``, 0 below
    the first and 1 above the last.  On x <= 0 Phi is convex, so on a
    piece g = F - Phi is concave: monotone on either side of the one point
    where g' = alpha - phi(x/sigma)/sigma vanishes, with at most one root
    on each side, which ``_brentq`` brackets.  Between roots x g(x) keeps
    one sign, so a part [u, v] contributes |P(v) - P(u)| with the
    primitive P(x) = alpha x^3/3 + beta x^2/2 - G(x).  Below the first
    piece F = 0, and the integral up to c there is -G(c).
    """
    lo, hi = pieces[0][0], pieces[-1][1]
    total = -_x_cdf_primitive(min(lo, -eps), sigma)
    for a, b, alpha, beta in (*pieces, (hi, math.inf, 0.0, 1.0)):
        b = min(b, -eps)
        if a >= b:
            continue

        def gap(x: float) -> float:
            return alpha * x + beta - float(ndtr(x / sigma))

        def primitive(x: float) -> float:
            return alpha * x ** 3 / 3.0 + beta * x * x / 2.0 - _x_cdf_primitive(x, sigma)

        cuts = [a, b]
        peak = alpha * sigma * _SQRT_2PI
        if 0.0 < peak < 1.0:
            # phi(x/sigma)/sigma = alpha at x = -sigma sqrt(-2 log peak)
            top = -sigma * math.sqrt(-2.0 * math.log(peak))
            if a < top < b:
                cuts.insert(1, top)
        parts = [a]
        for u, v in zip(cuts[:-1], cuts[1:]):
            if gap(u) * gap(v) < 0.0:
                parts.append(_brentq(gap, u, v))
            parts.append(v)
        total += sum(abs(primitive(v) - primitive(u)) for u, v in zip(parts[:-1], parts[1:]))
    return total


def _rotar_entry(dist: ScalarDistribution, eps: float) -> float:
    """int_{|x| >= eps} |x| |F(x) - Phi_{0, sigma}(x)| dx for one entry.

    The comparison normal is N(0, Var X), whatever the entry's mean.  For
    a centered normal entry the integrand is identically zero.

    Closed form, for laws with ``cdf_pieces`` (uniform and atomic laws):
    the left half-line is ``_rotar_left`` of the law's pieces, and the
    right one ``_rotar_left`` of the law of -X, whose pieces are
    ``(-b, -a, alpha, 1 - beta)``, so every primitive is read where Phi is
    small.  Each part's value rounds by a few ulps of max |P| at its ends,
    about 1e-15 for entries of unit-scale support.  A root that
    ``_brentq`` places off by d (at most 2e-12 + 4u|x|) changes the sum by
    at most |x g'(x)| d^2, some 1e-23.  Both sit far below the per-entry
    _ROTAR_ALLOWANCE of ``rotar_error_bound``.

    Quadrature, for every other law: the infinite tails are cut at T where
    the truncated second moments of both laws certify a remainder below
    _ROTAR_TAIL_TARGET, and ``_quad`` integrates to QUAD_ABS_TOL between
    the sign changes of F - Phi that a 65-point probe and ``_brentq`` find.
    This path, taken by the exponential family, by non-centered normals
    and by sums with a normal part, is the only one that imports
    scipy.integrate.
    """
    if isinstance(dist, Normal) and dist.mean == 0.0:
        return 0.0
    sigma = dist.std
    if sigma == 0.0:
        at = dist.atoms()
        if at is not None and np.allclose(at[0], 0.0):
            return 0.0
        raise InvalidRowError("Rotar functional needs entries with positive variance")
    pieces = dist.cdf_pieces()
    if pieces is not None:
        mirrored = [(-b, -a, alpha, 1.0 - beta) for a, b, alpha, beta in reversed(pieces)]
        return _rotar_left(pieces, sigma, eps) + _rotar_left(mirrored, sigma, eps)

    comparison = Normal(0.0, dist.variance)

    lo_sup, hi_sup = dist.support()
    t_cut = max(abs(lo_sup) if math.isfinite(lo_sup) else 0.0,
                abs(hi_sup) if math.isfinite(hi_sup) else 0.0,
                9.0 * sigma, 2.0 * eps)
    while (
        dist.truncated_second_moment(t_cut) + comparison.truncated_second_moment(t_cut)
        > _ROTAR_TAIL_TARGET
        and t_cut < 1e9
    ):
        t_cut *= 2.0

    def diff(x: float) -> float:
        return float(dist.cdf(x)) - float(comparison.cdf(x))

    def integrand(x: float) -> float:
        return abs(x) * abs(diff(x))

    total = 0.0
    for a, b in ((eps, t_cut), (-t_cut, -eps)):
        if b <= a:
            continue
        # split at the sign changes of F - Phi that an interior probe shows
        grid = np.linspace(a, b, 65)[1:-1]
        signs = np.array([diff(float(x)) for x in grid])
        refined = [a]
        prev = a
        for g, s_prev, s_next in zip(grid[1:], signs[:-1], signs[1:]):
            if s_prev == 0.0 or s_prev * s_next < 0.0:
                lo_b = prev if prev > a else float(grid[0])
                try:
                    root = _brentq(diff, lo_b, float(g))
                    if refined[-1] < root < b:
                        refined.append(float(root))
                        prev = root
                except ValueError:
                    pass
        refined.append(b)
        # F has kinks at the support's ends, which adaptive quadrature can
        # misjudge by far more than the tolerance when they fall inside a piece
        piece_val, _ = _quad(integrand, a, b, points=[*refined, lo_sup, hi_sup])
        total += piece_val
    return total


def rotar_error_bound(row_length: int) -> float:
    """A priori error guarantee for a Rotar sum over ``row_length`` entries.

    Each entry contributes the quadrature tolerance plus the certified
    tail remainder; the guarantee cannot be tighter than what the
    integrator was asked to deliver.
    """
    return row_length * _ROTAR_ALLOWANCE


# ---------------------------------------------------------------------------
# classical functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """One condition functional, declared once.

    ``entry(law, parameter)`` is one entry's contribution, and ``reduce``
    (``"sum"`` or ``"max"``) folds a row's in position order.
    ``parameter`` is ``"epsilon"``, ``"delta"``, ``"t"`` or None; ``tag``
    names the randomized form (the index mixture of the same prefix
    functional), if any.  ``bound`` is the a priori evaluation error of
    one entry, where the entry may fall back to quadrature: a row of K
    positions carries K times it, and so does the randomized form over
    its K positions.
    """

    entry: Callable[[ScalarDistribution, Optional[float]], float]
    reduce: str
    parameter: Optional[str]
    tag: Optional[str]
    bound: Optional[float] = None


FUNCTIONALS: Dict[str, Functional] = {
    # moments fall back to quadrature when no closed form applies
    "lindeberg": Functional(
        lambda d, eps: d.truncated_second_moment(eps), "sum", "epsilon", "RL", QUAD_ABS_TOL,
    ),
    "lyapunov": Functional(
        lambda d, delta: d.abs_moment(2.0 + delta), "sum", "delta", "RLambda", QUAD_ABS_TOL,
    ),
    "feller": Functional(lambda d, _: d.variance, "max", None, "RF"),
    # P(|X| >= eps), exact at a jump on the threshold
    "infinitesimality": Functional(
        lambda d, eps: 1.0 - float(d.cdf(eps)) + float(d.prob_le(-eps)),
        "max", "epsilon", "RI",
    ),
    # E[X^2 / (1 + X^2)], a bounded infinitesimality gauge
    "infinitesimality_ratio": Functional(
        lambda d, _: d.ratio_moment(), "max", None, None, QUAD_ABS_TOL,
    ),
    "cf_deviation": Functional(lambda d, t: abs(d.char_fn(t) - 1.0), "max", "t", None),
    # looked up when called, so a wrapper set on this module sees the call
    "rotar": Functional(
        lambda d, eps: _rotar_entry(d, eps), "sum", "epsilon", "RR", _ROTAR_ALLOWANCE,
    ),
    "sigma_star": Functional(lambda d, _: d.std, "max", None, "R-sigma-star"),
}

_BY_TAG = {spec.tag: name for name, spec in FUNCTIONALS.items() if spec.tag}
RANDOMIZED_TAGS = tuple(_BY_TAG)
# the functional names evaluate_report emits, its keys cut at "@"; the
# rand_ ones need an index
REPORT_FUNCTIONALS = (*FUNCTIONALS, *(f"rand_{name}" for name in _BY_TAG.values()))

# parameter kind -> its validation
_PARAMETER_OK = {"epsilon": _eps_ok, "delta": _delta_ok, "t": float, None: lambda _: None}


def _row_value(
    name: str,
    array: TriangularArray,
    n: int,
    param: Optional[float] = None,
) -> float:
    """Functional ``name`` of validated row n: each run's law evaluated
    once, then summed left to right or maximized in position order."""
    spec = FUNCTIONALS[name]
    param = _PARAMETER_OK[spec.parameter](param)
    k = _guard_row(array, n)
    runs = [(float(spec.entry(law, param)), size) for law, size in array.prefix_runs(n, k)]
    return run_sum(runs) if spec.reduce == "sum" else max(value for value, _ in runs)


def lindeberg(array: TriangularArray, n: int, epsilon: float) -> float:
    """Lindeberg sum over row n at threshold ``epsilon``."""
    return _row_value("lindeberg", array, n, epsilon)


def lyapunov(array: TriangularArray, n: int, delta: float) -> float:
    """Lyapunov sum of absolute moments of order 2 + delta over row n."""
    return _row_value("lyapunov", array, n, delta)


def feller(array: TriangularArray, n: int) -> float:
    """Largest entry variance in row n."""
    return _row_value("feller", array, n)


def infinitesimality(array: TriangularArray, n: int, epsilon: float) -> float:
    """max_j P(|X_{nj}| >= epsilon) over row n."""
    return _row_value("infinitesimality", array, n, epsilon)


def infinitesimality_ratio(array: TriangularArray, n: int) -> float:
    """max_j E[X^2 / (1 + X^2)] over row n."""
    return _row_value("infinitesimality_ratio", array, n)


def cf_deviation(array: TriangularArray, n: int, t: float) -> float:
    """max_j |phi_{nj}(t) - 1| over row n."""
    return _row_value("cf_deviation", array, n, t)


def rotar(array: TriangularArray, n: int, epsilon: float) -> float:
    """Rotar sum over row n: normal-deviation weighted tail integrals."""
    return _row_value("rotar", array, n, epsilon)


def sigma_star(array: TriangularArray, n: int) -> float:
    """Largest entry standard deviation in row n."""
    return _row_value("sigma_star", array, n)


# ---------------------------------------------------------------------------
# randomized functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomizedValue:
    """Truncated mixture value of a randomized functional.

    ``remainder_bound`` majorizes the neglected tail
    ``sum_{k > truncation_k} P(nu = k) inner(k)`` where one exists;
    it is ``inf`` when the prefix values grow too fast for the index tail.
    ``rounding_bound`` majorizes the rounding of the truncated mixture,
    and ``error_bound`` is the two together.
    """

    tag: str
    value: float
    remainder_bound: float
    rounding_bound: float
    truncation_k: int
    eta: float

    @property
    def error_bound(self) -> float:
        return self.remainder_bound + self.rounding_bound


def _tail_extension(
    values: Iterator[float],
    start: int,
    index: RandomIndex,
    inner_last: float,
    is_max: bool,
) -> float:
    """Bound the neglected mixture tail past the truncation point.

    Writing the inner functional at k > start as inner(start) plus
    increments, the tail is at most
    ``P(nu > start) * inner(start) + sum_{j > start} incr_j P(nu >= j)``
    where incr_j is the j-th entry value for sum-type functionals and the
    increase of the running maximum for max-type ones (zero whenever no
    new maximum appears, so bounded arrays get remainder ~ eta * bound).
    This function returns the increment series; it walks until terms are
    provably negligible and returns inf when they keep growing (no finite
    majorant available, e.g. entry variances growing faster than the
    index tail decays).  ``values`` continues the prefix's per-position
    values at ``start + 1``, so the walk evaluates no law the prefix
    already evaluated and builds none past the position where it stops.
    """
    bound = 0.0
    prev_raw = math.inf
    running_max = inner_last
    tiny = max(inner_last, 1e-30) * 1e-16
    growing_streak = 0
    j = start + 1
    limit = start + max(4 * start, 512)
    while j <= limit:
        val = next(values)
        if is_max:
            incr = max(0.0, val - running_max)
            running_max = max(running_max, val)
        else:
            incr = val
        tail = index.tail_mass(j - 1)  # P(nu >= j)
        bound += incr * tail
        if tail == 0.0:
            return bound
        raw = val * tail
        # stop only once even a fresh maximum at j would be negligible,
        # which covers max-type increments that sit at zero for a while
        if raw <= tiny:
            return bound
        growing_streak = growing_streak + 1 if raw > prev_raw else 0
        if growing_streak >= 64:
            return math.inf
        prev_raw = raw
        j += 1
    return math.inf


def randomized_detailed(
    tag: str,
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    *,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    eta: float = DEFAULT_ETA,
) -> RandomizedValue:
    """Truncated-mixture evaluation of a randomized condition functional.

    ``tag`` is the tag of a ``FUNCTIONALS`` entry (``RANDOMIZED_TAGS``),
    which fixes the per-law value, the reduction and whether ``epsilon``
    or ``delta`` is read.  The mixture runs over ``k = 1..K`` with ``K``
    the smallest index satisfying ``P(nu > K) <= eta``.
    """
    if not 0.0 < eta <= MAX_ETA:
        raise ValueError(f"eta must lie in (0, {MAX_ETA}]")
    _guard_row(array, n)
    if tag not in _BY_TAG:
        raise ValueError(f"unknown randomized tag {tag!r}; expected one of {RANDOMIZED_TAGS}")
    spec = FUNCTIONALS[_BY_TAG[tag]]
    param = _PARAMETER_OK[spec.parameter]({"epsilon": epsilon, "delta": delta}.get(spec.parameter))
    is_max = spec.reduce == "max"
    # one lazy stream of per-position values, each run's law evaluated
    # once, shared by the prefix and the tail walk
    values = expand((float(spec.entry(law, param)), size) for law, size in array.runs(n))
    trunc_k = index.truncation(eta)
    entry_vals = np.fromiter(islice(values, trunc_k), float, trunc_k)
    # divergent mixtures saturate to inf, which is the honest limit here
    with np.errstate(over="ignore"):
        inner = np.maximum.accumulate(entry_vals) if is_max else np.cumsum(entry_vals)
    ks = np.arange(1, trunc_k + 1)
    pmf = np.asarray(index.pmf(ks), dtype=float)
    value = float(np.dot(pmf, inner))

    inner_last = float(inner[-1])
    eta_actual = index.tail_mass(trunc_k)
    if tag == "RI":
        remainder = eta_actual  # inner values are probabilities, at most 1
    elif eta_actual == 0.0:
        remainder = 0.0
    else:
        extension = _tail_extension(values, trunc_k, index, inner_last, is_max)
        remainder = eta_actual * inner_last + extension
    # the K-term cumulative sums and the K-term dot product round by at
    # most gamma_2K * sum_k p_k |inner_k| (Higham 2002, ch. 3-4)
    return RandomizedValue(
        tag=tag,
        value=value,
        remainder_bound=float(remainder),
        rounding_bound=rounding_gamma(2 * trunc_k) * float(np.dot(pmf, np.abs(inner))),
        truncation_k=trunc_k,
        eta=eta,
    )


def randomized(
    tag: str,
    array: TriangularArray,
    index: RandomIndex,
    n: int,
    *,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    eta: float = DEFAULT_ETA,
) -> float:
    """Value of a randomized functional; see ``randomized_detailed``."""
    return randomized_detailed(tag, array, index, n, epsilon=epsilon, delta=delta, eta=eta).value


# ---------------------------------------------------------------------------
# implication inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    """One numeric inequality with its measured slack (rhs - lhs)."""

    name: str
    array_label: str
    index_descriptor: Optional[tuple]
    n: int
    epsilon: Optional[float]
    delta: Optional[float]
    lhs: float
    rhs: float
    tolerance: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        # direct comparison so divergent mixtures (inf <= inf) still pass;
        # slack would be nan there
        return self.lhs <= self.rhs + self.tolerance


def _param_kwargs(name: str, param: Optional[float]) -> Dict[str, float]:
    """``randomized_detailed`` keyword for functional ``name``'s parameter."""
    kind = FUNCTIONALS[name].parameter
    return {kind: param} if kind else {}


def _chain(
    value: Callable[[str, Optional[float]], float],
    label: str,
    idx_desc: Optional[tuple],
    n: int,
    epsilon_grid: Sequence[float],
    delta_grid: Sequence[float],
    prefix: str,
) -> List[InequalityCheck]:
    """The implication chain Lyapunov => Lindeberg => Feller =>
    infinitesimality over the grids.

    ``value(name, param)`` is one functional's value, read once per pair.
    """
    value = lru_cache(maxsize=None)(value)
    checks: List[InequalityCheck] = []
    fel = value("feller", None)
    for epsilon in epsilon_grid:
        lind = value("lindeberg", epsilon)
        infi = value("infinitesimality", epsilon)
        for delta in delta_grid:
            lyap = value("lyapunov", delta)
            mk = lambda name, lhs, rhs, dlt=delta: InequalityCheck(
                prefix + name, label, idx_desc, n, epsilon, dlt, lhs, rhs, IMPLICATION_SLACK
            )
            checks += [
                mk("lindeberg<=eps^-delta*lyapunov", lind, epsilon ** (-delta) * lyap),
                mk("feller<=eps^2+lindeberg", fel, epsilon * epsilon + lind, dlt=None),
                mk("infinitesimality<=feller/eps^2", infi, fel / (epsilon * epsilon), dlt=None),
            ]
    return checks


def implication_suite(
    array: TriangularArray,
    index_factory: Optional[Union[RandomIndex, Callable[[int], RandomIndex]]],
    n_grid: Sequence[int],
    epsilon_grid: Sequence[float],
    delta_grid: Sequence[float],
    *,
    eta: float = DEFAULT_ETA,
) -> List[InequalityCheck]:
    """Numerically verify the implication chain on classical and randomized
    functionals over the requested grids.

    Checked per (n, epsilon, delta): the Lyapunov domination of Lindeberg,
    the Feller bound by the Lindeberg sum, and the Chebyshev bound of
    infinitesimality; the same three with the random index when one is
    supplied.  Returns one record per inequality instance: for each n the
    classical ones, then the randomized ones.
    """
    checks: List[InequalityCheck] = []
    for n in n_grid:
        checks += _chain(
            lambda name, param: _row_value(name, array, n, param),
            array.label, None, n, epsilon_grid, delta_grid, "",
        )
        if index_factory is None:
            continue
        idx = index_factory(n) if callable(index_factory) else index_factory
        checks += _chain(
            lambda name, param: randomized(
                FUNCTIONALS[name].tag, array, idx, n, eta=eta, **_param_kwargs(name, param)
            ),
            array.label, idx.descriptor(), n, epsilon_grid, delta_grid, "rand_",
        )
    return checks


def _normal_series_row_values(
    series, upto: int, epsilon_grid: Sequence[float], delta_grid: Sequence[float]
) -> Dict[object, np.ndarray]:
    """Classical functionals of rows 1..upto for an all-normal series.

    Entry (k, j) is N(0, r_jk) with log r_jk = logvar_j - log B_k^2;
    everything reduces to closed forms on those log ratios, vectorized so
    heavy-tailed index truncations (thousands of rows) stay cheap.
    """
    lv = series.log_variance_profile(upto)
    lb = series.log_b_squared_profile(upto)
    run_max = np.maximum.accumulate(lv)
    out: Dict[object, np.ndarray] = {}
    out["feller"] = np.exp(run_max - lb)
    sigma_max = np.exp(0.5 * (run_max - lb))
    for delta in delta_grid:
        p = 2.0 + delta
        # E|Z|^p = sigma^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi), summed in log space
        log_m = 0.5 * p * math.log(2.0) + gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
        log_sum = np.logaddexp.accumulate(0.5 * p * lv)
        out[("lyapunov", delta)] = np.exp(log_m + log_sum - 0.5 * p * lb)
    for epsilon in epsilon_grid:
        out[("infinitesimality", epsilon)] = 2.0 * ndtr(-epsilon / sigma_max)
        lind = np.empty(upto)
        for k in range(1, upto + 1):
            r = np.exp(lv[:k] - lb[k - 1])
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                c = epsilon / np.sqrt(r)
                vals = r * (2.0 * c * _norm_pdf(c) + 2.0 * ndtr(-c))
            # variance ratios below float range contribute nothing
            lind[k - 1] = float(np.sum(np.where(r > 0.0, vals, 0.0)))
        out[("lindeberg", epsilon)] = lind
    return out


def series_implication_suite(
    array: TriangularArray,
    index: RandomIndex,
    epsilon_grid: Sequence[float],
    delta_grid: Sequence[float],
    *,
    eta: float = DEFAULT_ETA,
) -> List[InequalityCheck]:
    """Implication chain for index-adapted (row-mixing) functionals.

    For series-built arrays the natural randomized functional mixes whole
    rows: ``sum_k P(nu = k) * classical_functional(row k)``.  Since each
    classical inequality holds row by row, the mixtures inherit it; this
    suite verifies that numerically.
    """
    trunc_k = index.truncation(eta)
    ks = np.arange(1, trunc_k + 1)
    pmf = np.asarray(index.pmf(ks), dtype=float)

    # the closed form reads row k as positions 1..k of the series
    series = getattr(array, "series", None)
    if (
        series is not None
        and all(array.row_length(int(k)) == k for k in ks)
        and series.standardized_variances(trunc_k) is not None
    ):
        rows = _normal_series_row_values(series, trunc_k, epsilon_grid, delta_grid)
        per_k = lambda name, param: rows[name if param is None else (name, param)]
    else:
        per_k = lambda name, param: [_row_value(name, array, int(k), param) for k in ks]
    return _chain(
        lambda name, param: float(np.dot(pmf, per_k(name, param))),
        array.label, index.descriptor(), trunc_k, epsilon_grid, delta_grid, "series_",
    )


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


CSV_HEADER = ("label", "n", "epsilon", "delta", "functional", "value", "error_bound")


@dataclass
class ConditionReport:
    """All condition functionals of one row, with evaluation error bounds."""

    array_label: str
    n: int
    row_length: int
    epsilon: float
    delta: float
    t_grid: Tuple[float, ...]
    eta: float
    index_descriptor: Optional[tuple]
    values: Dict[str, float] = field(default_factory=dict)
    error_bounds: Dict[str, float] = field(default_factory=dict)

    def csv_rows(self) -> List[tuple]:
        rows = []
        for name in sorted(self.values):
            rows.append(
                (
                    self.array_label,
                    self.n,
                    self.epsilon,
                    self.delta,
                    name,
                    self.values[name],
                    self.error_bounds.get(name, 0.0),
                )
            )
        return rows

    def to_json_dict(self) -> dict:
        return {
            "label": self.array_label,
            "n": self.n,
            "row_length": self.row_length,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "t_grid": list(self.t_grid),
            "eta": self.eta,
            "index": list(self.index_descriptor) if self.index_descriptor else None,
            "values": dict(sorted(self.values.items())),
            "error_bounds": dict(sorted(self.error_bounds.items())),
        }


def evaluate_report(
    array: TriangularArray,
    n: int,
    epsilon: float,
    delta: float,
    *,
    index: Optional[RandomIndex] = None,
    eta: float = DEFAULT_ETA,
    functionals: Sequence[str] = (),
) -> ConditionReport:
    """Evaluate the condition functionals on row n of the array.

    ``functionals`` names the ones to compute (``REPORT_FUNCTIONALS``);
    empty means all of them.  The randomized ones need an ``index`` and
    are left out without one; ``cf_deviation`` is read at each t of
    ``CF_T_GRID``.  Error bounds cover quadrature tolerances
    (a priori, per entry) and mixture truncation remainders.
    """
    eps = _eps_ok(epsilon)
    dlt = _delta_ok(delta)
    unknown = set(functionals) - set(REPORT_FUNCTIONALS)
    if unknown:
        raise ValueError(f"unknown functionals: {sorted(unknown)}")
    wanted = set(functionals or REPORT_FUNCTIONALS)
    k = _guard_row(array, n)
    report = ConditionReport(
        array_label=array.label,
        n=n,
        row_length=k,
        epsilon=eps,
        delta=dlt,
        t_grid=CF_T_GRID,
        eta=eta,
        index_descriptor=index.descriptor() if index is not None else None,
    )
    vals = report.values
    errs = report.error_bounds
    params = {"epsilon": (eps,), "delta": (dlt,), "t": report.t_grid, None: (None,)}
    for name, spec in FUNCTIONALS.items():
        if name not in wanted:
            continue
        # the public function, looked up when called, so a wrapper set on
        # this module sees the call
        fn = globals()[name]
        for param in params[spec.parameter]:
            key = f"{name}@t={param:g}" if spec.parameter == "t" else name
            vals[key] = fn(array, n, *([] if param is None else [param]))
            if spec.bound is not None:
                errs[key] = k * spec.bound

    if index is None:
        return report
    for name, spec in FUNCTIONALS.items():
        if spec.tag is None or f"rand_{name}" not in wanted:
            continue
        detail = randomized_detailed(
            spec.tag, array, index, n, eta=eta, **_param_kwargs(name, params[spec.parameter][0]),
        )
        err = detail.error_bound
        if spec.bound is not None:
            # the mixture reads the same per-law values over K positions
            err += detail.truncation_k * spec.bound
        vals[f"rand_{name}"] = detail.value
        errs[f"rand_{name}"] = err
    return report
