"""Scalar distributions and positive integer-valued random indices.

Conventions used throughout the package:

* ``cdf(x)`` is the left-continuous distribution function ``P(X < x)``;
  ``prob_le(x)`` is the right-continuous variant ``P(X <= x)``.  The two
  coincide for atomless laws and differ exactly at atoms.
* Truncation events use the non-strict threshold ``|X| >= t``.  For
  atomless laws this is immaterial; for atomic laws the convention is
  applied consistently so that Chebyshev-style inequalities remain exact.
* Characteristic functions return ``complex`` values (``complex128``
  arrays for vector input).
* Random indices live on ``{1, 2, ...}``.

All classes are immutable after construction and safe to share across
threads; sampling takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import erfcx, gammaln, hyp1f1, ndtr, pdtrc

__all__ = [
    "DistributionError",
    "QuadratureError",
    "ScalarDistribution",
    "Normal",
    "Uniform",
    "Rademacher",
    "TwoPoint",
    "CenteredExponential",
    "FiniteDiscrete",
    "scale",
    "scaled_normal_variance",
    "shift",
    "merge_atoms",
    "ConfigEntry",
    "DISTRIBUTION_FAMILIES",
    "distribution_from_config",
    "RandomIndex",
    "Deterministic",
    "ShiftedPoisson",
    "Geometric",
    "ShiftedNegativeBinomial",
    "FiniteIndex",
    "INDEX_FAMILIES",
    "index_from_config",
]

ArrayLike = Union[float, np.ndarray]

# Absolute tolerance for adaptive quadrature on moment integrals.
QUAD_ABS_TOL = 1e-10

_LOG_MAX = math.log(1.7976931348623157e308)
# Quadrature error estimates above tolerance times this factor raise.
_QUAD_SLACK = 50.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_UNIT_ROUNDOFF = 2.0 ** -53
# Largest variance of a centered normal, and largest |x| on the support of
# a uniform law, whose E[X^2/(1+X^2)] is summed as a moment series: there
# the terms fall below half an ulp of the sum within 30 terms, while the
# closed forms lose digits to the cancellation in 1 - E[1/(1+X^2)].
_RATIO_SERIES_NORMAL_VAR = 2.0 ** -7
_RATIO_SERIES_UNIFORM_REACH = 0.5

# (a, b, alpha, beta): the CDF equals alpha x + beta on [a, b]
CdfPiece = Tuple[float, float, float, float]

# highest power partial_moments returns
MAX_MOMENT_DEGREE = 3


class DistributionError(ValueError):
    """Invalid distribution parameters or unsupported operation."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to meet its requested tolerance."""


def _norm_pdf(z: ArrayLike) -> ArrayLike:
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def _exp_or_inf(log_value: float) -> float:
    """exp(log_value), inf past float range."""
    return math.exp(log_value) if log_value <= _LOG_MAX else math.inf


def _normal_partial_moments(
    mean: ArrayLike, sigma: float, a: float, b: float, center: float, degree: int
) -> List[ArrayLike]:
    """I_m = E[(X - center)^m 1{a < X <= b}] for X ~ N(mean, sigma^2), m = 0..degree.

    Integration by parts gives, with u = x - center and d = mean - center,
    I_m = d I_(m-1) + (m-1) sigma^2 I_(m-2) + sigma [u^(m-1) phi((x - mean)/sigma)]_b^a.
    ``mean`` may be an array of means sharing ``sigma``; the moments then
    come back as arrays.  Needs a < b.
    """
    alpha = (a - mean) / sigma
    beta = (b - mean) / sigma
    # an upper-tail mass as a difference of upper tails keeps its digits
    mass = np.where(alpha > 0.0, ndtr(-alpha) - ndtr(-beta), ndtr(beta) - ndtr(alpha))
    # (u, sigma phi) at each end; an infinite end contributes nothing
    (ua, pa), (ub, pb) = (
        (0.0, 0.0) if math.isinf(x) else (x - center, sigma * _norm_pdf(z))
        for x, z in ((a, alpha), (b, beta))
    )
    d = mean - center
    out = [mass]
    for m in range(1, degree + 1):
        nxt = d * out[-1] + ua ** (m - 1) * pa - ub ** (m - 1) * pb
        if m >= 2:
            nxt = nxt + (m - 1) * sigma * sigma * out[-2]
        out.append(nxt)
    return out


def _atom_moments(u: np.ndarray, probs: np.ndarray, degree: int) -> List[float]:
    """sum_i probs_i u_i^m for m = 0..degree."""
    out = []
    weighted = probs
    for _ in range(degree + 1):
        out.append(float(np.sum(weighted)))
        weighted = weighted * u
    return out


def _quad(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    epsabs: float = QUAD_ABS_TOL,
    points: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Integrate ``fn`` on ``[lo, hi]``, raising if the tolerance is missed.

    Returns ``(value, error_estimate)``.  ``points`` marks known kinks or
    atoms; the interval is split there so the adaptive rule never
    straddles a discontinuity.
    """
    if hi <= lo:
        return 0.0, 0.0
    cuts = [lo, hi]
    if points is not None:
        cuts.extend(p for p in points if lo < p < hi)
    cuts = sorted(set(cuts))
    total = 0.0
    err = 0.0
    per_piece = epsabs / max(len(cuts) - 1, 1)
    # imported here, not at start-up, where it would cost most commands more
    # than their work: every moment and Rotar integral of the bundled laws
    # has a closed form, so only laws with none get here.  quad is looked
    # up per call, so a wrapper set on the module sees every call
    from scipy import integrate

    for a, b in zip(cuts[:-1], cuts[1:]):
        val, est = integrate.quad(fn, a, b, epsabs=per_piece, epsrel=1e-12, limit=200)
        total += val
        err += est
    if err > epsabs * _QUAD_SLACK:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {epsabs:.3e}"
        )
    return total, err


class ScalarDistribution:
    """Base class for real-valued laws with finite variance.

    Subclasses set ``mean`` and ``variance`` in ``__init__`` and implement
    the abstract accessors.  Truncated second moments and integer-order
    absolute moments read ``partial_moments``: an atom sum for atomic
    laws, a closed form each continuous family supplies.  Absolute
    moments of other orders read ``_abs_moment_closed_form`` where a
    family has one; they and ``expectation`` fall back to atom sums or
    adaptive quadrature over ``_quad_cut``.  ``scale()`` and ``shift()``
    map every leaf family onto itself, so a normalized entry
    (X - a) / B is again a law of X's family.
    """

    family: str = "abstract"

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    # -- abstract accessors -------------------------------------------------

    def cdf(self, x: ArrayLike) -> ArrayLike:
        """P(X < x), left-continuous."""
        raise NotImplementedError

    def prob_le(self, x: ArrayLike) -> ArrayLike:
        """P(X <= x), right-continuous.  Equals ``cdf`` for atomless laws."""
        return self.cdf(x)

    def char_fn(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        """E exp(itX)."""
        raise NotImplementedError

    def pdf(self, x: ArrayLike) -> ArrayLike:
        raise DistributionError(f"{self.family} has no density")

    def atoms(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(values, probabilities) for purely atomic laws, else None."""
        return None

    def normal_params(self) -> Optional[Tuple[float, float]]:
        """(mean, variance) for laws that are exactly normal, else None."""
        return None

    def support(self) -> Tuple[float, float]:
        return (-math.inf, math.inf)

    def cdf_pieces(self) -> Optional[List[CdfPiece]]:
        """Pieces ``(a, b, alpha, beta)``, in increasing order and tiling
        the support, on whose interiors the CDF is ``alpha x + beta``;
        None unless the CDF is piecewise linear.

        A law with atoms has one flat piece per gap between neighbouring
        atoms, ``beta`` the mass below the gap.
        """
        at = self.atoms()
        if at is None:
            return None
        vals, probs = at
        below = np.cumsum(probs)
        return [
            (float(a), float(b), 0.0, float(c))
            for a, b, c in zip(vals[:-1], vals[1:], below[:-1])
        ]

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        raise NotImplementedError

    # -- derived quantities -------------------------------------------------

    def descriptor(self) -> tuple:
        """Structural identity: family tag plus defining parameters."""
        raise NotImplementedError

    def _quad_cut(self) -> Tuple[float, float]:
        """Finite integration window outside which moment tails are negligible."""
        lo, hi = self.support()
        spread = 12.0 * max(self.std, 1e-300)
        if not math.isfinite(lo):
            lo = self.mean - spread
        if not math.isfinite(hi):
            hi = self.mean + spread
        return lo, hi

    def truncated_second_moment(self, threshold: float) -> float:
        """E[X^2 1{|X| >= threshold}]."""
        if threshold < 0:
            raise DistributionError("threshold must be nonnegative")
        if threshold == 0.0:
            return self.variance + self.mean * self.mean
        at = self.atoms()
        if at is not None:
            vals, probs = at
            keep = np.abs(vals) >= threshold
            return float(np.sum(np.square(vals[keep]) * probs[keep]))
        left = self.partial_moments(-math.inf, -threshold, 0.0, 2)
        right = self.partial_moments(threshold, math.inf, 0.0, 2)
        return left[2] + right[2]

    def abs_moment(self, order: float) -> float:
        """E|X|^order for order >= 1."""
        if order < 1:
            raise DistributionError("moment order must be >= 1")
        at = self.atoms()
        if at is not None:
            vals, probs = at
            return float(np.sum(np.power(np.abs(vals), order) * probs))
        if float(order).is_integer() and order <= MAX_MOMENT_DEGREE:
            p = int(order)
            left = self.partial_moments(-math.inf, 0.0, 0.0, p)
            right = self.partial_moments(0.0, math.inf, 0.0, p)
            return right[p] + (-1) ** p * left[p]
        closed = self._abs_moment_closed_form(order)
        if closed is not None:
            return closed
        lo, hi = self._quad_cut()
        v, _ = _quad(lambda x: abs(x) ** order * self.pdf(x), lo, hi, points=[0.0])
        return v

    def _abs_moment_closed_form(self, order: float) -> Optional[float]:
        """E|X|^order in closed form, inf past float range, or None where
        the family has none."""
        return None

    def expectation(
        self, fn: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float] = ()
    ) -> float:
        """E fn(X) for bounded piecewise-smooth ``fn``.

        ``breakpoints`` lists the kinks of ``fn`` so quadrature pieces stay
        smooth.  Atomic laws reduce to a finite sum.
        """
        at = self.atoms()
        if at is not None:
            vals, probs = at
            return float(np.sum(np.asarray(fn(vals), dtype=float) * probs))
        lo, hi = self._quad_cut()
        v, _ = _quad(lambda x: float(fn(x)) * self.pdf(x), lo, hi, epsabs=1e-12, points=list(breakpoints))
        return v

    def partial_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        """[E[(X - center)^m 1{a < X <= b}] for m = 0..degree], degree <= 3.

        ``a`` may be -inf and ``b`` +inf.  Atomic laws sum over their
        atoms; continuous families override ``_partial_moments`` with a
        closed form, and a law with neither raises DistributionError.
        """
        if degree not in range(MAX_MOMENT_DEGREE + 1):
            raise DistributionError(f"moment degree must lie in 0..{MAX_MOMENT_DEGREE}")
        if not b > a:
            return [0.0] * (degree + 1)
        return self._partial_moments(float(a), float(b), float(center), degree)

    def _partial_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        at = self.atoms()
        if at is None:
            raise DistributionError(f"{self.family} has no closed-form partial moments")
        vals, probs = at
        keep = (vals > a) & (vals <= b)
        return _atom_moments(vals[keep] - center, probs[keep], degree)

    def ratio_moment(self) -> float:
        """E[X^2 / (1 + X^2)], a bounded gauge of the law's spread."""
        return self.expectation(lambda x: np.square(x) / (1.0 + np.square(x)))


def _ratio_series(moments: Iterable[float]) -> float:
    """E[X^2 / (1 + X^2)] from the even moments m_k = E X^(2k), k = 1, 2, ...

    x^2/(1+x^2) = sum_{k<=m} (-1)^(k+1) x^(2k) + (-1)^m x^(2m+2)/(1+x^2),
    so the m-th partial sum is off by at most m_(m+1).  The sum stops once
    that is below half an ulp of it; the callers pass laws whose moments
    get there.
    """
    total = 0.0
    sign = 1.0
    for m in moments:
        if m <= 2.0 ** -54 * total:
            break
        total += sign * m
        sign = -sign
    return total


def _positive_variance(var: float) -> float:
    # an infinite variance is the saturated law of divergent extensions
    if not var > 0:
        raise DistributionError("normal variance must be positive")
    return float(var)


def scaled_normal_variance(variance: float, factor: float) -> float:
    """Variance of factor * N(m, variance), formed as ``scale`` forms it.

    Raises DistributionError when the product underflows to zero.
    """
    return _positive_variance(factor * factor * variance)


class Normal(ScalarDistribution):
    """Gaussian law N(mean, var)."""

    family = "normal"

    def __init__(self, mean: float = 0.0, var: float = 1.0):
        if not math.isfinite(mean):
            raise DistributionError("normal mean must be finite")
        self.mean = float(mean)
        self.variance = _positive_variance(var)
        self._sigma = math.sqrt(self.variance)

    def descriptor(self) -> tuple:
        return ("normal", self.mean, self.variance)

    def __repr__(self) -> str:
        return f"Normal(mean={self.mean!r}, var={self.variance!r})"

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self._sigma)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        z = (np.asarray(x, dtype=float) - self.mean) / self._sigma
        return _norm_pdf(z) / self._sigma

    def normal_params(self) -> Tuple[float, float]:
        return self.mean, self.variance

    def char_fn(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        t = np.asarray(t, dtype=float)
        out = np.exp(1j * self.mean * t - 0.5 * self.variance * np.square(t))
        return complex(out) if out.ndim == 0 else out

    def support(self) -> Tuple[float, float]:
        return (-math.inf, math.inf)

    def truncated_second_moment(self, threshold: float) -> float:
        if threshold < 0:
            raise DistributionError("threshold must be nonnegative")
        if threshold == 0.0 or math.isinf(self._sigma):
            # an infinite variance leaves every tail's second moment infinite
            return self.variance + self.mean * self.mean
        if self.mean == 0.0:
            # sigma^2 (2 c phi(c) + 2 (1 - Phi(c))) with c = threshold / sigma
            c = threshold / self._sigma
            return self.variance * (2.0 * c * float(_norm_pdf(c)) + 2.0 * float(ndtr(-c)))
        return super().truncated_second_moment(threshold)

    def abs_moment(self, order: float) -> float:
        if order < 1:
            raise DistributionError("moment order must be >= 1")
        if math.isinf(self._sigma):
            return math.inf
        if self.mean == 0.0:
            return self._abs_moment_closed_form(order)
        return super().abs_moment(order)

    def _abs_moment_closed_form(self, order: float) -> Optional[float]:
        # E|X|^p = sigma^p 2^{p/2} Gamma((p+1)/2) / sqrt(pi) 1F1(-p/2; 1/2; -mean^2/(2 sigma^2)),
        # and 1F1 is exactly 1 at mean 0 and at least 1 elsewhere
        log_val = (
            order * math.log(self._sigma)
            + 0.5 * order * math.log(2.0)
            + gammaln((order + 1.0) / 2.0)
            - 0.5 * math.log(math.pi)
        )
        if log_val > _LOG_MAX:
            return math.inf
        ratio = self.mean / self._sigma
        kummer = float(hyp1f1(-0.5 * order, 0.5, -0.5 * ratio * ratio))
        if math.isfinite(kummer):
            value = math.exp(log_val) * kummer
            if 0.0 < value < math.inf:
                return value
            # the product left float range, or sigma^p underflowed
            return _exp_or_inf(log_val + math.log(kummer))
        # 1F1 overflowed, so t = sigma / |mean| is tiny: E|X|^p = |mean|^p
        # E(1 + tZ)^p up to the mass where 1 + tZ < 0, below e^(-1/(2 t^2)),
        # and E(1 + tZ)^p = sum_k C(p, 2k) (2k - 1)!! t^(2k), whose terms
        # shrink by (p - 2k)(p - 2k - 1) t^2 / (2k + 2) <= p^2 t^2 / 2 while
        # 2k < p.  Where that ratio is not small the series is no help.
        t2 = (self._sigma / self.mean) ** 2
        if order * order * t2 > 0.5:
            return None
        series, term, k = 1.0, 1.0, 0
        while True:
            term *= (order - 2 * k) * (order - 2 * k - 1) * t2 / (2 * k + 2)
            if abs(term) <= _UNIT_ROUNDOFF * series:
                break
            series += term
            k += 1
        try:
            return abs(self.mean) ** order * series
        except OverflowError:
            return math.inf

    def _partial_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        if math.isinf(self._sigma):
            # the recursion would divide inf by inf
            raise DistributionError("partial moments need a finite variance")
        moments = _normal_partial_moments(self.mean, self._sigma, a, b, center, degree)
        return [float(m) for m in moments]

    def ratio_moment(self) -> float:
        if self.mean != 0.0:
            return super().ratio_moment()
        v = self.variance
        if v <= _RATIO_SERIES_NORMAL_VAR:
            # E Z^(2k) = (2k - 1)!!, so m_(k+1) = (2k + 1) v m_k
            def moments():
                m = v
                for k in count(1):
                    yield m
                    m *= (2 * k + 1) * v

            return _ratio_series(moments())
        # E[1/(1 + X^2)] = sqrt(pi/2)/sigma erfcx(1/(sqrt(2) sigma))
        sigma = self._sigma
        return 1.0 - math.sqrt(0.5 * math.pi) / sigma * float(erfcx(1.0 / (math.sqrt(2.0) * sigma)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.normal(self.mean, self._sigma, size=size)


class Uniform(ScalarDistribution):
    """Uniform law on [low, high]."""

    family = "uniform"

    def __init__(self, low: float, high: float):
        if not -math.inf < low < high < math.inf:
            raise DistributionError("uniform requires finite low < high")
        self.low = float(low)
        self.high = float(high)
        self.mean = 0.5 * (self.low + self.high)
        width = self.high - self.low
        self.variance = width * width / 12.0

    def descriptor(self) -> tuple:
        return ("uniform", self.low, self.high)

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def char_fn(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        t = np.asarray(t, dtype=float)
        half_width = 0.5 * (self.high - self.low)
        # sin(w)/w via np.sinc, exact at t = 0
        out = np.exp(1j * self.mean * t) * np.sinc(t * half_width / math.pi)
        return complex(out) if out.ndim == 0 else out

    def support(self) -> Tuple[float, float]:
        return (self.low, self.high)

    def cdf_pieces(self) -> List[CdfPiece]:
        width = self.high - self.low
        return [(self.low, self.high, 1.0 / width, -self.low / width)]

    def ratio_moment(self) -> float:
        lo, hi = self.low, self.high
        width = hi - lo
        if max(-lo, hi) <= _RATIO_SERIES_UNIFORM_REACH:
            return _ratio_series(
                (hi ** (2 * k + 1) - lo ** (2 * k + 1)) / ((2 * k + 1) * width) for k in count(1)
            )
        return 1.0 - (math.atan(hi) - math.atan(lo)) / width

    def abs_moment(self, order: float) -> float:
        if order < 1:
            raise DistributionError("moment order must be >= 1")

        def ramp(a: float, b: float) -> float:
            # integral of |x|^order on [a, b] with 0 <= a <= b
            return (b ** (order + 1.0) - a ** (order + 1.0)) / (order + 1.0)

        width = self.high - self.low
        if self.low >= 0:
            val = ramp(self.low, self.high)
        elif self.high <= 0:
            val = ramp(-self.high, -self.low)
        else:
            val = ramp(0.0, -self.low) + ramp(0.0, self.high)
        return val / width

    def _partial_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        lo, hi = max(a, self.low), min(b, self.high)
        if not hi > lo:
            return [0.0] * (degree + 1)
        x, y = lo - center, hi - center
        mass = (hi - lo) / (self.high - self.low)
        # (y^(m+1) - x^(m+1)) / ((m+1)(y - x)) as a sum of products, which
        # keeps its digits when x and y are close
        return [
            mass * sum(y ** (m - i) * x ** i for i in range(m + 1)) / (m + 1)
            for m in range(degree + 1)
        ]

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.uniform(self.low, self.high, size=size)


def merge_atoms(
    values: np.ndarray, probs: np.ndarray, tol: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort atoms and merge each run whose neighbours lie at most ``tol`` apart.

    ``tol = 0`` merges equal values only.  A run keeps its first member in
    stable-sorted order, so 0.0 and -0.0 keep whichever came first, and its
    masses are added left to right in that order.  Zero masses are kept.
    """
    order = np.argsort(values, kind="stable")
    values = values[order]
    start = np.ones(values.size, dtype=bool)
    start[1:] = np.diff(values) > tol
    merged = np.zeros(int(np.count_nonzero(start)))
    np.add.at(merged, np.cumsum(start) - 1, probs[order])
    return values[start], merged


def _choice_cut(probs: np.ndarray) -> np.ndarray:
    """The cut points ``Generator.choice`` builds: ``p``'s cumulative sum over its last entry."""
    cut = probs.cumsum()
    cut /= cut[-1]
    return cut


def _inverse_cdf_draws(values: np.ndarray, cut: np.ndarray, rng: np.random.Generator, size):
    """``Generator.choice(values, size, p=probs)`` bit for bit, with ``cut = _choice_cut(probs)``.

    One uniform u per draw, as ``choice`` consumes them; the draw is the
    atom at the number of cut points <= u, which for two atoms is one
    comparison.  Same dtype, and a numpy scalar for ``size=None``.
    """
    u = rng.random(size)
    if values.size == 2 and size is not None:
        return np.where(u >= cut[0], values[1], values[0])
    return values[cut.searchsorted(u, side="right")]


def _step_cdf(steps, x: ArrayLike, side: str) -> ArrayLike:
    vals, cum = steps
    out = cum[np.searchsorted(vals, np.asarray(x, dtype=float), side=side)]
    return float(out) if out.ndim == 0 else out


class _AtomicMixin:
    """Shared machinery for purely atomic laws with sorted atom arrays."""

    _values: np.ndarray
    _probs: np.ndarray
    _steps: Tuple[np.ndarray, np.ndarray]
    _cut: np.ndarray

    def _init_atoms(self, values: Sequence[float], probs: Sequence[float]) -> None:
        vals = np.asarray(values, dtype=float)
        prb = np.asarray(probs, dtype=float)
        if vals.ndim != 1 or vals.shape != prb.shape or vals.size == 0:
            raise DistributionError("atoms need matching one-dimensional arrays")
        if not np.all(np.isfinite(vals)):
            # merge_atoms would fold a nan into the atom before it
            raise DistributionError("atom values must be finite")
        if not np.all(prb >= 0):
            raise DistributionError("atom probabilities must be nonnegative")
        total = float(prb.sum())
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"atom probabilities sum to {total}, expected 1")
        self._values, self._probs = merge_atoms(vals, prb)
        self._probs = self._probs / self._probs.sum()
        self._steps = (self._values, np.concatenate(([0.0], np.cumsum(self._probs))))
        self._cut = _choice_cut(self._probs)
        self.mean = float(np.dot(self._values, self._probs))
        centered = self._values - self.mean
        self.variance = float(np.dot(centered * centered, self._probs))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return _step_cdf(self._steps, x, "left")

    def prob_le(self, x: ArrayLike) -> ArrayLike:
        return _step_cdf(self._steps, x, "right")

    def char_fn(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        t = np.asarray(t, dtype=float)
        out = np.sum(
            self._probs * np.exp(1j * np.multiply.outer(t, self._values)), axis=-1
        )
        return complex(out) if np.ndim(out) == 0 else out

    def atoms(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._values.copy(), self._probs.copy()

    def support(self) -> Tuple[float, float]:
        return (float(self._values[0]), float(self._values[-1]))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return _inverse_cdf_draws(self._values, self._cut, rng, size)


class Rademacher(_AtomicMixin, ScalarDistribution):
    """Symmetric +-1 law."""

    family = "rademacher"

    def __init__(self):
        self._init_atoms([-1.0, 1.0], [0.5, 0.5])

    def descriptor(self) -> tuple:
        return ("rademacher",)

    def __repr__(self) -> str:
        return "Rademacher()"

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        draws = rng.integers(0, 2, size=size)
        return 2.0 * draws - 1.0


class TwoPoint(_AtomicMixin, ScalarDistribution):
    """Two-atom law: P(X = low) = p_low, P(X = high) = 1 - p_low."""

    family = "two-point"

    def __init__(self, low: float, high: float, p_low: float):
        if not low < high:
            raise DistributionError("two-point requires low < high")
        if not 0.0 < p_low < 1.0:
            raise DistributionError("p_low must lie in (0, 1)")
        self.p_low = float(p_low)
        self._init_atoms([low, high], [p_low, 1.0 - p_low])

    def descriptor(self) -> tuple:
        return ("two-point", float(self._values[0]), float(self._values[1]), self.p_low)

    def __repr__(self) -> str:
        return (
            f"TwoPoint({self._values[0]!r}, {self._values[1]!r}, p_low={self.p_low!r})"
        )


class FiniteDiscrete(_AtomicMixin, ScalarDistribution):
    """Finite atomic law given by atom values and probabilities."""

    family = "finite-discrete"

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        self._init_atoms(values, probs)

    def descriptor(self) -> tuple:
        return ("finite-discrete", tuple(self._values.tolist()), tuple(self._probs.tolist()))

    def __repr__(self) -> str:
        return f"FiniteDiscrete({self._values.tolist()!r}, {self._probs.tolist()!r})"


class CenteredExponential(ScalarDistribution):
    """The law offset + sign (E - 1) / rate with E ~ Exp(1), sign 1 or -1:
    an exponential law moved to mean ``offset``, mirrored for sign -1.

    Its support ends at the edge offset - sign/rate and runs away from
    it, to +inf for sign 1 and to -inf for sign -1; variance is 1/rate^2.
    ``scale()`` and ``shift()`` map the family onto itself.
    """

    family = "exponential-centered"

    def __init__(self, rate: float = 1.0, *, offset: float = 0.0, sign: int = 1):
        if not 0.0 < rate < math.inf:
            raise DistributionError("rate must be positive and finite")
        if not math.isfinite(offset):
            raise DistributionError("offset must be finite")
        if sign not in (1, -1):
            raise DistributionError("sign must be 1 or -1")
        self.rate = float(rate)
        self.offset = float(offset)
        self.sign = int(sign)
        self.mean = self.offset
        self.variance = 1.0 / (self.rate * self.rate)
        self._shift = 1.0 / self.rate
        self._edge = self.offset - self._shift if self.sign > 0 else self.offset + self._shift

    def descriptor(self) -> tuple:
        moved = (self.offset, self.sign) if self.offset or self.sign < 0 else ()
        return ("exponential-centered", self.rate, *moved)

    def __repr__(self) -> str:
        offset = f", offset={self.offset!r}" if self.offset else ""
        sign = ", sign=-1" if self.sign < 0 else ""
        return f"CenteredExponential(rate={self.rate!r}{offset}{sign})"

    def _standard(self, x: ArrayLike) -> ArrayLike:
        """The value of E at which X = x."""
        x = np.asarray(x, dtype=float)
        if self.offset:
            x = x - self.offset
        if self.sign < 0:
            x = -x
        return self.rate * (x + self._shift)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        y = self._standard(x)
        if self.sign > 0:
            out = np.where(y > 0, -np.expm1(-np.maximum(y, 0.0)), 0.0)
        else:
            # X < x exactly when E > y
            out = np.where(y > 0, np.exp(-np.maximum(y, 0.0)), 1.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x: ArrayLike) -> ArrayLike:
        y = self._standard(x)
        out = np.where(y >= 0, self.rate * np.exp(-np.maximum(y, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def char_fn(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        t = np.asarray(t, dtype=float)
        # a branch, not t * sign, which would turn a 0-d t into a numpy
        # scalar and move the bits
        if self.sign > 0:
            out = np.exp(-1j * t * self._shift) / (1.0 - 1j * t / self.rate)
        else:
            out = np.exp(1j * t * self._shift) / (1.0 + 1j * t / self.rate)
        if self.offset:
            out = np.exp(1j * t * self.offset) * out
        return complex(out) if out.ndim == 0 else out

    def support(self) -> Tuple[float, float]:
        return (self._edge, math.inf) if self.sign > 0 else (-math.inf, self._edge)

    def _quad_cut(self) -> Tuple[float, float]:
        # exp tail: e^{-60} ~ 9e-27 keeps moment tails far below tolerance
        reach = 60.0 / self.rate
        if self.sign > 0:
            return (self._edge, self._edge + reach)
        return (self._edge - reach, self._edge)

    def _abs_moment_closed_form(self, order: float) -> Optional[float]:
        if self.offset:
            return None
        # |X| = |E - 1| / rate with E ~ Exp(1), and E|E - 1|^p is
        # e^-1 (sum_k 1/(k! (p + k + 1)) + Gamma(p + 1)): the series is
        # the integral of t^p e^t over [0, 1], from E below 1, and
        # Gamma(p + 1) comes from E above 1
        head, k, inv_fact = 0.0, 0, 1.0
        while True:
            term = inv_fact / (order + k + 1.0)
            # the terms from k >= 1 on sum to at most term (k + 1) / k
            if k > 0 and term * (k + 1) <= _UNIT_ROUNDOFF * head:
                break
            head += term
            k += 1
            inv_fact /= k
        try:
            value = self.rate ** -order * ((head + math.gamma(order + 1.0)) / math.e)
        except OverflowError:
            value = math.inf
        if 0.0 < value < math.inf:
            return value
        # a factor left float range: log(head + Gamma(p + 1)) - p log(rate) - 1
        log_gamma = math.lgamma(order + 1.0)
        return _exp_or_inf(
            log_gamma + math.log1p(head * math.exp(-log_gamma)) - order * math.log(self.rate) - 1.0
        )

    def _partial_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        # onto Y = sign (X - offset), the law at offset 0 and sign 1; which
        # end of the interval is closed does not matter without atoms
        o = self.offset
        if self.sign > 0:
            return self._centered_moments(a - o, b - o, center - o, degree)
        moments = self._centered_moments(o - b, o - a, o - center, degree)
        return [-v if m % 2 else v for m, v in enumerate(moments)]

    def _centered_moments(self, a: float, b: float, center: float, degree: int) -> List[float]:
        """E[(Y - center)^m 1{a < Y <= b}], m = 0..degree, for Y = (E - 1) / rate."""
        lo = max(a, -self._shift)
        if not b > lo:
            return [0.0] * (degree + 1)
        rate = self.rate

        def primitive(x: float) -> List[float]:
            # minus an antiderivative of (x - center)^m rate e^(-rate (x + shift)):
            # e^(-rate (x + shift)) P_m with P_m = u^m + m P_(m-1) / rate
            if math.isinf(x):
                return [0.0] * (degree + 1)
            u = x - center
            decay = math.exp(-rate * (x + self._shift))
            poly = [1.0]
            for m in range(1, degree + 1):
                poly.append(u ** m + m * poly[-1] / rate)
            return [decay * p for p in poly]

        return [p - q for p, q in zip(primitive(lo), primitive(b))]

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        # exponential(scale) is scale * standard_exponential draw by draw; the
        # standard fill scaled in place keeps those bits and runs about 10% faster
        draws = rng.standard_exponential(size)
        draws *= self._shift if self.sign > 0 else -self._shift
        draws += self._edge
        return draws


def scale(dist: ScalarDistribution, factor: float) -> ScalarDistribution:
    """factor * X, for a nonzero factor, in the family of X: normal, uniform
    and exponential laws map their parameters, Rademacher becomes a
    ``TwoPoint`` and any other law with atoms a ``FiniteDiscrete``.  A law
    no family closes over, a ``SumLaw`` with a normal part, raises
    DistributionError."""
    if not abs(factor) > 0:
        raise DistributionError(f"scale factor must be nonzero, got {factor!r}")
    if factor == 1.0:
        return dist
    if isinstance(dist, Normal):
        # keep an exact zero mean: inf * 0.0 would poison it with nan
        new_mean = factor * dist.mean if dist.mean != 0.0 else 0.0
        return Normal(new_mean, scaled_normal_variance(dist.variance, factor))
    if isinstance(dist, Uniform):
        a, b = factor * dist.low, factor * dist.high
        return Uniform(min(a, b), max(a, b))
    if isinstance(dist, Rademacher):
        return TwoPoint(-abs(factor), abs(factor), 0.5)
    at = dist.atoms()
    if at is not None:
        return FiniteDiscrete(at[0] * factor, at[1])
    if isinstance(dist, CenteredExponential):
        return CenteredExponential(
            dist.rate / abs(factor),
            # an offset of 0 stays 0, not -0.0
            offset=dist.offset * factor if dist.offset else 0.0,
            sign=dist.sign if factor > 0 else -dist.sign,
        )
    raise DistributionError(f"scale() has no closed form for {dist!r}")


def shift(dist: ScalarDistribution, offset: float) -> ScalarDistribution:
    """X + offset in the family of X: normal, uniform and exponential laws
    move their parameters, and any law with atoms becomes a
    ``FiniteDiscrete``.  A law no family closes over, a ``SumLaw`` with a
    normal part, raises DistributionError."""
    if offset == 0.0:
        return dist
    if isinstance(dist, Normal):
        return Normal(dist.mean + offset, dist.variance)
    if isinstance(dist, Uniform):
        return Uniform(dist.low + offset, dist.high + offset)
    at = dist.atoms()
    if at is not None:
        return FiniteDiscrete(at[0] + offset, at[1])
    if isinstance(dist, CenteredExponential):
        return CenteredExponential(dist.rate, offset=dist.offset + offset, sign=dist.sign)
    raise DistributionError(f"shift() has no closed form for {dist!r}")


class ConfigEntry(NamedTuple):
    """One family of a config table: its builder and the keys it reads.

    Every config mapping names its family under one key ("family" or
    "array") and may hold the required keys and the optional ones, no
    other.  A "base" key holds a nested distribution config.
    """

    build: Callable
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()


DISTRIBUTION_FAMILIES = {
    "normal": ConfigEntry(
        lambda c: Normal(c.get("mean", 0.0), c.get("var", 1.0)), (), ("mean", "var")
    ),
    "uniform": ConfigEntry(lambda c: Uniform(c["low"], c["high"]), ("low", "high")),
    "rademacher": ConfigEntry(lambda c: Rademacher()),
    "two-point": ConfigEntry(
        lambda c: TwoPoint(c["low"], c["high"], c.get("p_low", 0.5)),
        ("low", "high"),
        ("p_low",),
    ),
    "exponential-centered": ConfigEntry(
        lambda c: CenteredExponential(c.get("rate", 1.0)), (), ("rate",)
    ),
    "finite-discrete": ConfigEntry(
        lambda c: FiniteDiscrete(c["values"], c["probs"]), ("values", "probs")
    ),
    "scaled": ConfigEntry(
        lambda c: scale(distribution_from_config(c["base"]), c["factor"]),
        ("base", "factor"),
    ),
    "shifted": ConfigEntry(
        lambda c: shift(distribution_from_config(c["base"]), c["offset"]),
        ("base", "offset"),
    ),
}


def distribution_from_config(cfg: dict) -> ScalarDistribution:
    """Build a ScalarDistribution from a config mapping (DISTRIBUTION_FAMILIES)."""
    family = cfg.get("family")
    if family not in DISTRIBUTION_FAMILIES:
        raise DistributionError(f"unknown distribution family {family!r}")
    return DISTRIBUTION_FAMILIES[family].build(cfg)


# ---------------------------------------------------------------------------
# Random indices on {1, 2, ...}
# ---------------------------------------------------------------------------


class RandomIndex:
    """Positive integer-valued random variable, independent of summands."""

    family: str = "abstract"

    mean: float

    def pmf(self, k: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        raise NotImplementedError

    def tail_mass(self, k: int) -> float:
        """P(index > k)."""
        raise NotImplementedError

    def truncation(self, eta: float) -> int:
        """Smallest K >= 1 with P(index > K) <= eta.

        Doubles a candidate from 1 until the tail crosses eta, then bisects
        the last step: about 2 log2(K) tail evaluations for any family.
        Indices never change, so the K found for each eta is kept on the
        instance; threads that race on a new eta each find the same K and
        one of them is kept.
        """
        if not 0.0 < eta < 1.0:
            raise DistributionError("eta must lie in (0, 1)")
        found = self.__dict__.setdefault("_truncations", {})
        if eta in found:
            return found[eta]
        # invariant: P(index > lo) > eta >= P(index > hi); P(index > 0) = 1
        lo, hi = 0, 1
        while self.tail_mass(hi) > eta:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.tail_mass(mid) > eta:
                lo = mid
            else:
                hi = mid
        found[eta] = hi
        return hi

    def descriptor(self) -> tuple:
        raise NotImplementedError


def _index_value(value) -> int:
    """``value`` as an int; DistributionError unless it is a whole number >= 1, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not float(value).is_integer() or value < 1:
        raise DistributionError(f"index values must be integers >= 1, got {value!r}")
    return int(value)


class Deterministic(RandomIndex):
    """Index equal to a fixed k with probability one."""

    family = "deterministic"

    def __init__(self, k: int):
        self.k = _index_value(k)
        self.mean = float(self.k)

    def descriptor(self) -> tuple:
        return ("deterministic", self.k)

    def __repr__(self) -> str:
        return f"Deterministic({self.k})"

    def pmf(self, k: ArrayLike) -> ArrayLike:
        k = np.asarray(k)
        out = np.where(k == self.k, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, k: int) -> float:
        return 0.0 if k >= self.k else 1.0

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self.k
        return np.full(size, self.k, dtype=np.int64)


class ShiftedPoisson(RandomIndex):
    """1 + Poisson(mean - 1): Poisson law pushed onto {1, 2, ...}."""

    family = "poisson"

    def __init__(self, mean: float):
        if not 1.0 < mean < math.inf:
            raise DistributionError("shifted Poisson requires mean > 1")
        self.mean = float(mean)
        self.lam = self.mean - 1.0

    def descriptor(self) -> tuple:
        return ("poisson", self.mean)

    def __repr__(self) -> str:
        return f"ShiftedPoisson(mean={self.mean!r})"

    def pmf(self, k: ArrayLike) -> ArrayLike:
        k = np.asarray(k)
        m = k - 1
        valid = m >= 0
        mm = np.where(valid, m, 0)
        log_p = -self.lam + mm * math.log(self.lam) - gammaln(mm + 1.0)
        out = np.where(valid, np.exp(log_p), 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, k: int) -> float:
        # the bits of scipy's poisson.sf(k - 1, lam), without importing its
        # stats package: that import costs more than most commands' work
        if k < 1:
            return 1.0
        return float(pdtrc(k - 1, self.lam))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.poisson(self.lam, size=size) + 1


class Geometric(RandomIndex):
    """Geometric law on {1, 2, ...}: pmf(k) = p (1-p)^(k-1), mean 1/p."""

    family = "geometric"

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise DistributionError("geometric parameter p must lie in (0, 1)")
        self.p = float(p)
        self.mean = 1.0 / self.p

    @classmethod
    def from_mean(cls, mean: float) -> "Geometric":
        if mean <= 1.0:
            raise DistributionError("geometric mean must exceed 1")
        return cls(1.0 / mean)

    def descriptor(self) -> tuple:
        return ("geometric", self.p)

    def __repr__(self) -> str:
        return f"Geometric(p={self.p!r})"

    def pmf(self, k: ArrayLike) -> ArrayLike:
        k = np.asarray(k)
        valid = k >= 1
        kk = np.where(valid, k, 1)
        out = np.where(valid, self.p * np.power(1.0 - self.p, kk - 1), 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, k: int) -> float:
        if k < 1:
            return 1.0
        # P(index > k) = (1-p)^k
        return (1.0 - self.p) ** k

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.geometric(self.p, size=size)


class ShiftedNegativeBinomial(RandomIndex):
    """1 + NB(r, p) where NB counts failures before the r-th success."""

    family = "negative-binomial"

    def __init__(self, r: float, p: float):
        if not 0 < r < math.inf:
            raise DistributionError("negative binomial requires r > 0")
        if not 0.0 < p < 1.0:
            raise DistributionError("negative binomial requires p in (0, 1)")
        self.r = float(r)
        self.p = float(p)
        self.mean = 1.0 + self.r * (1.0 - self.p) / self.p

    @classmethod
    def from_mean(cls, mean: float, r: float = 2.0) -> "ShiftedNegativeBinomial":
        if mean <= 1.0:
            raise DistributionError("negative binomial mean must exceed 1")
        p = r / (r + mean - 1.0)
        return cls(r, p)

    def descriptor(self) -> tuple:
        return ("negative-binomial", self.r, self.p)

    def __repr__(self) -> str:
        return f"ShiftedNegativeBinomial(r={self.r!r}, p={self.p!r})"

    def pmf(self, k: ArrayLike) -> ArrayLike:
        from scipy.stats import nbinom

        k = np.asarray(k)
        out = np.where(k >= 1, nbinom.pmf(np.maximum(k - 1, 0), self.r, self.p), 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, k: int) -> float:
        from scipy.stats import nbinom

        if k < 1:
            return 1.0
        return float(nbinom.sf(k - 1, self.r, self.p))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.negative_binomial(self.r, self.p, size=size) + 1


class FiniteIndex(RandomIndex):
    """Index with finite support {k_i} and explicit probabilities."""

    family = "finite"

    def __init__(self, values: Sequence[int], probs: Sequence[float]):
        prb = np.asarray(probs, dtype=float)
        if np.shape(values) != prb.shape or prb.ndim != 1 or prb.size == 0:
            raise DistributionError("finite index needs matching value/prob arrays")
        vals = np.array([_index_value(v) for v in values], dtype=np.int64)
        if not np.all(prb >= 0) or abs(prb.sum() - 1.0) > 1e-9:
            raise DistributionError("probabilities must be nonnegative and sum to 1")
        order = np.argsort(vals)
        self._values = vals[order]
        self._probs = prb[order] / prb.sum()
        if np.any(np.diff(self._values) == 0):
            raise DistributionError("index values must be distinct")
        self._cum = np.cumsum(self._probs)
        self._cut = _choice_cut(self._probs)
        self.mean = float(np.dot(self._values, self._probs))

    def descriptor(self) -> tuple:
        return ("finite", tuple(self._values.tolist()), tuple(self._probs.tolist()))

    def __repr__(self) -> str:
        return f"FiniteIndex({self._values.tolist()!r}, {self._probs.tolist()!r})"

    def pmf(self, k: ArrayLike) -> ArrayLike:
        k = np.asarray(k)
        idx = np.searchsorted(self._values, k)
        idx = np.clip(idx, 0, len(self._values) - 1)
        out = np.where(self._values[idx] == k, self._probs[idx], 0.0)
        return float(out) if out.ndim == 0 else out

    def tail_mass(self, k: int) -> float:
        idx = np.searchsorted(self._values, k, side="right")
        if idx == self._values.size:
            # past the support the tail is 0, whatever the cumulative sum rounds to
            return 0.0
        return max(float(1.0 - (self._cum[idx - 1] if idx > 0 else 0.0)), 0.0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return _inverse_cdf_draws(self._values, self._cut, rng, size)


def _geometric_from_config(cfg: dict, resolve) -> Geometric:
    if "p" in cfg:
        return Geometric(float(cfg["p"]))
    return Geometric.from_mean(float(resolve(cfg.get("mean", "n"))))


def _negative_binomial_from_config(cfg: dict, resolve) -> ShiftedNegativeBinomial:
    r = float(cfg.get("r", 2.0))
    if "p" in cfg:
        return ShiftedNegativeBinomial(r, float(cfg["p"]))
    return ShiftedNegativeBinomial.from_mean(float(resolve(cfg.get("mean", "n"))), r=r)


# builders take the config and a resolver for the literal "n"
INDEX_FAMILIES = {
    "deterministic": ConfigEntry(
        lambda c, resolve: Deterministic(resolve(c.get("k", "n"))), (), ("k",)
    ),
    "poisson": ConfigEntry(
        lambda c, resolve: ShiftedPoisson(float(resolve(c.get("mean", "n")))),
        (),
        ("mean",),
    ),
    "geometric": ConfigEntry(_geometric_from_config, (), ("mean", "p")),
    "negative-binomial": ConfigEntry(_negative_binomial_from_config, (), ("mean", "r", "p")),
    "finite": ConfigEntry(
        lambda c, resolve: FiniteIndex([resolve(v) for v in c["values"]], c["probs"]),
        ("values", "probs"),
    ),
}


def index_from_config(cfg: dict, n: Optional[int] = None) -> RandomIndex:
    """Build a RandomIndex from a config mapping (INDEX_FAMILIES).

    Integer-valued fields accept the literal string "n", resolved against
    the row parameter at evaluation time.
    """

    def resolve(value):
        if isinstance(value, str):
            if value == "n":
                if n is None:
                    raise DistributionError('index parameter "n" needs a row context')
                return n
            raise DistributionError(f"cannot resolve index parameter {value!r}")
        return value

    family = cfg.get("family")
    if family not in INDEX_FAMILIES:
        raise DistributionError(f"unknown index family {family!r}")
    return INDEX_FAMILIES[family].build(cfg, resolve)
