"""Correctness checks computed apart from randsum.

Every expected value here comes from numpy and scipy alone: closed forms,
binomial enumerations with ``scipy.stats.binom`` and mixtures of Gamma
CDFs.  Nothing imports randsum, so a fault in the program cannot hide in
its own oracle.

A check passes when the program's value lies within the error bound the
program reported plus a stated roundoff allowance:

* ``roundoff(terms, scale) = 2 * terms * 2**-52 * max(|scale|, 1)``, the
  rounding error of summing ``terms`` floats of size ``scale``.  For an
  index mixture ``terms`` is the truncation point K; for a row sum it is
  the row length.
* ``ORACLE_GRID_ALLOWANCE = 1e-6`` covers the oracle's own search grid
  where the supremum of two continuous CDFs is found numerically.
* ``ETA`` covers the index mass the oracle leaves out past the truncation
  point where it builds the law of a random sum.

Every output row needs a rule; a row without one fails its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfcx, gammainc, ndtr
from scipy.stats import binom, poisson

from workloads import Op

UNIT_ROUNDOFF = 2.0**-52
ORACLE_GRID_ALLOWANCE = 1e-6
# the truncation tail every randomized functional and mixture uses
ETA = 1e-10
# E|E - 1|^3 for E ~ Exp(1)
EXP_ABS3 = 12.0 / math.e - 2.0
# a row sum that is exactly N(0, 1) must read as one to this accuracy
EXACT_NORMAL_TOL = 1e-10


# A fault of the program that these checks show on every run.  For rows
# whose entry variances keep doubling past the row (the Shiryaev array),
# ``_tail_extension`` in conditions.py stops once one term falls below
# 1e-16 of the last inner value, and what it leaves out exceeds the rest
# of the bound: ``rand_feller`` at n = 4 falls 3.4e-13 short of the exact
# value e^3/16 + (1/8 - 1/16)/e^3 beyond its reported bound.  An operation
# whose only failed checks carry this tag counts as failed, not incorrect.
REMAINDER_FAULT = "randomized remainder bound short on rows that grow past n"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    fault: Optional[str] = None  # a known fault that explains a failure


def roundoff(terms: int, scale: float = 1.0) -> float:
    return 2.0 * terms * UNIT_ROUNDOFF * max(abs(scale), 1.0)


def within(name: str, value: float, expected: float, bound: float, allowance: float,
           fault: Optional[str] = None) -> Check:
    gap = abs(value - expected)
    ok = gap <= bound + allowance
    return Check(name, ok, f"value {value!r}, expected {expected!r}, "
                           f"gap {gap:.3e} vs bound {bound:.3e} + allowance {allowance:.3e}",
                 fault)


def at_most(name: str, value: float, limit: float) -> Check:
    return Check(name, value <= limit, f"value {value!r} vs limit {limit!r}")


# ---------------------------------------------------------------------------
# random indices, as the configs define them
# ---------------------------------------------------------------------------


def index_law(family: str, n: int) -> Tuple[Callable[[np.ndarray], np.ndarray], Callable[[int], float]]:
    """(pmf, tail) of the index with mean n: tail(k) = P(nu > k)."""
    if family == "poisson":  # 1 + Poisson(n - 1)
        lam = n - 1.0
        return (lambda ks: poisson.pmf(ks - 1, lam)), (lambda k: float(poisson.sf(k - 1, lam)))
    if family == "geometric":  # P(nu = k) = p (1 - p)^(k - 1), p = 1/n
        p = 1.0 / n
        return (lambda ks: p * (1.0 - p) ** (ks - 1.0)), (lambda k: (1.0 - p) ** k)
    raise ValueError(f"no oracle for index family {family!r}")


def truncation_point(tail: Callable[[int], float], eta: float = ETA) -> int:
    """Smallest K >= 1 with P(nu > K) <= eta."""
    lo, hi = 1, 1
    while tail(hi) > eta:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid) > eta:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# two-point rows: binomial enumeration
# ---------------------------------------------------------------------------


def two_point_sum_distance(k: int, low: float, high: float, p_high: float) -> float:
    """sup_x |P(S < x) - Phi(x)| v P(S <= x) for S a sum of k two-point laws.

    S = k low + J (high - low) with J ~ Bin(k, p_high).  Phi is
    continuous and S atomic, so the supremum is reached at an atom, from
    one side or the other.
    """
    j = np.arange(k + 1)
    atoms = k * low + j * (high - low)
    at_or_below = binom.cdf(j, k, p_high)
    below = np.concatenate([[0.0], at_or_below[:-1]])
    phi = ndtr(atoms)
    return float(max(np.max(np.abs(below - phi)), np.max(np.abs(at_or_below - phi))))


def rare_jump_entry(n: int) -> Tuple[float, float, float]:
    """(low, high, P(high)) of every entry of row n of the rare-jump array."""
    return -1.0 / n, 1.0, 1.0 / (n + 1.0)


def iid_two_point_entry(n: int, low: float, high: float, p_low: float) -> Tuple[float, float, float]:
    """The base law centered and scaled to variance 1/n."""
    mean = p_low * low + (1.0 - p_low) * high
    sd = abs(high - low) * math.sqrt(p_low * (1.0 - p_low))
    factor = 1.0 / (sd * math.sqrt(n))
    return (low - mean) * factor, (high - mean) * factor, 1.0 - p_low


def index_mixture(n: int, family: str, per_k: Callable[[int], float]) -> Tuple[float, int]:
    """(sum_{k <= K} P(nu = k) per_k(k), K) with K the eta truncation point."""
    pmf, tail = index_law(family, n)
    trunc = truncation_point(tail)
    ks = np.arange(1, trunc + 1)
    weights = pmf(ks)
    values = np.array([per_k(int(k)) for k in ks])
    return float(np.dot(weights, values)), trunc


# ---------------------------------------------------------------------------
# normal prefix sums of the all-normal array
# ---------------------------------------------------------------------------


def normal_scale_distance(s: float) -> float:
    """sup_x |Phi(x / s) - Phi(x)|, reached at x^2 = 2 s^2 ln s / (s^2 - 1)."""
    if s == 1.0:
        return 0.0
    x = math.sqrt(2.0 * s * s * math.log(s) / (s * s - 1.0))
    return abs(float(ndtr(x / s) - ndtr(x)))


def shiryaev_prefix_sd(n: int, k: int) -> float:
    """Standard deviation of the first k entries of row n: var = 2^(k - n)."""
    return 2.0 ** ((k - n) / 2.0)


# ---------------------------------------------------------------------------
# centered exponential rows
# ---------------------------------------------------------------------------


def exp_lindeberg(t: float) -> float:
    """E[(E - 1)^2 1{|E - 1| >= t}] for E ~ Exp(1), t > 0.

    An antiderivative of (x - 1)^2 e^-x is -e^-x (x^2 + 1).
    """
    upper = math.exp(-(1.0 + t)) * ((1.0 + t) ** 2 + 1.0)
    lower = 1.0 - math.exp(-(1.0 - t)) * ((1.0 - t) ** 2 + 1.0) if t < 1.0 else 0.0
    return upper + lower


def poisson_gamma_distance(n: int) -> float:
    """sup_x |P(S < x) - Phi(x)| for S = (G_nu - nu)/sqrt(n).

    nu = 1 + Poisson(n - 1) and G_k ~ Gamma(k, 1), so S is the random sum
    of nu centered unit exponentials scaled by 1/sqrt(n).  Both CDFs are
    continuous; the supremum is found on a grid refined twice around its
    largest gaps.
    """
    lam = n - 1.0
    ks = np.arange(1, int(lam + 14.0 * math.sqrt(lam) + 40.0))[:, None]
    weights = poisson.pmf(ks[:, 0] - 1, lam)
    root = math.sqrt(n)

    def gaps(xs: np.ndarray) -> np.ndarray:
        mixture = weights @ gammainc(ks, np.maximum(ks + root * xs[None, :], 0.0))
        return np.abs(mixture - ndtr(xs))

    xs = np.linspace(-9.0, 9.0, 3601)
    for _ in range(3):
        g = gaps(xs)
        step = xs[1] - xs[0] if xs.size > 1 else 1.0
        centers = xs[np.argsort(g)[-4:]]
        xs = np.unique(np.concatenate(
            [np.linspace(c - 2.0 * step, c + 2.0 * step, 401) for c in centers]))
    return float(np.max(gaps(xs)))


# ---------------------------------------------------------------------------
# entry laws of the arrays the conditions command runs on
# ---------------------------------------------------------------------------


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _x_normal_cdf_antiderivative(x: float, sigma: float) -> float:
    """G with G'(x) = x Phi(x / sigma)."""
    z = x / sigma
    return 0.5 * ((x * x - sigma * sigma) * float(ndtr(z)) + sigma * x * _phi(z))


def _x_normal_tail(b: float, sigma: float) -> float:
    """int_b^inf x (1 - Phi(x / sigma)) dx, for b >= 0."""
    z = b / sigma
    return 0.5 * ((sigma * sigma - b * b) * float(ndtr(-z)) + sigma * b * _phi(z))


def _roots(f: Callable[[float], float], lo: float, hi: float) -> List[float]:
    xs = np.linspace(lo, hi, 257)
    fs = [f(float(x)) for x in xs]
    return [brentq(f, float(a), float(b), xtol=1e-15)
            for a, b, fa, fb in zip(xs[:-1], xs[1:], fs[:-1], fs[1:]) if fa * fb < 0.0]


def rotar_piecewise(pieces, low: float, high: float, sigma: float, eps: float) -> float:
    """int_{|x| >= eps} |x| |F(x) - Phi(x / sigma)| dx in closed form.

    F is 0 below ``low`` < 0, 1 above ``high`` > 0 and ``alpha x + beta``
    on each piece ``(a, b, alpha, beta)`` tiling [low, high].  Each piece
    is split where F - Phi changes sign; on every part the integrand has
    one sign, so its integral is |alpha x^3/3 + beta x^2/2 - G(x)| between
    the ends.
    """
    total = _x_normal_tail(max(high, eps), sigma) + _x_normal_tail(max(-low, eps), sigma)
    for a, b, alpha, beta in pieces:
        def diff(x, alpha=alpha, beta=beta):
            return alpha * x + beta - float(ndtr(x / sigma))

        def primitive(x, alpha=alpha, beta=beta):
            return alpha * x**3 / 3.0 + beta * x * x / 2.0 - _x_normal_cdf_antiderivative(x, sigma)

        for lo, hi in ((max(a, eps), b), (a, min(b, -eps))):
            if hi <= lo:
                continue
            cuts = [lo, *_roots(diff, lo, hi), hi]
            total += sum(abs(primitive(v) - primitive(u)) for u, v in zip(cuts[:-1], cuts[1:]))
    return total


@dataclass(frozen=True)
class UniformEntry:
    """U(-a, a)."""

    a: float

    @property
    def variance(self) -> float:
        return self.a * self.a / 3.0

    def trunc2(self, eps: float) -> float:
        """E[X^2 1{|X| >= eps}]."""
        return (self.a**3 - eps**3) / (3.0 * self.a) if eps < self.a else 0.0

    def abs_moment(self, order: float) -> float:
        return self.a**order / (order + 1.0)

    def tail_prob(self, eps: float) -> float:
        return (self.a - eps) / self.a if eps < self.a else 0.0

    def ratio(self) -> float:
        """E[X^2 / (1 + X^2)] = 1 - atan(a) / a."""
        return 1.0 - math.atan(self.a) / self.a

    def cf_deviation(self, t: float) -> float:
        u = t * self.a
        return abs(math.sin(u) / u - 1.0) if u else 0.0

    def rotar(self, eps: float) -> float:
        pieces = [(-self.a, self.a, 0.5 / self.a, 0.5)]
        return rotar_piecewise(pieces, -self.a, self.a, math.sqrt(self.variance), eps)


@dataclass(frozen=True)
class AtomicEntry:
    """A centered law on finitely many atoms ((x, p), ...) in increasing x."""

    atoms: Tuple[Tuple[float, float], ...]

    @property
    def variance(self) -> float:
        return sum(p * x * x for x, p in self.atoms)

    def trunc2(self, eps: float) -> float:
        return sum(p * x * x for x, p in self.atoms if abs(x) >= eps)

    def abs_moment(self, order: float) -> float:
        return sum(p * abs(x) ** order for x, p in self.atoms)

    def tail_prob(self, eps: float) -> float:
        return sum(p for x, p in self.atoms if abs(x) >= eps)

    def ratio(self) -> float:
        return sum(p * x * x / (1.0 + x * x) for x, p in self.atoms)

    def cf_deviation(self, t: float) -> float:
        return abs(sum(p * complex(math.cos(t * x), math.sin(t * x)) for x, p in self.atoms) - 1.0)

    def rotar(self, eps: float) -> float:
        xs = [x for x, _ in self.atoms]
        below = np.cumsum([p for _, p in self.atoms])
        pieces = [(a, b, 0.0, float(c)) for a, b, c in zip(xs[:-1], xs[1:], below[:-1])]
        return rotar_piecewise(pieces, xs[0], xs[-1], math.sqrt(self.variance), eps)


@dataclass(frozen=True)
class NormalEntry:
    """N(0, variance)."""

    variance: float

    def trunc2(self, eps: float) -> float:
        """2 sigma^2 (z phi(z) + 1 - Phi(z)), z = eps / sigma."""
        z = eps / math.sqrt(self.variance)
        return 2.0 * self.variance * (z * _phi(z) + float(ndtr(-z)))

    def abs_moment(self, order: float) -> float:
        """E|Z|^p sigma^p, E|Z|^p = 2^(p/2) Gamma((p + 1)/2) / sqrt(pi)."""
        return (2.0 ** (order / 2.0) * math.gamma((order + 1.0) / 2.0) / math.sqrt(math.pi)
                * self.variance ** (order / 2.0))

    def tail_prob(self, eps: float) -> float:
        return 2.0 * float(ndtr(-eps / math.sqrt(self.variance)))

    def ratio(self) -> float:
        """1 - E[1/(1 + X^2)] = 1 - sqrt(pi/2)/sigma erfcx(1/(sqrt(2) sigma))."""
        sigma = math.sqrt(self.variance)
        return 1.0 - math.sqrt(math.pi / 2.0) / sigma * float(erfcx(1.0 / (math.sqrt(2.0) * sigma)))

    def cf_deviation(self, t: float) -> float:
        return -math.expm1(-0.5 * self.variance * t * t)

    def rotar(self, eps: float) -> float:
        return 0.0  # a centered normal entry is its own comparison law


def shiryaev_entry_variance(n: int, j: int) -> float:
    """Entry variances of row n: 2^(1 - n) at j = 1, 2^(j - 1 - n) beyond."""
    return 2.0 ** (1 - n) if j == 1 else 2.0 ** (j - 1 - n)


def row_entry(array: dict, n: int, j: int):
    """Law of entry j of row n (any j >= 1) of an array config, or None."""
    kind = array["array"]
    if kind == "iid" and array["base"]["family"] == "uniform":
        return UniformEntry(math.sqrt(3.0 / n))  # rescaled to variance 1/n
    if kind == "rare-jump":
        low, high, p_high = rare_jump_entry(n)
        return AtomicEntry(((low, 1.0 - p_high), (high, p_high)))
    if kind == "shiryaev" or (kind == "series" and array.get("base_seq") == "shiryaev"):
        return NormalEntry(shiryaev_entry_variance(n, j))
    return None


# functional -> (per-entry value, how the row combines them)
_ENTRY_FUNCTIONALS = {
    "lindeberg": (lambda e, row: e.trunc2(row["epsilon"]), "sum"),
    "lyapunov": (lambda e, row: e.abs_moment(2.0 + row["delta"]), "sum"),
    "rotar": (lambda e, row: e.rotar(row["epsilon"]), "sum"),
    "feller": (lambda e, row: e.variance, "max"),
    "sigma_star": (lambda e, row: math.sqrt(e.variance), "max"),
    "infinitesimality": (lambda e, row: e.tail_prob(row["epsilon"]), "max"),
    "infinitesimality_ratio": (lambda e, row: e.ratio(), "max"),
}
_RANDOMIZED = ("lindeberg", "lyapunov", "rotar", "feller", "sigma_star", "infinitesimality")


def _entry_rule(name: str):
    if name.startswith("cf_deviation@t="):
        t = float(name.split("=", 1)[1])
        return (lambda e, row: e.cf_deviation(t)), "max"
    return _ENTRY_FUNCTIONALS.get(name)


def oracle_reach(n: int) -> int:
    """How many positions the oracle's index mixtures sum over.

    Far past any index value of non-negligible weight, so even entries
    whose variances double with j (the Shiryaev rows) leave no visible tail.
    """
    return 8 * n + 200


def condition_value(array: dict, family: str, row: dict) -> Optional[float]:
    """The exact value of a conditions row, or None where no rule applies.

    Classical functionals combine entries 1..n; ``rand_<f>`` is
    sum_k P(nu = k) f_k with f_k the same combination over entries 1..k.
    """
    name, n = row["functional"], row["n"]
    randomized = name.startswith("rand_")
    base = name[len("rand_"):] if randomized else name
    rule = _entry_rule(base)
    if rule is None or (randomized and base not in _RANDOMIZED):
        return None
    fn, combine = rule
    upto = oracle_reach(n) if randomized else n
    memo = {}
    values = np.empty(upto)
    for j in range(1, upto + 1):
        entry = row_entry(array, n, j)
        if entry is None:
            return None
        if entry not in memo:
            memo[entry] = fn(entry, row)
        values[j - 1] = memo[entry]
    prefix = np.cumsum(values) if combine == "sum" else np.maximum.accumulate(values)
    if not randomized:
        return float(prefix[-1])
    pmf, _ = index_law(family, n)
    return float(np.dot(pmf(np.arange(1, upto + 1)), prefix))


# ---------------------------------------------------------------------------
# checks per operation
# ---------------------------------------------------------------------------


def _no_errors(doc: dict) -> List[Check]:
    errors = doc.get("errors") or []
    return [Check("no_error_cells", not errors, f"{len(errors)} failed cells: {errors[:2]}")]


def _check_rows(doc: dict, key: str, rule: Callable[[dict], Optional[Check]],
                required: Iterable[str] = ()) -> List[Check]:
    """Apply ``rule`` to every output row; a row it has no oracle for fails,
    and so does a required value missing for some n of the grid."""
    out = _no_errors(doc)
    seen = set()
    for row in doc["rows"]:
        seen.add((row["n"], row[key]))
        check = rule(row)
        if check is None:
            check = Check(f"{row[key]}@n={row['n']}", False, "no oracle for this output")
        out.append(check)
    for n in doc["config"].get("grids", {}).get("n", ()):
        out += [Check(f"{name}@n={n}", False, "missing from the output")
                for name in required if (n, name) not in seen]
    return out


def rare_jump_random_sum_distance(n: int, family: str) -> Tuple[float, int]:
    """(sup_x |P(S_nu < x) - Phi(x)| v |P(S_nu <= x) - Phi(x)|, K).

    S_k = J (1 + 1/n) - k/n with J ~ Bin(k, 1/(n+1)) is the sum of k
    rare-jump entries of row n, so n S_k = J (n + 1) - k is an integer and
    the law of the random sum S_nu is built exactly on the integer lattice,
    over k <= K, the eta truncation point.  Unlike ``delta_mixture``, which
    averages the per-k distances, this is the distance of the random sum's
    own law: the one its empirical distribution estimates.
    """
    pmf, tail = index_law(family, n)
    trunc = truncation_point(tail)
    p_high = rare_jump_entry(n)[2]
    mass = np.zeros(trunc * (n + 1) + 1)  # index m + trunc for n S = m
    for k, weight in zip(range(1, trunc + 1), pmf(np.arange(1, trunc + 1))):
        j = np.arange(k + 1)
        mass[j * (n + 1) - k + trunc] += weight * binom.pmf(j, k, p_high)
    m = np.nonzero(mass)[0]
    at_or_below = np.cumsum(mass)[m]
    below = at_or_below - mass[m]
    phi = ndtr((m - trunc) / n)
    return float(max(np.max(np.abs(below - phi)), np.max(np.abs(at_or_below - phi)))), trunc


def check_study_lyapunov(doc: dict) -> List[Check]:
    def rule(r):
        n, metric = r["n"], r["metric"]
        tag = f"{metric}@n={n}"
        trunc = truncation_point(index_law("poisson", n)[1])
        if metric in ("lyapunov", "rand_lyapunov"):
            terms = trunc if metric.startswith("rand_") else n
            return within(tag, r["value"], EXP_ABS3 / math.sqrt(n), r["error_bound"],
                          roundoff(terms))
        if metric == "rand_lindeberg":
            return within(tag, r["value"], exp_lindeberg(r["epsilon"] * math.sqrt(n)),
                          r["error_bound"], roundoff(trunc))
        if metric == "empirical_delta":
            return within(tag, r["value"], poisson_gamma_distance(n), r["error_bound"],
                          ORACLE_GRID_ALLOWANCE)
        return None

    return _check_rows(doc, "metric", rule,
                       ("lyapunov", "rand_lyapunov", "rand_lindeberg", "empirical_delta"))


def check_study_rare_jump(doc: dict) -> List[Check]:
    def rule(r):
        n, metric = r["n"], r["metric"]
        tag = f"{metric}@n={n}"
        trunc = truncation_point(index_law("geometric", n)[1])
        expected = {
            "rand_feller": 1.0 / n,
            "rand_lindeberg": n / (n + 1.0),
            "rand_infinitesimality": 1.0 / (n + 1.0),
        }.get(metric)
        if expected is not None:
            return within(tag, r["value"], expected, r["error_bound"], roundoff(trunc))
        if metric == "delta_mixture":
            expected, trunc = index_mixture(
                n, "geometric", lambda k: two_point_sum_distance(k, *rare_jump_entry(n)))
            return within(tag, r["value"], expected, r["error_bound"], roundoff(trunc))
        if metric == "empirical_delta":
            # the oracle's law leaves out index mass eta past K
            expected, trunc = rare_jump_random_sum_distance(n, "geometric")
            return within(tag, r["value"], expected, r["error_bound"], ETA + roundoff(trunc))
        return None

    return _check_rows(doc, "metric", rule, ("delta_mixture", "rand_feller", "rand_lindeberg",
                                             "rand_infinitesimality", "empirical_delta"))


def check_study_series(doc: dict) -> List[Check]:
    def rule(r):
        n, metric = r["n"], r["metric"]
        tag = f"{metric}@n={n}"
        if metric == "feller":
            return within(tag, r["value"], 0.5, r["error_bound"], roundoff(n))
        if metric in ("rotar", "empirical_delta"):  # exactly 0 for normal entries and sums
            return at_most(tag, r["value"], r["error_bound"])
        if metric == "delta_mixture":
            return at_most(tag, r["value"], EXACT_NORMAL_TOL)
        return None

    return _check_rows(doc, "metric", rule, ("feller", "rotar", "delta_mixture",
                                             "empirical_delta"))


def check_conditions(doc: dict) -> List[Check]:
    """Every functional of every row against ``condition_value``."""
    array, index = doc["config"]["array"], doc["config"]["index"]

    def rule(r):
        if index.get("mean") != "n" or index.get("family") not in ("poisson", "geometric"):
            return None
        expected = condition_value(array, index["family"], r)
        if expected is None:
            return None
        n, name = r["n"], r["functional"]
        randomized = name.startswith("rand_")
        terms = truncation_point(index_law(index["family"], n)[1]) if randomized else n
        fault = REMAINDER_FAULT if randomized and isinstance(
            row_entry(array, n, 1), NormalEntry) else None
        return within(f"{name}@n={n},eps={r['epsilon']}", r["value"], expected,
                      r["error_bound"], roundoff(terms, expected), fault)

    return _check_rows(doc, "functional", rule)


def check_distances(doc: dict) -> List[Check]:
    array = doc["config"]["array"]
    kind = array["array"]

    def rule(r):
        n, metric = r["n"], r["metric"]
        value, bound = r["value"], r["error_bound"]
        tag = f"{metric}@n={n}"
        if kind in ("rare-jump", "iid"):
            if kind == "rare-jump":
                entry = rare_jump_entry(n)
            else:
                base = array["base"]
                entry = iid_two_point_entry(n, base["low"], base["high"], base["p_low"])
            if metric == "kolmogorov_row":
                return within(tag, value, two_point_sum_distance(n, *entry), bound, roundoff(n))
            if metric == "delta_mixture":
                expected, trunc = index_mixture(
                    n, "poisson", lambda k: two_point_sum_distance(k, *entry))
                return within(tag, value, expected, bound, roundoff(trunc))
        elif kind == "shiryaev":
            if metric == "kolmogorov_row":
                return at_most(tag, value, EXACT_NORMAL_TOL)
            if metric == "delta_mixture":
                expected, trunc = index_mixture(
                    n, "poisson", lambda k: normal_scale_distance(shiryaev_prefix_sd(n, k)))
                return within(tag, value, expected, bound, roundoff(trunc))
        elif kind == "series":  # rows mode: every random sum is exactly N(0, 1)
            if metric == "empirical_delta":
                return at_most(tag, value, bound)
            if metric in ("kolmogorov_row", "delta_mixture"):
                return at_most(tag, value, EXACT_NORMAL_TOL)
        return None

    return _check_rows(doc, "metric", rule)


def check_selfcheck(doc: dict) -> List[Check]:
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    return [Check("selfcheck_passed", bool(doc["passed"]) and not failed, f"failed: {failed}")]


def check_counterexample(doc: dict) -> List[Check]:
    return [Check(f"finding:{f['finding']}", bool(f["passed"]), f["detail"])
            for f in doc["findings"]]


_STUDY_CHECKS = {
    "lyapunov_exponential_poisson": check_study_lyapunov,
    "feller_necessity_rare_jump": check_study_rare_jump,
    "rotar_shiryaev_series": check_study_series,
}


def check_output(op: Op, doc: dict) -> List[Check]:
    """Every oracle check for one operation's output document."""
    if op.command == "study":
        return _STUDY_CHECKS[op.config["study"]["plan"]](doc)
    if op.command == "conditions":
        return check_conditions(doc)
    if op.command == "distances":
        return check_distances(doc)
    if op.command == "selfcheck":
        return check_selfcheck(doc)
    if op.command == "counterexample":
        return check_counterexample(doc)
    raise ValueError(f"no oracle for command {op.command!r}")


def failures(checks: Iterable[Check]) -> List[Check]:
    return [c for c in checks if not c.ok]
