"""Condition functionals against enumeration, quadrature, and closed forms."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

import randsum.conditions as cond
from randsum.arrays import (
    SeriesForm,
    array_from_config,
    TriangularArray,
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    shiryaev_series,
)
from randsum.conditions import (
    REPORT_FUNCTIONALS,
    cf_deviation,
    evaluate_report,
    feller,
    implication_suite,
    infinitesimality,
    infinitesimality_ratio,
    lindeberg,
    lyapunov,
    randomized,
    randomized_detailed,
    rotar,
    rotar_error_bound,
    series_implication_suite,
    sigma_star,
)
from randsum.distributions import (
    CenteredExponential,
    Deterministic,
    FiniteIndex,
    Geometric,
    Normal,
    FiniteDiscrete,
    Rademacher,
    ShiftedPoisson,
    TwoPoint,
    Uniform,
)

RAD4 = make_iid_array(Rademacher())
UNI4 = make_iid_array(Uniform(-1.0, 1.0))
SHIRYAEV = make_shiryaev_array()
RARE = make_rare_jump_array()


class TestClassicalOnRademacherRow4:
    """Row 4 of the i.i.d. Rademacher array: four atoms at +-1/2.

    Everything here is computable by hand, which makes the row the anchor
    for the whole functional layer.
    """

    def test_lindeberg_steps_at_the_atom(self):
        # non-strict indicator: the atom at 1/2 is inside |x| >= 0.5
        assert lindeberg(RAD4, 4, 0.5) == pytest.approx(1.0, abs=1e-14)
        assert lindeberg(RAD4, 4, 0.6) == 0.0
        assert lindeberg(RAD4, 4, 0.1) == pytest.approx(1.0, abs=1e-14)

    def test_lyapunov(self):
        # 4 * E|X|^3 = 4 * (1/2)^3
        assert lyapunov(RAD4, 4, 1.0) == pytest.approx(0.5, abs=1e-14)
        # 4 * (1/2)^(2.5)
        assert lyapunov(RAD4, 4, 0.5) == pytest.approx(4.0 * 0.5 ** 2.5, rel=1e-13)

    def test_max_functionals(self):
        assert feller(RAD4, 4) == pytest.approx(0.25, abs=1e-15)
        assert infinitesimality(RAD4, 4, 0.5) == 1.0
        assert infinitesimality(RAD4, 4, 0.51) == 0.0
        assert infinitesimality_ratio(RAD4, 4) == pytest.approx(0.2, rel=1e-14)
        assert sigma_star(RAD4, 4) == pytest.approx(0.5, abs=1e-15)

    def test_cf_deviation_cosine(self):
        # phi(t) = cos(t/2); at t=1 the deviation is 1 - cos(1/2)
        assert cf_deviation(RAD4, 4, 1.0) == pytest.approx(
            0.12241743810962724, abs=1e-14
        )
        assert cf_deviation(RAD4, 4, 1.0) == pytest.approx(1.0 - math.cos(0.5), abs=1e-15)


def rotar_entry_oracle(cdf, sigma, eps, pieces):
    """Independent quadrature of int |x| |F - Phi_{0,sigma}| over |x| >= eps."""
    phi = lambda x: ndtr(x / sigma)
    f = lambda x: abs(x) * abs(cdf(x) - phi(x))
    hi = 12.0 * sigma
    total = 0.0
    for a, b in ((eps, hi), (-hi, -eps)):
        v, _ = integrate.quad(f, a, b, points=[p for p in pieces if a < p < b],
                              epsabs=1e-13, limit=400)
        total += v
    return total


class TestRotar:
    def test_rademacher_row4_frozen_and_oracle(self):
        got = rotar(RAD4, 4, 0.3)
        assert got == pytest.approx(0.42848469194316, abs=1e-10)
        cdf = lambda x: 0.0 if x <= -0.5 else (0.5 if x <= 0.5 else 1.0)
        oracle = 4.0 * rotar_entry_oracle(cdf, 0.5, 0.3, (-0.5, 0.5))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_uniform_row4_frozen_and_oracle(self):
        got = rotar(UNI4, 4, 0.5)
        assert got == pytest.approx(0.12297665460624665, abs=1e-10)
        h = math.sqrt(3.0) / 2.0
        cdf = lambda x: min(1.0, max(0.0, (x + h) / (2.0 * h)))
        oracle = 4.0 * rotar_entry_oracle(cdf, 0.5, 0.5, (-h, h))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_vanishes_on_centered_normal_rows(self):
        assert rotar(SHIRYAEV, 8, 0.5) == 0.0

    def test_error_bound_scales_with_row(self):
        assert rotar_error_bound(4) == pytest.approx(4.0 * rotar_error_bound(1))
        # no tighter than what the integrator is asked to deliver
        assert rotar_error_bound(1) >= cond.QUAD_ABS_TOL

    H = math.sqrt(3.0) / 2.0
    ORACLE_CASES = [
        (Uniform(-1.0, 1.0), 0.3),
        (Uniform(-1.0, 1.0), 0.5),
        (Uniform(-H, H), 0.3),
        (Uniform(-H, H), 0.5),
        (Uniform(-0.5, 2.0), 0.3),  # off centre: the comparison law stays N(0, 0.52)
        (Uniform(-5.0, 4.0), 0.5),  # F - Phi has two roots on the right half-line
        (TwoPoint(-1.0, 2.0, 2.0 / 3.0), 0.5),
        (TwoPoint(-1.0, 2.0, 2.0 / 3.0), 1.0),  # an atom on -eps
        (FiniteDiscrete([-0.5, 0.5], [0.5, 0.5]), 0.5),  # atoms on both of +-eps
        *((RARE.entry(n, 1), 0.5) for n in (4, 16, 64)),
    ]

    @pytest.mark.parametrize("law,eps", ORACLE_CASES, ids=lambda v: repr(v))
    def test_closed_form_against_mpmath(self, law, eps):
        got = cond._rotar_entry(law, eps)
        oracle = rotar_mpmath(law, eps)
        assert abs(got - oracle) <= rotar_error_bound(1)
        assert got == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("rate,eps", [(1.0, 0.3), (2.0, 0.3), (2.0, 0.5)])
    def test_quadrature_fallback_against_mpmath(self, rate, eps):
        # at rate 2 the support's end -1/2 lies inside the left piece
        law = CenteredExponential(rate)
        assert abs(cond._rotar_entry(law, eps) - rotar_mpmath(law, eps)) <= rotar_error_bound(1)


def rotar_mpmath(law, eps):
    """Rotar's integral of one uniform, atomic or centered exponential law;
    see ``rotar_oracle``."""
    with mpmath.workdps(30):
        if isinstance(law, Uniform):
            lo, hi = mpmath.mpf(law.low), mpmath.mpf(law.high)
            breaks = [lo, hi]
            cdf = lambda x: min(mpmath.mpf(1), max(mpmath.mpf(0), (x - lo) / (hi - lo)))
        elif isinstance(law, CenteredExponential):
            rate = mpmath.mpf(law.rate)
            # F - Phi keeps its sign past 40 standard deviations
            breaks = [-1 / rate, 40 / rate]
            cdf = lambda x: -mpmath.expm1(-rate * x - 1) if x > -1 / rate else mpmath.mpf(0)
        else:
            vals, probs = law.atoms()
            breaks = [mpmath.mpf(float(v)) for v in vals]
            masses = [mpmath.mpf(float(p)) for p in probs]
            masses = [m / sum(masses) for m in masses]
            # exactly 1 past the last atom, or the right tail diverges
            cdf = lambda x: mpmath.mpf(1) if x > breaks[-1] else sum(
                (m for v, m in zip(breaks, masses) if v < x), mpmath.mpf(0))
        return rotar_oracle(cdf, breaks, law.variance, eps)


def rotar_oracle(cdf, breaks, variance, eps):
    """Rotar's integral of the law with distribution function ``cdf`` and
    the given variance by 30-digit quadrature, split at ``breaks`` (its
    atoms and the ends of its support), at +-eps and at every sign change
    of F - Phi."""
    with mpmath.workdps(30):
        sigma = mpmath.sqrt(mpmath.mpf(variance))
        gap = lambda x: cdf(x) - mpmath.ncdf(x / sigma)
        oracle = mpmath.mpf(0)
        for side in (1, -1):
            # the half-line side * [eps, inf), walked outward
            ends = sorted({b * side for b in breaks if b * side > eps} | {mpmath.mpf(eps)})
            cuts = [ends[0]]
            for u, v in zip(ends[:-1], ends[1:]):
                # F jumps at atoms, so probe just inside the ends
                xs = [u + (v - u) * t for t in (1e-20, *(i / 200 for i in range(1, 200)),
                                                 1 - mpmath.mpf(1e-20))]
                signs = [gap(side * x) for x in xs]
                cuts += [mpmath.findroot(lambda x: gap(side * x), (a, b), solver="anderson")
                         for a, b, ga, gb in zip(xs[:-1], xs[1:], signs[:-1], signs[1:])
                         if ga * gb < 0]
                cuts.append(v)
            oracle += mpmath.quad(lambda x: x * abs(gap(side * x)), cuts + [mpmath.inf])
        return float(oracle)


def exponential_row_oracles(sign, n, eps, delta):
    """30-digit infinitesimality_ratio, lyapunov at ``delta`` and rotar at
    ``eps`` of row n of i.i.d. entries X = sign (E - 1) / sqrt(n), E ~ Exp(1)."""
    with mpmath.workdps(30):
        root = mpmath.sqrt(n)

        def mean_of(g):
            # E g(X), split at E = 1, where X = 0
            return mpmath.quad(lambda e: g(sign * (e - 1) / root) * mpmath.exp(-e),
                               [0, 1, mpmath.inf])

        # the support ends at sign * edge, and F - Phi keeps its sign past
        # 40 standard deviations
        edge = -1 / root
        if sign > 0:
            cdf = lambda x: -mpmath.expm1(-(root * x + 1)) if x > edge else mpmath.mpf(0)
        else:
            cdf = lambda x: mpmath.exp(root * x - 1) if x < -edge else mpmath.mpf(1)
        return {
            "infinitesimality_ratio": float(mean_of(lambda x: x * x / (1 + x * x))),
            "lyapunov": float(n * mean_of(lambda x: abs(x) ** (2 + mpmath.mpf(delta)))),
            "rotar": n * rotar_oracle(cdf, [sign * edge, sign * 40 / root], 1 / mpmath.mpf(n), eps),
        }


# base configs whose i.i.d. rows have entries sign (E - 1) / sqrt(n):
# name -> (config, sign)
_EXP = {"family": "exponential-centered", "rate": 1.0}
EXPONENTIAL_FAMILY_BASES = {
    "mirrored": ({"family": "scaled", "factor": -0.7, "base": {**_EXP, "rate": 1.5}}, -1),
    "shifted": ({"family": "shifted", "offset": 0.4, "base": _EXP}, 1),
    "nested": ({"family": "scaled", "factor": 2.0,
                "base": {"family": "shifted", "offset": 0.4, "base": _EXP}}, 1),
}


@pytest.mark.parametrize("name", EXPONENTIAL_FAMILY_BASES)
def test_exponential_family_rows_lie_within_their_bounds(name):
    base, sign = EXPONENTIAL_FAMILY_BASES[name]
    n, eps, delta = 4, 0.3, 0.5
    rep = evaluate_report(array_from_config({"array": "iid", "base": base}), n, eps, delta,
                          functionals=("infinitesimality_ratio", "lyapunov", "rotar"))
    for functional, oracle in exponential_row_oracles(sign, n, eps, delta).items():
        assert abs(rep.values[functional] - oracle) <= rep.error_bounds[functional], functional


def rotar_gap(alpha, beta, sigma):
    """_rotar_left's F - Phi on one piece."""
    return lambda x: alpha * x + beta - float(ndtr(x / sigma))


class TestBrentq:
    """The private Brent root finder against scipy.optimize.brentq, bit for bit."""

    @staticmethod
    def outcome(solver, f, a, b, **kw):
        try:
            return solver(f, a, b, **kw)
        except (ValueError, RuntimeError) as err:
            return type(err)

    def test_rotar_gap_brackets(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(2022)
        checked = 0
        while checked < 10_000:
            sigma = 10.0 ** rng.uniform(-1.0, 1.0)
            # slopes above and below the density's peak 1/(sigma sqrt(2 pi))
            alpha = rng.uniform(0.0, 1.5) / (sigma * math.sqrt(2.0 * math.pi))
            root = -sigma * rng.uniform(0.0, 6.0)
            beta = float(ndtr(root / sigma)) - alpha * root
            gap = rotar_gap(alpha, beta, sigma)
            u = root - sigma * 10.0 ** rng.uniform(-8.0, 0.5)
            v = min(root + sigma * 10.0 ** rng.uniform(-8.0, 0.5), 0.0)
            if not gap(u) * gap(v) < 0.0:
                continue
            assert cond._brentq(gap, u, v) == brentq(gap, u, v), (alpha, beta, sigma, u, v)
            checked += 1

    def test_cubic_brackets(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(7)
        for _ in range(1_000):
            c, d = rng.uniform(0.0, 3.0), rng.uniform(-10.0, 10.0)
            cubic = lambda x: x ** 3 + c * x - d
            u, v = rng.uniform(-10.0, -3.0), rng.uniform(3.0, 10.0)
            assert cond._brentq(cubic, u, v) == brentq(cubic, u, v)

    def test_edge_cases_as_scipy(self):
        from scipy.optimize import brentq

        line = lambda x: x - 1.0
        gap = rotar_gap(0.1, 0.6, 1.0)
        hole = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
        cases = [
            (line, 1.0, 3.0, 1.0),        # root at the left end
            (line, -1.0, 1.0, 1.0),       # root at the right end
            (line, 2.0, 3.0, ValueError),  # same signs
            (lambda x: math.nan, 0.0, 1.0, ValueError),
            (hole, -1.0, 2.0, ValueError),  # NaN met inside the bracket
        ]
        for f, a, b, want in cases:
            assert self.outcome(cond._brentq, f, a, b) == want
            assert self.outcome(brentq, f, a, b) == want
        # maxiter: the same root, or the same RuntimeError, at every budget
        outcomes = [self.outcome(cond._brentq, gap, -6.0, 0.0, maxiter=m) for m in range(12)]
        assert outcomes == [self.outcome(brentq, gap, -6.0, 0.0, maxiter=m) for m in range(12)]
        assert outcomes[0] is RuntimeError and isinstance(outcomes[-1], float)


class TestShiryaevRow:
    def test_feller_is_half_everywhere(self):
        for n in (2, 4, 8, 16, 32, 128):
            assert feller(SHIRYAEV, n) == 0.5

    def test_lindeberg_frozen_against_quadrature(self):
        got = lindeberg(SHIRYAEV, 4, 0.5)
        assert got == pytest.approx(0.8028603711703581, abs=1e-12)
        # oracle: sum of normal truncated second moments, sigma^2 = 2^(j-1-4)
        oracle = 0.0
        for j in range(1, 5):
            s2 = 2.0 ** ((1 - 4) if j == 1 else (j - 1 - 4))
            pdf = lambda x, s2=s2: math.exp(-x * x / (2 * s2)) / math.sqrt(2 * math.pi * s2)
            v, _ = integrate.quad(lambda x, p=pdf: x * x * p(x), 0.5, 50.0,
                                  epsabs=1e-14, limit=300)
            oracle += 2.0 * v
        assert got == pytest.approx(oracle, abs=1e-11)

    def test_lindeberg_never_vanishes(self):
        # the top entry keeps variance 1/2, so mass escapes every threshold
        vals = [lindeberg(SHIRYAEV, n, 0.5) for n in (4, 8, 16, 32)]
        assert all(v >= 0.5 * vals[0] for v in vals)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestRareJumpRow:
    def test_closed_forms(self):
        for n in (4, 9, 50):
            # jump atom at 1 carries mass 1/(n+1) per entry
            assert lindeberg(RARE, n, 0.5) == pytest.approx(n / (n + 1.0), rel=1e-13)
            assert feller(RARE, n) == pytest.approx(1.0 / n, rel=1e-13)

    def test_lindeberg_below_small_value_atom(self):
        # eps under 1/n captures both atoms, so the sum is the full row
        # variance: n/(n+1) from the jumps plus 1/(n+1) from the -1/n atoms
        assert lindeberg(RARE, 4, 0.2) == pytest.approx(1.0, rel=1e-13)


class TestRandomizedReduction:
    """A deterministic index must reproduce the classical functionals."""

    TAGS = (
        ("RL", {"epsilon": 0.5}, lambda a, n: lindeberg(a, n, 0.5)),
        ("RLambda", {"delta": 1.0}, lambda a, n: lyapunov(a, n, 1.0)),
        ("RF", {}, lambda a, n: feller(a, n)),
        ("RI", {"epsilon": 0.5}, lambda a, n: infinitesimality(a, n, 0.5)),
        ("RR", {"epsilon": 0.5}, lambda a, n: rotar(a, n, 0.5)),
        ("R-sigma-star", {}, lambda a, n: sigma_star(a, n)),
    )

    @pytest.mark.parametrize("array", [RAD4, UNI4, SHIRYAEV, RARE], ids=lambda a: a.label)
    @pytest.mark.parametrize("n", [4, 16])
    def test_all_tags(self, array, n):
        idx = Deterministic(array.row_length(n))
        for tag, kw, classical in self.TAGS:
            assert randomized(tag, array, idx, n, **kw) == pytest.approx(
                classical(array, n), abs=1e-10
            )

    def test_reduction_is_exact_in_truncation(self):
        d = randomized_detailed("RL", RAD4, Deterministic(4), 4, epsilon=0.5)
        assert d.truncation_k == 4
        assert d.remainder_bound == 0.0


class TestRandomizedMixtures:
    def test_finite_index_is_a_convex_combination(self):
        idx = FiniteIndex([2, 5, 7], [0.3, 0.5, 0.2])
        for tag, kw in (("RL", {"epsilon": 0.4}), ("RF", {}), ("RLambda", {"delta": 0.5})):
            mix = randomized(tag, UNI4, idx, 6, **kw)
            parts = sum(
                p * randomized(tag, UNI4, Deterministic(k), 6, **kw)
                for k, p in [(2, 0.3), (5, 0.5), (7, 0.2)]
            )
            assert mix == pytest.approx(parts, rel=1e-12)

    def test_max_type_mixture_uses_running_max(self):
        # RF over a prefix is the running max of variances, not the last one
        idx = FiniteIndex([1, 4], [0.5, 0.5])
        got = randomized("RF", SHIRYAEV, idx, 4)
        # prefix maxima: j<=1 -> 1/8; j<=4 -> 1/2
        assert got == pytest.approx(0.5 * 0.125 + 0.5 * 0.5, rel=1e-13)

    def test_truncation_remainder_is_reported(self):
        d = randomized_detailed("RL", RAD4, Geometric(0.5), 4, epsilon=0.5, eta=1e-6)
        # entries are bounded, so the neglected tail is ~ eta * value scale
        assert 0.0 < d.remainder_bound < 1e-4
        assert d.value <= 1.0 + 1e-12

    def test_mixture_rounding_is_in_the_error_bound(self):
        # E[nu] / 17 exactly: each rare-jump entry of row 16 contributes
        # 1/17 at eps = 1/2.  The truncated tail alone (K = 357) misses it
        # by 3.1e-14; the rounding of the K-term mixture covers the rest
        d = randomized_detailed(
            "RL", make_rare_jump_array(), Geometric.from_mean(16.0), 16, epsilon=0.5
        )
        assert d.truncation_k == 357
        gap = abs(Fraction(d.value) - Fraction(16, 17))
        assert gap > Fraction(d.remainder_bound)
        assert gap <= Fraction(d.error_bound)
        assert d.error_bound == d.remainder_bound + d.rounding_bound

    def test_divergent_mixture_reports_inf_remainder(self):
        # doubling variances outrun the geometric tail: no finite majorant
        d = randomized_detailed("RF", SHIRYAEV, Geometric(0.5), 4)
        assert math.isfinite(d.value)
        assert math.isinf(d.remainder_bound)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known fault: the tail walk stops on a cut relative to the inner "
        "value, and the terms it drops exceed the remainder bound",
    )
    def test_growing_row_remainder_covers_the_exact_value(self):
        # row 4 of the Shiryaev array has variances 1/8, 1/8, 1/4, 1/2 and
        # 2^(k-2)/8 past the row, so with nu = 1 + N, N ~ Poisson(3),
        # RF = E[2^N]/16 + P(N = 0) (1/8 - 1/16) = e^3/16 + (1/8 - 1/16)/e^3.
        # The walk leaves out 3.34e-13 more than value + error_bound covers
        d = randomized_detailed("RF", SHIRYAEV, ShiftedPoisson(4.0), 4)
        with mpmath.workdps(40):
            e3 = mpmath.exp(3)
            exact = e3 / 16 + (mpmath.mpf(1) / 8 - mpmath.mpf(1) / 16) / e3
            assert abs(exact - d.value) <= d.error_bound

    def test_poisson_index_value_against_direct_sum(self):
        idx = ShiftedPoisson(6.0)
        trunc = idx.truncation(1e-10)
        ks = np.arange(1, trunc + 1)
        pmf = np.asarray(idx.pmf(ks), dtype=float)
        # direct recomputation: prefix Lindeberg sums of the i.i.d. row 8
        per = UNI4.entry(8, 1).truncated_second_moment(0.25)
        prefix = per * ks
        got = randomized("RL", UNI4, idx, 8, epsilon=0.25)
        assert got == pytest.approx(float(np.dot(pmf, prefix)), rel=1e-12)


class TestImplicationSuite:
    def test_classical_chain_rademacher(self):
        checks = implication_suite(RAD4, None, [4, 16], [0.1, 0.5, 1.0], [0.5, 1.0])
        assert len(checks) == 2 * 3 * 2 * 3
        assert all(c.ok for c in checks)
        names = {c.name for c in checks}
        assert names == {
            "lindeberg<=eps^-delta*lyapunov",
            "feller<=eps^2+lindeberg",
            "infinitesimality<=feller/eps^2",
        }

    def test_randomized_chain_included(self):
        checks = implication_suite(
            RARE, lambda n: ShiftedPoisson(float(n)), [4, 8], [0.5], [1.0]
        )
        rand = [c for c in checks if c.name.startswith("rand_")]
        assert len(rand) == 2 * 3
        assert all(c.ok for c in rand)
        assert all(c.index_descriptor is not None for c in rand)

    def test_divergent_chain_passes_as_inf(self):
        # shiryaev x geometric at n=64: the truncated index range reaches
        # positions whose variance ratio 2^(j-1-k) leaves float range, so
        # both sides of the sum-type inequalities saturate; inf <= inf is
        # the honest verdict and slack is nan there
        checks = implication_suite(
            SHIRYAEV, lambda n: Geometric.from_mean(float(n)), [64], [0.5], [1.0]
        )
        rand = {c.name: c for c in checks if c.name.startswith("rand_")}
        lhs = rand["rand_lindeberg<=eps^-delta*lyapunov"]
        assert math.isinf(lhs.lhs) and math.isinf(lhs.rhs) and lhs.ok

    def test_slack_sign_convention(self):
        c = implication_suite(RAD4, None, [4], [1.0], [1.0])[0]
        assert c.slack == pytest.approx(c.rhs - c.lhs)


class TestSeriesSuite:
    @staticmethod
    def generic_reference(array, index, eps_grid, delta_grid):
        """(lhs, rhs) of every check, from the row functionals mixed over k."""
        ks = np.arange(1, index.truncation(cond.DEFAULT_ETA) + 1)
        pmf = np.asarray(index.pmf(ks), dtype=float)

        def mix(row_value):
            return float(np.dot(pmf, [row_value(int(k)) for k in ks]))

        fel = mix(lambda k: feller(array, k))
        out = []
        for eps in eps_grid:
            lind = mix(lambda k: lindeberg(array, k, eps))
            infi = mix(lambda k: infinitesimality(array, k, eps))
            for delta in delta_grid:
                lyap = mix(lambda k: lyapunov(array, k, delta))
                out += [(lind, eps ** (-delta) * lyap), (fel, eps * eps + lind),
                        (infi, fel / (eps * eps))]
        return out

    def test_fast_path_matches_generic(self, monkeypatch):
        eps_grid, delta_grid = [0.3, 1.0], [1.0]
        idx = Geometric(0.5)
        arr = from_series(shiryaev_series())
        calls = count_calls(monkeypatch, cond, "_normal_series_row_values")
        fast = series_implication_suite(arr, idx, eps_grid, delta_grid)
        assert len(calls) == 1
        expected = self.generic_reference(arr, idx, eps_grid, delta_grid)
        assert len(fast) == len(expected) == 6
        for check, (lhs, rhs) in zip(fast, expected):
            assert check.lhs == pytest.approx(lhs, rel=1e-9)
            assert check.rhs == pytest.approx(rhs, rel=1e-9)
        assert all(c.ok for c in fast)

    def test_non_normal_members_take_the_generic_path(self, monkeypatch):
        eps_grid, delta_grid = [0.3, 1.0], [1.0]
        idx = Geometric(0.5)
        arr = from_series(SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp"))
        calls = count_calls(monkeypatch, cond, "_normal_series_row_values")
        checks = series_implication_suite(arr, idx, eps_grid, delta_grid)
        assert calls == []
        expected = self.generic_reference(arr, idx, eps_grid, delta_grid)
        assert [(c.lhs, c.rhs) for c in checks] == expected
        assert all(c.ok for c in checks)

    def test_longer_rows_take_the_generic_path(self, monkeypatch):
        # row k of a "2n" array spans positions 1..2k, which the closed form
        # (row k = positions 1..k) does not describe
        eps_grid, delta_grid = [0.5], [1.0]
        idx = Geometric(0.5)
        arr = from_series(shiryaev_series(), rows="2n")
        calls = count_calls(monkeypatch, cond, "_normal_series_row_values")
        checks = series_implication_suite(arr, idx, eps_grid, delta_grid)
        assert calls == []
        expected = self.generic_reference(arr, idx, eps_grid, delta_grid)
        assert [(c.lhs, c.rhs) for c in checks] == expected
        lind, fel = checks[0].lhs, checks[1].lhs
        assert lind == pytest.approx(0.8476149741403859, rel=1e-12)
        assert fel == pytest.approx(0.5, abs=1e-9)

    def test_series_chain_holds_deep(self):
        checks = series_implication_suite(
            from_series(shiryaev_series()),
            Geometric.from_mean(64.0),
            [0.1, 1.0],
            [0.5, 1.0],
        )
        assert all(c.ok for c in checks)
        assert all(c.name.startswith("series_") for c in checks)


class TestEvaluateReport:
    def test_classical_fields(self):
        rep = evaluate_report(RAD4, 4, 0.5, 1.0)
        assert rep.values["lindeberg"] == pytest.approx(1.0)
        assert rep.values["feller"] == pytest.approx(0.25)
        assert rep.values["rotar"] >= 0.0
        assert rep.error_bounds["rotar"] == pytest.approx(rotar_error_bound(4))
        assert "rand_lindeberg" not in rep.values

    def test_randomized_fields_and_csv(self):
        rep = evaluate_report(RAD4, 4, 0.5, 1.0, index=ShiftedPoisson(4.0))
        assert rep.values["rand_feller"] <= rep.values["feller"] + 1e-12
        rows = rep.csv_rows()
        names = [r[4] for r in rows]
        assert "rand_rotar" in names and "sigma_star" in names
        d = rep.to_json_dict()
        assert d["n"] == 4 and "values" in d and "error_bounds" in d

    def test_report_functionals_are_the_emitted_names(self):
        # studies validate their functional names against this declaration
        rep = evaluate_report(RAD4, 4, 0.5, 1.0, index=ShiftedPoisson(4.0))
        assert {name.split("@")[0] for name in rep.values} == set(REPORT_FUNCTIONALS)
        assert len(REPORT_FUNCTIONALS) == len(set(REPORT_FUNCTIONALS))

    def test_only_the_asked_functionals(self):
        rep = evaluate_report(
            RAD4, 4, 0.5, 1.0, index=ShiftedPoisson(4.0),
            functionals=("feller", "cf_deviation", "rand_feller"),
        )
        assert set(rep.values) == {
            "feller", "cf_deviation@t=0.5", "cf_deviation@t=1", "cf_deviation@t=2",
            "rand_feller",
        }
        full = evaluate_report(RAD4, 4, 0.5, 1.0, index=ShiftedPoisson(4.0))
        for name, value in rep.values.items():
            assert value == full.values[name]
            assert rep.error_bounds.get(name) == full.error_bounds.get(name)
        with pytest.raises(ValueError, match="unknown functionals"):
            evaluate_report(RAD4, 4, 0.5, 1.0, functionals=("rotor",))


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test's duration; returns the list of calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestRowKernel:
    """Each distinct entry law is evaluated once per functional call."""

    EXP = make_iid_array(CenteredExponential(1.0))

    def test_quadrature_count_does_not_grow_with_the_row(self, monkeypatch):
        calls = count_calls(monkeypatch, integrate, "quad")
        counts = []
        for n in (16, 256):
            del calls[:]
            # a threshold in units of the entry scale 1/sqrt(n) poses the
            # same per-law integrals at every n, so only per-position work
            # could make the counts differ
            eps = 1.2 / math.sqrt(n)
            evaluate_report(self.EXP, n, eps, 1.0, index=ShiftedPoisson(float(n)))
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize(
        "array,quadrature",
        [
            (UNI4, False),
            (make_iid_array(TwoPoint(-1.0, 2.0, 2.0 / 3.0)), False),
            (RARE, False),
            (SHIRYAEV, False),
            (EXP, True),  # no closed form: the quadrature fallback stays covered
        ],
        ids=lambda v: getattr(v, "label", v),
    )
    def test_quadrature_only_without_a_closed_form(self, monkeypatch, array, quadrature):
        calls = count_calls(monkeypatch, integrate, "quad")
        rep = evaluate_report(array, 16, 0.3, 1.0, index=ShiftedPoisson(16.0))
        assert {"rotar", "rand_rotar", "infinitesimality_ratio"} <= set(rep.values)
        assert bool(calls) == quadrature

    def test_unreported_functionals_are_not_evaluated(self, monkeypatch):
        calls = count_calls(monkeypatch, cond, "_rotar_entry")
        rep = evaluate_report(
            self.EXP, 16, 0.3, 1.0, index=ShiftedPoisson(16.0), functionals=("lyapunov",)
        )
        assert set(rep.values) == {"lyapunov"}
        assert calls == []

    def test_tail_walk_reuses_the_prefix_evaluations(self, monkeypatch):
        calls = count_calls(monkeypatch, cond, "_rotar_entry")
        detail = randomized_detailed("RR", UNI4, ShiftedPoisson(4.0), 4, epsilon=0.3)
        # one law for the whole row, beyond the row as well
        assert len(calls) == 1
        assert detail.remainder_bound > 0.0
        del calls[:]
        rotar(UNI4, 4, 0.3)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "array", [SHIRYAEV, RARE, from_series(shiryaev_series()), UNI4]
    )
    def test_reductions_keep_position_order(self, array):
        # the sums added left to right and the max taken in row order
        def left_to_right(values):
            total = 0.0
            for value in values:
                total += value
            return total

        n, eps = 6, 0.3
        entries = [array.entry(n, j) for j in range(1, array.row_length(n) + 1)]
        assert lindeberg(array, n, eps) == left_to_right(
            d.truncated_second_moment(eps) for d in entries
        )
        assert lyapunov(array, n, 0.5) == left_to_right(d.abs_moment(2.5) for d in entries)
        assert feller(array, n) == max(d.variance for d in entries)
        assert sigma_star(array, n) == max(d.std for d in entries)
        assert rotar(array, n, eps) == left_to_right(cond._rotar_entry(d, eps) for d in entries)


class TestEntryCalls:
    """Row consumers read runs: one-law rows need no per-position entry."""

    @pytest.mark.parametrize(
        "array,n", [(make_iid_array(Uniform(-1.0, 1.0)), 10_000), (RARE, 64)]
    )
    def test_one_law_reports_build_no_entry(self, monkeypatch, array, n):
        calls = count_calls(monkeypatch, TriangularArray, "entry")
        rep = evaluate_report(array, n, 0.5, 1.0, index=ShiftedPoisson(float(n)))
        assert set(rep.values) >= {"rand_rotar", "rotar", "cf_deviation@t=1"}
        assert calls == []

    def test_tail_walk_builds_no_entry_past_its_stop(self, monkeypatch):
        calls = count_calls(monkeypatch, TriangularArray, "entry")
        walk = cond._tail_extension
        pulled = []

        def counted_walk(values, *args):
            def counted():
                for value in values:
                    pulled.append(value)
                    yield value

            return walk(counted(), *args)

        monkeypatch.setattr(cond, "_tail_extension", counted_walk)
        detail = randomized_detailed("RF", make_shiryaev_array(), ShiftedPoisson(4.0), 4)
        assert len(pulled) > 0
        positions = [j for _, n, j in calls]
        assert max(positions) == detail.truncation_k + len(pulled)


class TestRowValidation:
    """Each row is validated once per array, however many functionals read it."""

    def test_one_validation_per_row(self, monkeypatch):
        calls = count_calls(monkeypatch, TriangularArray, "validate")
        array = make_shiryaev_array()
        evaluate_report(array, 8, 0.5, 1.0, index=ShiftedPoisson(8.0))
        assert [n for _, n in calls] == [8]
        evaluate_report(array, 8, 0.3, 1.0, index=ShiftedPoisson(8.0))
        feller(array, 8)
        lindeberg(array, 16, 0.5)
        assert [n for _, n in calls] == [8, 16]

    def test_invalid_rows_raise_on_every_call(self, monkeypatch):
        class HalfVariance(TriangularArray):
            def _entry(self, n, j):
                return Normal(0.0, 0.5 / n)

        calls = count_calls(monkeypatch, TriangularArray, "validate")
        array = HalfVariance()
        for _ in range(2):
            with pytest.raises(cond.InvalidRowError):
                feller(array, 4)
        assert len(calls) == 1

    def test_threads_racing_on_new_rows_agree(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rows = [4, 8, 16, 32] * 4
        array = from_series(shiryaev_series())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                reports = list(pool.map(
                    lambda n: evaluate_report(array, n, 0.5, 1.0,
                                              functionals=("feller",)).to_json_dict(),
                    rows, timeout=60,
                ))
        finally:
            sys.setswitchinterval(interval)
        fresh = from_series(shiryaev_series())
        for n, report in zip(rows, reports):
            assert report == evaluate_report(fresh, n, 0.5, 1.0, functionals=("feller",)).to_json_dict()
            assert array.validation(n) == fresh.validate(n)


class TestFunctionalTable:
    """Each functional is declared once; the report and the chain read it."""

    def test_tags_and_report_names_come_from_the_table(self):
        tagged = [name for name, spec in cond.FUNCTIONALS.items() if spec.tag]
        assert cond.RANDOMIZED_TAGS == tuple(cond.FUNCTIONALS[n].tag for n in tagged)
        assert REPORT_FUNCTIONALS == (
            *cond.FUNCTIONALS, *(f"rand_{name}" for name in tagged)
        )

    def test_error_bound_keys(self):
        rep = evaluate_report(UNI4, 4, 0.5, 1.0, index=ShiftedPoisson(4.0))
        rand = {name for name in rep.values if name.startswith("rand_")}
        assert set(rep.error_bounds) == {
            "lindeberg", "lyapunov", "infinitesimality_ratio", "rotar", *rand
        }
        assert rep.error_bounds["lindeberg"] == 4 * cond.QUAD_ABS_TOL
        detail = randomized_detailed("RR", UNI4, ShiftedPoisson(4.0), 4, epsilon=0.5)
        assert rep.error_bounds["rand_rotar"] == detail.error_bound + rotar_error_bound(
            detail.truncation_k
        )
        # the moment mixtures carry the quadrature allowance of their K
        # per-law moments, as the classical keys carry it over the row
        for key, tag, param in (("rand_lindeberg", "RL", {"epsilon": 0.5}),
                                ("rand_lyapunov", "RLambda", {"delta": 1.0})):
            detail = randomized_detailed(tag, UNI4, ShiftedPoisson(4.0), 4, **param)
            assert rep.error_bounds[key] == (
                detail.error_bound + detail.truncation_k * cond.QUAD_ABS_TOL
            )

    def test_chain_reads_each_pair_once(self, monkeypatch):
        # the implication chain of the selfcheck: two thresholds of each kind
        arr = make_iid_array(Rademacher())
        law_type = type(next(arr.runs(2))[0])
        rand_calls = count_calls(monkeypatch, cond, "randomized_detailed")
        moment_calls = count_calls(monkeypatch, law_type, "abs_moment")
        for n in (2, 6):
            del rand_calls[:], moment_calls[:]
            checks = implication_suite(arr, Geometric(0.5), [n], (0.25, 1.0), (0.5, 1.0))
            assert len(checks) == 2 * 2 * 2 * 3 and all(c.ok for c in checks)
            # RF once, RL and RI per epsilon, RLambda per delta
            assert len(rand_calls) == 7
            # lyapunov and RLambda per delta, not per (epsilon, delta)
            assert len(moment_calls) == 4
