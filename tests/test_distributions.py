"""Distribution primitives against independent quadrature and enumeration."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import nbinom, poisson

import randsum.distributions as distributions_module
from randsum.arrays import array_from_config, make_iid_array
from randsum.distributions import (
    DISTRIBUTION_FAMILIES,
    CenteredExponential,
    Deterministic,
    DistributionError,
    FiniteDiscrete,
    FiniteIndex,
    Geometric,
    Normal,
    Rademacher,
    ShiftedNegativeBinomial,
    ShiftedPoisson,
    TwoPoint,
    Uniform,
    distribution_from_config,
    index_from_config,
    merge_atoms,
    scale,
    shift,
)
from randsum.metrics import SumLaw, _mixture


def quad_tsm(pdf, eps, hi):
    # independent oracle for E[X^2 1{|X| >= eps}] on symmetric laws
    v, _ = integrate.quad(lambda x: x * x * pdf(x), eps, hi, epsabs=1e-14, limit=300)
    return 2.0 * v


class TestNormal:
    def test_cdf_against_erf(self):
        n = Normal(0.5, 4.0)
        xs = np.linspace(-6.0, 7.0, 41)
        expected = 0.5 * (1.0 + np.vectorize(math.erf)((xs - 0.5) / (2.0 * math.sqrt(2.0))))
        assert np.allclose(n.cdf(xs), expected, atol=1e-14)

    def test_truncated_second_moment_quadrature(self):
        n = Normal(0.0, 2.25)
        pdf = lambda x: math.exp(-x * x / 4.5) / math.sqrt(4.5 * math.pi)
        for eps in (0.1, 1.0, 3.0):
            assert n.truncated_second_moment(eps) == pytest.approx(
                quad_tsm(pdf, eps, 60.0), abs=1e-12
            )

    def test_tsm_at_zero_is_second_moment(self):
        n = Normal(1.0, 2.0)
        assert n.truncated_second_moment(0.0) == pytest.approx(3.0, abs=1e-12)

    def test_abs_moment_closed_form(self):
        n = Normal(0.0, 4.0)
        # E|X|^3 = sigma^3 * 2 sqrt(2/pi)
        assert n.abs_moment(3.0) == pytest.approx(8.0 * 2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_char_fn(self):
        n = Normal(0.25, 2.0)
        t = 1.3
        assert n.char_fn(t) == pytest.approx(
            complex(math.cos(0.25 * t), math.sin(0.25 * t)) * math.exp(-0.5 * 2.0 * t * t),
            abs=1e-14,
        )

    def test_infinite_variance_limits(self):
        # the saturated law used by divergent prefix extensions
        n = Normal(0.0, math.inf)
        assert n.truncated_second_moment(0.5) == math.inf
        assert n.abs_moment(3.0) == math.inf
        assert float(n.cdf(3.0)) == 0.5

    def test_infinite_variance_off_center(self):
        n = Normal(1.0, math.inf)
        assert n.truncated_second_moment(0.5) == math.inf
        assert n.abs_moment(3.0) == math.inf
        # the recursion would give nan
        with pytest.raises(DistributionError):
            n.partial_moments(0.0, math.inf, 0.0, 2)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DistributionError):
            Normal(0.0, 0.0)


class TestRatioMoment:
    """E[X^2 / (1 + X^2)] against 30-digit quadrature, within the 1e-10
    the condition report allows a per-entry value and 1e-13 relative."""

    @staticmethod
    def check(law, oracle):
        got = law.ratio_moment()
        assert abs(got - float(oracle)) <= 1e-10
        assert got == pytest.approx(float(oracle), rel=1e-13)

    @pytest.mark.parametrize("log2_var", [-40, -31, -10, -2, 0, 4])
    def test_centered_normal(self, log2_var):
        # the moment series below 2^-7, the erfcx form above
        with mpmath.workdps(30):
            v = mpmath.mpf(2) ** log2_var
            f = lambda z: v * z * z / (1 + v * z * z) * mpmath.npdf(z)
            self.check(Normal(0.0, 2.0 ** log2_var), mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]))

    @pytest.mark.parametrize("low,high", [(-1e-4, 1e-4), (-0.3, 0.3), (-1.0, 1.0),
                                          (-50.0, 50.0), (-0.5, 2.0)])
    def test_uniform(self, low, high):
        # the moment series on [-1/2, 1/2], the arctangent form beyond
        with mpmath.workdps(30):
            lo, hi = mpmath.mpf(low), mpmath.mpf(high)
            f = lambda x: x * x / (1 + x * x)
            self.check(Uniform(low, high), mpmath.quad(f, [lo, 0, hi]) / (hi - lo))

    def test_other_laws_keep_the_generic_expectation(self):
        for law in (Normal(0.5, 2.0), CenteredExponential(2.0), TwoPoint(-1.0, 2.0, 2.0 / 3.0)):
            assert law.ratio_moment() == law.expectation(
                lambda x: np.square(x) / (1.0 + np.square(x)))


class TestUniform:
    def test_moments(self):
        u = Uniform(-1.0, 3.0)
        assert u.mean == pytest.approx(1.0)
        assert u.variance == pytest.approx(16.0 / 12.0)

    def test_truncated_second_moment_quadrature(self):
        u = Uniform(-2.0, 2.0)
        pdf = lambda x: 0.25 if abs(x) <= 2.0 else 0.0
        for eps in (0.5, 1.5):
            assert u.truncated_second_moment(eps) == pytest.approx(
                quad_tsm(pdf, eps, 2.0), abs=1e-12
            )

    def test_truncated_second_moment_of_iid_rows_against_mpmath(self):
        # the entries of the i.i.d. uniform array: Uniform(-h, h), h = sqrt(3/n)
        with mpmath.workdps(40):
            for n in range(1, 400):
                u = make_iid_array(Uniform(-1.0, 1.0)).entry(n, 1)
                lo, hi = mpmath.mpf(u.low), mpmath.mpf(u.high)
                for eps in (1e-3, 0.1, 0.25, 0.3, 0.5, 1.0, 2.0):
                    t = mpmath.mpf(eps)
                    # integral of x^2 / (hi - lo) over |x| >= t on [lo, hi]
                    left = max(min(hi, -t) ** 3 - lo ** 3, 0)
                    right = max(hi ** 3 - max(lo, t) ** 3, 0)
                    exact = (left + right) / (3 * (hi - lo))
                    got = u.truncated_second_moment(eps)
                    assert abs(got - exact) <= 1e-15 * exact, (n, eps)

    def test_char_fn_sinc(self):
        u = Uniform(-1.0, 1.0)
        t = 2.7
        assert u.char_fn(t) == pytest.approx(math.sin(t) / t, abs=1e-14)


class TestAtomicFamilies:
    def test_rademacher(self):
        r = Rademacher()
        assert r.mean == 0.0
        assert r.variance == 1.0
        # non-strict threshold: the atom at 1 counts when eps == 1
        assert r.truncated_second_moment(1.0) == pytest.approx(1.0)
        assert r.truncated_second_moment(1.0 + 1e-12) == 0.0
        assert r.char_fn(0.7) == pytest.approx(math.cos(0.7), abs=1e-15)

    def test_two_point_zero_mean(self):
        # the rare-jump entry at k = 4
        d = TwoPoint(-0.25, 1.0, 0.8)
        assert d.mean == pytest.approx(0.0, abs=1e-15)
        assert d.variance == pytest.approx(0.25, abs=1e-15)

    def test_two_point_cdf_left_continuity(self):
        d = TwoPoint(-1.0, 2.0, 0.5)
        # cdf is P(X < x): excludes an atom at the evaluation point
        assert float(d.cdf(-1.0)) == 0.0
        assert float(d.prob_le(-1.0)) == 0.5
        assert float(d.cdf(2.0)) == 0.5
        assert float(d.prob_le(2.0)) == 1.0

    def test_finite_discrete_moments(self):
        d = FiniteDiscrete([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        assert d.mean == pytest.approx(0.0)
        assert d.variance == pytest.approx(0.25 * 4.0 + 0.5)
        assert d.abs_moment(3.0) == pytest.approx(0.25 * 8.0 + 0.5)

    def test_centered_exponential(self):
        e = CenteredExponential(2.0)
        assert e.mean == pytest.approx(0.0, abs=1e-15)
        assert e.variance == pytest.approx(0.25)
        # support is [-1/2, inf): only the right tail reaches |x| >= 1
        pdf = lambda x: 2.0 * math.exp(-2.0 * (x + 0.5)) if x >= -0.5 else 0.0
        v, _ = integrate.quad(lambda x: x * x * pdf(x), 1.0, 40.0, epsabs=1e-14, limit=300)
        assert e.truncated_second_moment(1.0) == pytest.approx(v, abs=1e-10)


# (law, its atoms as rng.choice takes them); the masses sum to 1 exactly,
# so the laws keep them as given, the zero masses included
ATOMIC_SAMPLERS = [
    (TwoPoint(-0.25, 1.0, 0.8), [-0.25, 1.0], [0.8, 0.19999999999999996]),
    (scale(Rademacher(), 0.5), [-0.5, 0.5], [0.5, 0.5]),
    (FiniteDiscrete([-2.0, 0.0, 1.0, 3.0], [0.25, 0.0, 0.5, 0.25]),
     [-2.0, 0.0, 1.0, 3.0], [0.25, 0.0, 0.5, 0.25]),
    (FiniteIndex([1, 3, 4, 9], [0.125, 0.0, 0.625, 0.25]),
     np.array([1, 3, 4, 9], dtype=np.int64), [0.125, 0.0, 0.625, 0.25]),
]


class TestSampling:
    """Draws against numpy's own samplers on a twin generator, bit for bit."""

    @pytest.mark.parametrize("law, values, probs", ATOMIC_SAMPLERS,
                             ids=["two-point", "scaled-rademacher", "finite-discrete",
                                  "finite-index"])
    @pytest.mark.parametrize("size", [None, 1, 100_003])
    def test_atomic_draws_are_rng_choice(self, law, values, probs, size):
        rng, twin = np.random.default_rng(29), np.random.default_rng(29)
        got = law.sample(rng, size)
        want = twin.choice(np.asarray(values), size, p=np.asarray(probs))
        assert type(got) is type(want)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        # the same variates were consumed
        assert rng.random() == twin.random()

    def test_scaled_rademacher_is_two_point(self):
        assert isinstance(scale(Rademacher(), 0.5), TwoPoint)

    @pytest.mark.parametrize(
        "law, sign, offset",
        [
            (CenteredExponential(3.0), 1, 0.0),
            (scale(CenteredExponential(1.5), -0.7), -1, 0.0),
            (shift(scale(CenteredExponential(1.0), 2.0), 0.4), 1, 0.4),
            (shift(scale(CenteredExponential(1.5), -0.7), -1.25), -1, -1.25),
        ],
        ids=["centered", "mirrored", "scaled-shifted", "mirrored-shifted"],
    )
    @pytest.mark.parametrize("size", [None, 1, 100_003])
    def test_centered_exponential_draws(self, law, sign, offset, size):
        assert (law.sign, law.offset) == (sign, offset)
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        got = law.sample(rng, size)
        # numpy's exponential at scale 1/rate, mirrored, then moved to the
        # law's finite edge
        want = twin.exponential(1.0 / law.rate, size)
        if sign < 0:
            want = -want
        want = want + law.support()[0 if sign > 0 else 1]
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.float64
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the same variates were consumed
        assert rng.bit_generator.state == twin.bit_generator.state


def exponential_density(rate, factor=1.0, offset=0.0):
    """mpmath density of factor * (E - 1/rate) + offset, E ~ Exp(rate)."""
    rate, factor, offset = (mpmath.mpf(v) for v in (rate, factor, offset))

    def pdf(x):
        y = (x - offset) / factor + 1 / rate
        return rate * mpmath.exp(-rate * y) / abs(factor) if y >= 0 else mpmath.mpf(0)

    return pdf


def normal_density(mean, var):
    """mpmath density of N(mean, var)."""
    mean, var = mpmath.mpf(mean), mpmath.mpf(var)
    return lambda x: mpmath.exp(-(x - mean) ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)


# (law, mpmath density or None for atomic laws, breakpoints of the density)
PARTIAL_MOMENT_LAWS = [
    (Normal(0.3, 2.0), normal_density(0.3, 2.0), [0.3]),
    (Normal(-1.5, 0.25), normal_density(-1.5, 0.25), [-1.5]),
    (Uniform(-1.0, 2.0), lambda x: mpmath.mpf(1) / 3 if -1 <= x <= 2 else 0, [-1.0, 2.0]),
    (CenteredExponential(1.5), exponential_density(1.5), [-1.0 / 1.5]),
    (Rademacher(), None, []),
    (TwoPoint(-0.25, 1.0, 0.8), None, []),
    (FiniteDiscrete([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5]), None, []),
    (scale(CenteredExponential(2.0), -0.7), exponential_density(2.0, -0.7), [0.35]),
    (scale(Uniform(0.0, 1.0), -3.0), lambda x: mpmath.mpf(1) / 3 if -3 <= x <= 0 else 0,
     [-3.0, 0.0]),
    (scale(Rademacher(), 0.5), None, []),
    (shift(CenteredExponential(1.0), 0.4), exponential_density(1.0, 1.0, 0.4), [-0.6]),
]


def partial_moment_oracle(law, pdf, kinks, a, b, center, m):
    """E[(X - center)^m 1{a < X <= b}] in 20 digits."""
    with mpmath.workdps(20):
        c = mpmath.mpf(center)
        if pdf is None:
            vals, probs = law.atoms()
            return sum(mpmath.mpf(p) * (mpmath.mpf(v) - c) ** m
                       for v, p in zip(vals.tolist(), probs.tolist()) if a < v <= b)
        cuts = sorted(x for x in {a, b, *kinks} if a <= x <= b)
        return mpmath.quad(lambda x: (x - c) ** m * pdf(x), [mpmath.mpf(x) for x in cuts])


def abs_moment_oracle(law, pdf, kinks, order):
    # |x|^order = x^order above 0 and (-x)^order below
    return (partial_moment_oracle(law, pdf, kinks, 0.0, math.inf, 0.0, order)
            + (-1) ** order * partial_moment_oracle(law, pdf, kinks, -math.inf, 0.0, 0.0, order))


def tsm_oracle(law, pdf, kinks, threshold):
    return (partial_moment_oracle(law, pdf, kinks, -math.inf, -threshold, 0.0, 2)
            + partial_moment_oracle(law, pdf, kinks, threshold, math.inf, 0.0, 2))


class TestPartialMoments:
    """E[(X - c)^m 1{a < X <= b}] against 20-digit quadrature and atom sums."""

    INTERVALS = [(-math.inf, math.inf), (-math.inf, 0.2), (0.2, math.inf), (-0.5, 1.3),
                 (-3.0, -1.0)]

    @pytest.mark.parametrize("law, pdf, kinks", PARTIAL_MOMENT_LAWS,
                             ids=[repr(law) for law, _, _ in PARTIAL_MOMENT_LAWS])
    def test_against_mpmath(self, law, pdf, kinks):
        for a, b in self.INTERVALS:
            # both off every law's mean
            for center in (0.7, -1.9):
                got = law.partial_moments(a, b, center, 3)
                assert len(got) == 4
                reach = 1.0 + abs(law.mean - center) + law.std
                for m in range(4):
                    ref = partial_moment_oracle(law, pdf, kinks, a, b, center, m)
                    assert abs(got[m] - float(ref)) <= 1e-14 * reach ** m, (a, b, center, m)
                for degree in range(3):
                    assert law.partial_moments(a, b, center, degree) == got[: degree + 1]

    def test_empty_interval_and_degree_range(self):
        law = Normal(0.0, 1.0)
        assert law.partial_moments(1.0, 1.0, 0.0, 2) == [0.0, 0.0, 0.0]
        assert law.partial_moments(2.0, -2.0, 0.0, 0) == [0.0]
        assert Uniform(0.0, 1.0).partial_moments(2.0, 3.0, 0.0, 1) == [0.0, 0.0]
        assert CenteredExponential(1.0).partial_moments(-3.0, -2.0, 0.0, 1) == [0.0, 0.0]
        for degree in (-1, 4):
            with pytest.raises(DistributionError):
                law.partial_moments(0.0, 1.0, 0.0, degree)

    def test_law_without_a_closed_form_raises(self):
        class Logistic(distributions_module.ScalarDistribution):
            family = "logistic"
            mean, variance = 0.0, math.pi ** 2 / 3.0

            def pdf(self, x):
                return 0.25 / np.cosh(0.5 * np.asarray(x, dtype=float)) ** 2

        law = Logistic()
        for moment in (lambda: law.partial_moments(0.0, 1.0, 0.0, 1),
                       lambda: law.truncated_second_moment(0.5),
                       lambda: law.abs_moment(2.0)):
            with pytest.raises(DistributionError, match="no closed-form partial moments"):
                moment()

    @pytest.mark.parametrize("rate", [1.0, 4.0, 16.0])
    def test_exponential_moments_leave_quadrature(self, monkeypatch, rate):
        # the lyapunov (delta = 1) and lindeberg values of the exponential plan
        monkeypatch.setattr(distributions_module, "_quad", None)
        law = CenteredExponential(rate)
        pdf, kinks = exponential_density(rate), [-1.0 / rate]
        third = abs_moment_oracle(law, pdf, kinks, 3)
        assert law.abs_moment(3.0) == pytest.approx(float(third), rel=4e-16)
        tsm = tsm_oracle(law, pdf, kinks, 0.3)
        assert law.truncated_second_moment(0.3) == pytest.approx(float(tsm), rel=4e-16)

    def test_integer_moments_of_other_laws_leave_quadrature(self, monkeypatch):
        monkeypatch.setattr(distributions_module, "_quad", None)
        for law, pdf, kinks in PARTIAL_MOMENT_LAWS:
            if pdf is None:
                continue
            for order in (1, 2, 3):
                ref = abs_moment_oracle(law, pdf, kinks, order)
                assert law.abs_moment(float(order)) == pytest.approx(float(ref), rel=1e-14)
            ref = tsm_oracle(law, pdf, kinks, 0.5)
            assert law.truncated_second_moment(0.5) == pytest.approx(float(ref), rel=1e-14)


class TestFractionalAbsMoments:
    """E|X|^p at orders with no partial moments, in closed form."""

    ORDERS = (1.5, 2.5, 3.7)
    # mean / sigma of 0.1, 3 and 30; the exponential at two rates
    LAWS = [
        (Normal(0.1, 1.0), normal_density(0.1, 1.0), [0.1]),
        (Normal(-1.5, 0.25), normal_density(-1.5, 0.25), [-1.5]),
        (Normal(60.0, 4.0), normal_density(60.0, 4.0), [60.0]),
        (CenteredExponential(1.5), exponential_density(1.5), [-1.0 / 1.5]),
        (CenteredExponential(0.2), exponential_density(0.2), [-5.0]),
    ]

    @staticmethod
    def oracle(law, pdf, kinks, order):
        # 40 digits, split at 0, at the kinks and, for the normals, 40
        # standard deviations out, past which the tails are negligible
        with mpmath.workdps(40):
            reach = [law.mean - 40.0 * law.std, law.mean + 40.0 * law.std]
            cuts = sorted({0.0, *kinks, *(reach if isinstance(law, Normal) else ())})
            cuts = [mpmath.mpf(x) for x in cuts]
            if isinstance(law, CenteredExponential):
                cuts.append(mpmath.inf)
            p = mpmath.mpf(order)
            return mpmath.quad(lambda x: abs(x) ** p * pdf(x), cuts)

    @pytest.mark.parametrize("law, pdf, kinks", LAWS, ids=[repr(law) for law, _, _ in LAWS])
    def test_against_mpmath_without_quadrature(self, monkeypatch, law, pdf, kinks):
        monkeypatch.setattr(distributions_module, "_quad", None)
        for order in self.ORDERS:
            ref = self.oracle(law, pdf, kinks, order)
            got = law.abs_moment(order)
            assert abs(got - float(ref)) <= 1e-13 * float(ref), order

    @pytest.mark.parametrize("law", [law for law, _, _ in LAWS], ids=repr)
    def test_integer_orders_read_partial_moments(self, law):
        for p in (1, 2, 3):
            left = law.partial_moments(-math.inf, 0.0, 0.0, p)
            right = law.partial_moments(0.0, math.inf, 0.0, p)
            assert law.abs_moment(float(p)) == right[p] + (-1) ** p * left[p]

    @pytest.mark.parametrize("var", [0.25, 2.0, 1e-6])
    def test_centered_normal_keeps_its_closed_form(self, var):
        # the Kummer factor is exactly 1 at mean 0, so every order keeps
        # the bits of sigma^p 2^(p/2) Gamma((p+1)/2) / sqrt(pi)
        law = Normal(0.0, var)
        for order in (1.0, 1.5, 2.0, 2.5, 3.0, 3.7, 10.0):
            log_val = (order * math.log(math.sqrt(var)) + 0.5 * order * math.log(2.0)
                       + float(gammaln((order + 1.0) / 2.0)) - 0.5 * math.log(math.pi))
            assert law.abs_moment(order) == math.exp(log_val)

    @staticmethod
    def closed_form_oracle(law, order):
        """E|X|^order to 40 digits, from the closed forms rather than the
        density: the Kummer form for normals, and for the centered
        exponential rate^-p e^-1 (integral of t^p e^t over [0, 1] + Gamma(p + 1))."""
        with mpmath.workdps(40):
            p = mpmath.mpf(order)
            if isinstance(law, Normal):
                mean, var = mpmath.mpf(law.mean), mpmath.mpf(law.variance)
                return (mpmath.sqrt(var) ** p * 2 ** (p / 2) * mpmath.gamma((p + 1) / 2)
                        / mpmath.sqrt(mpmath.pi)
                        * mpmath.hyp1f1(-p / 2, mpmath.mpf(0.5), -mean ** 2 / (2 * var)))
            head = mpmath.quad(lambda t: t ** p * mpmath.exp(t), [0, 1])
            return mpmath.mpf(law.rate) ** -p * (head + mpmath.gamma(p + 1)) / mpmath.e

    @pytest.mark.parametrize(
        "law, order",
        [
            # 1F1 overflows: |mean| / sigma is 1e110, and 8,000 at order 100.5
            (Normal(1.0, 1e-220), 2.5),
            (Normal(1.0, 1.0 / 8000.0 ** 2), 100.5),
            # sigma^p underflows while the value is 1e-125
            (Normal(1e-50, 1e-270), 2.5),
            # Gamma(p + 1), and rate^-p, leave float range
            (CenteredExponential(1.0), 171.5),
            (CenteredExponential(1e-5), 200.5),
            (CenteredExponential(2.0), 150.5),
        ],
        ids=repr,
    )
    def test_edges_of_float_range_against_mpmath(self, monkeypatch, law, order):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("abs_moment ran quadrature")

        monkeypatch.setattr(distributions_module, "_quad", no_quadrature)
        ref = self.closed_form_oracle(law, order)
        got = law.abs_moment(order)
        if ref > sys.float_info.max:
            assert got == math.inf
        else:
            assert abs(got - float(ref)) <= 1e-13 * float(ref)

    def test_laws_without_a_closed_form_keep_quadrature(self):
        law = shift(CenteredExponential(1.0), 0.4)
        pdf, kinks = exponential_density(1.0, 1.0, 0.4), [-0.6]
        with mpmath.workdps(20):
            ref = mpmath.quad(lambda x: abs(x) ** mpmath.mpf(2.5) * pdf(x),
                              [mpmath.mpf(-0.6), 0, mpmath.inf])
        assert law.abs_moment(2.5) == pytest.approx(float(ref), abs=1e-9)


# one config per leaf family of DISTRIBUTION_FAMILIES, the families without a base
LEAF_CONFIGS = [
    {"family": "normal", "mean": 0.3, "var": 2.0},
    {"family": "uniform", "low": -1.0, "high": 2.0},
    {"family": "rademacher"},
    {"family": "two-point", "low": -0.25, "high": 1.0, "p_low": 0.8},
    {"family": "exponential-centered", "rate": 1.5},
    {"family": "finite-discrete", "values": [-2.0, 0.0, 1.0], "probs": [0.25, 0.25, 0.5]},
]
LEAF_CLASSES = (Normal, Uniform, Rademacher, TwoPoint, CenteredExponential, FiniteDiscrete)


def scaled(base: dict, factor: float) -> dict:
    return {"family": "scaled", "base": base, "factor": factor}


def shifted(base: dict, offset: float) -> dict:
    return {"family": "shifted", "base": base, "offset": offset}


# name -> (wrap a base config, P(Y < x) for the wrapped law Y read off the base law)
CLOSURE_TRANSFORMS = {
    "factor 2.0": (lambda cfg: scaled(cfg, 2.0), lambda law, x: law.cdf(x / 2.0)),
    # P(cX < x) = 1 - P(X <= x/c) for c < 0
    "factor -0.7": (lambda cfg: scaled(cfg, -0.7), lambda law, x: 1.0 - law.prob_le(x / -0.7)),
    "offset 0.4": (lambda cfg: shifted(cfg, 0.4), lambda law, x: law.cdf(x - 0.4)),
    "scaled(shifted)": (lambda cfg: scaled(shifted(cfg, 0.4), 2.0),
                        lambda law, x: law.cdf(x / 2.0 - 0.4)),
}


class TestTransforms:
    def test_scale_shift_compose(self):
        d = shift(scale(Uniform(0.0, 1.0), 2.0), -1.0)
        assert d.mean == pytest.approx(0.0)
        assert d.variance == pytest.approx(4.0 / 12.0)

    def test_scale_preserves_zero_mean_at_inf(self):
        n = scale(Normal(0.0, 1.0), math.inf)
        assert n.mean == 0.0 and math.isinf(n.variance)

    def test_negative_scale_flips_support(self):
        d = scale(Uniform(1.0, 2.0), -1.0)
        assert d.support() == (-2.0, -1.0)

    @pytest.mark.parametrize("base", LEAF_CONFIGS, ids=lambda cfg: cfg["family"])
    @pytest.mark.parametrize("transform", CLOSURE_TRANSFORMS)
    def test_scale_and_shift_stay_in_the_leaf_families(self, base, transform):
        wrap, mapped_cdf = CLOSURE_TRANSFORMS[transform]
        got = distribution_from_config(wrap(base))
        assert type(got) in LEAF_CLASSES
        xs = np.array([-2.1, -0.9, -0.3, 0.05, 0.35, 1.2, 2.7])
        want = mapped_cdf(distribution_from_config(base), xs)
        assert np.allclose(got.cdf(xs), want, rtol=0.0, atol=1e-14)

    def test_closure_cases_cover_every_leaf_family(self):
        leaves = {name for name, entry in DISTRIBUTION_FAMILIES.items()
                  if "base" not in entry.required}
        assert leaves == {cfg["family"] for cfg in LEAF_CONFIGS}

    @pytest.mark.parametrize("factory, value", [(scale, 2.0), (shift, 0.4)])
    def test_a_sum_with_a_normal_part_has_no_family(self, factory, value):
        law = SumLaw([-1.0, 0.5], [0.3, 0.7], normal_mean=0.2, normal_var=0.5)
        with pytest.raises(DistributionError, match=r"SumLaw\("):
            factory(law, value)

    @pytest.mark.parametrize("law", [
        SumLaw([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
        _mixture([(*law.atoms(), 0.0, 0.0) for law in (Rademacher(), TwoPoint(-0.25, 1.0, 0.8))],
                 np.array([0.5, 0.5])),
    ], ids=["sum", "mixture"])
    def test_atomic_sum_and_mixture_laws_become_finite_discrete(self, law):
        vals, probs = law.atoms()
        for got, want in ((scale(law, -2.0), vals * -2.0), (shift(law, 0.4), vals + 0.4)):
            assert type(got) is FiniteDiscrete
            order = np.argsort(want, kind="stable")
            got_vals, got_probs = got.atoms()
            assert got_vals.tolist() == want[order].tolist()
            assert got_probs.tolist() == pytest.approx(probs[order].tolist(), rel=1e-15)


class TestIndices:
    def test_deterministic(self):
        d = Deterministic(7)
        assert d.mean == 7.0
        assert float(d.pmf(7)) == 1.0
        assert d.truncation(1e-10) == 7
        assert d.tail_mass(7) == 0.0

    def test_geometric_pmf_and_mean(self):
        g = Geometric(0.25)
        ks = np.arange(1, 400)
        pmf = np.asarray(g.pmf(ks))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(np.dot(ks, pmf)) == pytest.approx(4.0, abs=1e-9)
        assert Geometric.from_mean(4.0).mean == pytest.approx(4.0)

    def test_geometric_tail_and_truncation(self):
        g = Geometric(0.5)
        # P(nu > k) = (1/2)^k exactly
        assert g.tail_mass(10) == pytest.approx(0.5 ** 10, rel=1e-12)
        k = g.truncation(1e-10)
        assert g.tail_mass(k) <= 1e-10 < g.tail_mass(k - 1)

    def test_shifted_poisson_support_starts_at_one(self):
        p = ShiftedPoisson(6.0)
        assert float(p.pmf(0)) == 0.0
        ks = np.arange(1, 200)
        pmf = np.asarray(p.pmf(ks))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(np.dot(ks, pmf)) == pytest.approx(6.0, abs=1e-9)

    def test_shifted_poisson_pmf_matches_poisson(self):
        lam = 4.0
        p = ShiftedPoisson(lam + 1.0)
        for k in (1, 3, 9):
            expected = math.exp(-lam) * lam ** (k - 1) / math.factorial(k - 1)
            assert float(p.pmf(k)) == pytest.approx(expected, rel=1e-12)

    def test_negative_binomial_mean(self):
        nb = ShiftedNegativeBinomial.from_mean(10.0, r=2)
        ks = np.arange(1, 2000)
        pmf = np.asarray(nb.pmf(ks))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(np.dot(ks, pmf)) == pytest.approx(10.0, abs=1e-7)

    def test_finite_index(self):
        f = FiniteIndex([2, 5], [0.25, 0.75])
        assert f.mean == pytest.approx(4.25)
        assert f.truncation(1e-10) == 5
        assert f.tail_mass(2) == pytest.approx(0.75)

    def test_finite_index_tail_is_never_negative(self):
        # seven masses of 1/7 add up to 1 + 2^-52
        f = FiniteIndex(range(1, 8), [1.0 / 7.0] * 7)
        assert f.tail_mass(7) == 0.0
        assert f.tail_mass(100) == 0.0
        assert all(f.tail_mass(k) >= 0.0 for k in range(0, 8))

    def test_index_values_are_integers(self):
        bad = (
            lambda: FiniteIndex([2.7, 5], [0.5, 0.5]),
            lambda: FiniteIndex([True, 2], [0.5, 0.5]),
            lambda: Deterministic(True),
            lambda: Deterministic(float("nan")),
            lambda: FiniteIndex([0, 2], [0.5, 0.5]),
            lambda: index_from_config({"family": "deterministic", "k": 2.5}),
            lambda: index_from_config({"family": "finite", "values": [1.5, "n"],
                                       "probs": [0.5, 0.5]}, 4),
        )
        for build in bad:
            with pytest.raises(DistributionError, match="integer"):
                build()
        # whole numbers of any numeric type are held as ints
        assert Deterministic(4.0).k == 4 and type(Deterministic(np.int64(4)).k) is int
        assert FiniteIndex(np.array([1.0, 3.0]), [0.5, 0.5]).descriptor()[1] == (1, 3)

    def test_fractional_tail_sampling(self):
        rng = np.random.default_rng(11)
        g = Geometric(0.2)
        draws = g.sample(rng, 200_000)
        assert draws.min() >= 1
        assert float(draws.mean()) == pytest.approx(5.0, abs=0.05)


class TestPoissonAndNegativeBinomialTails:
    """Index tails and truncation points against scipy.stats."""

    LAMS = np.geomspace(0.01, 8000.0, 37)
    ETAS = np.geomspace(1e-16, 1e-3, 14)

    @staticmethod
    def window(lam):
        # from the bulk far into the tail, at most 400 points
        sd = math.sqrt(lam)
        lo, hi = max(int(lam - 8 * sd), 0), int(lam + 12 * sd) + 40
        return np.unique(np.linspace(lo, hi, min(hi - lo + 1, 400)).astype(int))

    @pytest.mark.parametrize("lam", LAMS)
    def test_poisson_tail_is_scipy_stats_bit_for_bit(self, lam):
        idx = ShiftedPoisson(lam + 1.0)
        ks = self.window(idx.lam)
        ks = ks[ks >= 1]
        expected = poisson.sf(ks - 1, idx.lam)
        assert [idx.tail_mass(int(k)) for k in ks] == expected.tolist()
        assert idx.tail_mass(0) == 1.0

    @pytest.mark.parametrize("lam", LAMS)
    def test_poisson_truncation_is_the_smallest_k_scipy_stats_gives(self, lam):
        idx = ShiftedPoisson(lam + 1.0)
        ks = np.arange(1, int(idx.lam + 12 * math.sqrt(idx.lam)) + 60)
        sf = poisson.sf(ks - 1, idx.lam)
        for eta in self.ETAS:
            eta = float(eta)
            k = idx.truncation(eta)
            assert k == int(ks[np.argmax(sf <= eta)])
            assert idx.tail_mass(k) <= eta < idx.tail_mass(k - 1)

    @pytest.mark.parametrize(
        "idx",
        [ShiftedPoisson(5.0), ShiftedPoisson(8001.0), ShiftedNegativeBinomial.from_mean(10.0, r=2)],
    )
    @pytest.mark.parametrize("eta", [1e-17, 5e-17, 2.0 ** -54])
    def test_truncation_below_half_an_ulp_of_one(self, idx, eta):
        # 1 - eta rounds to 1, where the quantile is infinite
        assert 1.0 - eta == 1.0
        k = idx.truncation(eta)
        assert idx.tail_mass(k) <= eta < idx.tail_mass(k - 1)

    def test_negative_binomial_through_the_lazy_import(self):
        nb = ShiftedNegativeBinomial(2.5, 0.2)
        ks = np.arange(0, 120)
        assert np.array_equal(nb.pmf(ks), np.where(ks >= 1, nbinom.pmf(ks - 1, 2.5, 0.2), 0.0))
        assert [nb.tail_mass(int(k)) for k in ks[1:]] == nbinom.sf(ks[1:] - 1, 2.5, 0.2).tolist()
        ks = np.arange(1, 600)
        sf = nbinom.sf(ks - 1, 2.5, 0.2)
        for eta in (1e-3, 1e-10, 1e-16):
            assert nb.truncation(eta) == int(ks[np.argmax(sf <= eta)])


def linear_walk(idx, eta):
    """K by the one-step walk from 1: the reference for the search."""
    k = 1
    while idx.tail_mass(k) > eta:
        k += 1
    return k


def count_tail_calls(monkeypatch, idx):
    """Count the index's tail_mass calls from now on."""
    calls = []
    tail = type(idx).tail_mass

    def counted(self, k):
        calls.append(k)
        return tail(self, k)

    monkeypatch.setattr(type(idx), "tail_mass", counted)
    return calls


class TestTruncationSearch:
    # builders, so that every case searches a fresh index: an index keeps
    # the K it found for each eta
    MAKERS = [
        lambda: Deterministic(5),
        lambda: ShiftedPoisson(2.0),
        lambda: ShiftedPoisson(64.0),
        lambda: Geometric(0.5),
        lambda: Geometric(1.0 / 16.0),
        lambda: ShiftedNegativeBinomial.from_mean(4.0, r=2.0),
        lambda: ShiftedNegativeBinomial.from_mean(4.0, r=0.5),
        lambda: FiniteIndex([3, 7, 50], [0.5, 0.4999, 0.0001]),
    ]

    @pytest.mark.parametrize("make", MAKERS, ids=lambda make: repr(make()))
    def test_same_k_as_the_linear_walk(self, make):
        idx = make()
        for eta in (1e-3, 1e-10, 1e-17, 1e-30, 1e-100, 1e-300):
            k = idx.truncation(eta)
            assert k == linear_walk(idx, eta), eta
            assert idx.tail_mass(k) <= eta

    @pytest.mark.parametrize(
        "make",
        [*MAKERS, lambda: ShiftedNegativeBinomial.from_mean(200.0, r=0.5),
         lambda: ShiftedPoisson(8001.0)],
        ids=lambda make: repr(make()),
    )
    @pytest.mark.parametrize("eta", [1e-3, 1e-10, 1e-17])
    def test_search_costs_logarithmically_many_tails(self, monkeypatch, make, eta):
        idx = make()
        calls = count_tail_calls(monkeypatch, idx)
        k = idx.truncation(eta)
        assert calls
        assert len(calls) <= 2 * math.ceil(math.log2(k)) + 2

    @pytest.mark.parametrize("make", MAKERS, ids=lambda make: repr(make()))
    def test_each_eta_is_searched_once(self, monkeypatch, make):
        idx = make()
        calls = count_tail_calls(monkeypatch, idx)
        k = idx.truncation(1e-10)
        searched = len(calls)
        assert idx.truncation(1e-10) == k
        assert len(calls) == searched
        idx.truncation(1e-3)
        assert len(calls) > searched

    def test_negative_binomial_k_far_past_the_mean(self):
        # the one-step walk from 1 makes 14,648 tail calls here; the cost
        # test above bounds the search's
        idx = ShiftedNegativeBinomial.from_mean(200.0, r=0.5)
        assert idx.truncation(1e-17) == 14_648


class TestMergeAtoms:
    @staticmethod
    def loop_merge(values, probs, tol):
        # reference: one pass over the stable-sorted atoms, adding each
        # atom within tol of its predecessor to the current run
        order = sorted(range(len(values)), key=lambda i: values[i])
        out_v, out_p = [], []
        for i in order:
            if out_v and values[i] - prev <= tol:
                out_p[-1] += probs[i]
            else:
                out_v.append(values[i])
                out_p.append(probs[i])
            prev = values[i]
        return np.array(out_v), np.array(out_p)

    @pytest.mark.parametrize("tol", [0.0, 1e-13])
    def test_bit_identical_to_the_loop(self, tol):
        rng = np.random.default_rng(3)
        lattice = np.array([-1.0, -0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0 + 2.0**-53, 2.0])
        values = rng.choice(lattice, 200)
        probs = rng.random(200) * np.where(rng.random(200) < 0.1, 0.0, 1.0)
        got_v, got_p = merge_atoms(values, probs, tol)
        want_v, want_p = self.loop_merge(values.tolist(), probs.tolist(), tol)
        # compare bits, so 0.0 and -0.0 and the order of additions count
        assert np.array_equal(got_v.view(np.int64), want_v.view(np.int64))
        assert np.array_equal(got_p.view(np.int64), want_p.view(np.int64))
        assert got_v.size == (5 if tol == 0.0 else 4)

    def test_atomic_laws_reject_nonfinite_values(self):
        with pytest.raises(DistributionError, match="finite"):
            FiniteDiscrete([0.0, math.nan], [0.5, 0.5])


@pytest.mark.parametrize("build", [
    lambda: Normal(mean=math.inf),
    lambda: Normal(var=math.nan),
    lambda: Uniform(-math.inf, 0.0),
    lambda: CenteredExponential(rate=math.nan),
    lambda: CenteredExponential(rate=math.inf),
    lambda: CenteredExponential(offset=math.nan),
    lambda: FiniteDiscrete([0.0, 1.0], [math.nan, 0.5]),
    lambda: scale(Normal(), math.nan),
    lambda: ShiftedPoisson(math.nan),
    lambda: ShiftedPoisson(math.inf),
    lambda: ShiftedNegativeBinomial(math.nan, 0.5),
    lambda: FiniteIndex([1, 2], [math.nan, 0.5]),
], ids=["normal-mean", "normal-var", "uniform", "exp-rate-nan", "exp-rate-inf", "exp-offset",
        "finite-discrete", "scale-factor", "poisson-nan", "poisson-inf", "negative-binomial",
        "finite-index"])
def test_constructors_reject_non_finite_numbers(build):
    # Normal(var=inf) stays: it is the saturated law of divergent extensions
    with pytest.raises(DistributionError):
        build()


class TestConfig:
    def test_distribution_families(self):
        d = distribution_from_config({"family": "uniform", "low": -2.0, "high": 2.0})
        assert d.variance == pytest.approx(16.0 / 12.0)
        d = distribution_from_config(
            {"family": "scaled", "base": {"family": "rademacher"}, "factor": 0.5}
        )
        assert d.variance == pytest.approx(0.25)

    @pytest.mark.parametrize("base", [
        {"family": "normal", "mean": 0.3, "var": 2.0},
        {"family": "uniform", "low": 0.0, "high": 1.0},
        {"family": "two-point", "low": -0.25, "high": 1.0, "p_low": 0.8},
        {"family": "rademacher"},
        {"family": "exponential-centered", "rate": 1.5},
    ], ids=lambda base: base["family"])
    @pytest.mark.parametrize("family, key, value", [
        ("scaled", "factor", 2.0), ("scaled", "factor", -0.7), ("shifted", "offset", 0.4),
    ])
    def test_scaled_and_shifted_build_through_the_factories(self, base, family, key, value):
        cfg = {"family": family, "base": base, key: value}
        want = (scale if family == "scaled" else shift)(distribution_from_config(base), value)
        got = distribution_from_config(cfg)
        assert type(got) is type(want) and got.descriptor() == want.descriptor()
        assert array_from_config({"array": "iid", "base": cfg}).label == f"iid-{family}"

    def test_index_placeholder_resolution(self):
        idx = index_from_config({"family": "poisson", "mean": "n"}, 12)
        assert idx.mean == pytest.approx(12.0)
        idx = index_from_config({"family": "deterministic", "k": "n"}, 9)
        assert idx.mean == 9.0

    def test_unknown_family_rejected(self):
        with pytest.raises((DistributionError, ValueError, KeyError)):
            distribution_from_config({"family": "cauchy"})
