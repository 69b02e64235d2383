"""Distance metrics: enumeration oracles, closed forms, and the sandwich."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import binom, norm

import randsum.distributions as distributions_module
import randsum.metrics as metrics_module
from randsum.arrays import (
    SeriesForm,
    TriangularArray,
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    shiryaev_series,
)
from randsum.conditions import rounding_gamma
from randsum.distributions import (
    CenteredExponential,
    FiniteDiscrete,
    FiniteIndex,
    Geometric,
    Normal,
    Rademacher,
    ShiftedPoisson,
    TwoPoint,
    Uniform,
    scale,
    shift,
)
from randsum.metrics import (
    NDTR_ABS_ERR,
    ConvolutionError,
    MomentMismatchError,
    SumLaw,
    delta_mixture,
    delta_randomsum,
    dkw_bound,
    empirical_kolmogorov,
    kolmogorov,
    row_sum_law,
    semi_additivity_check,
    sum_of_independent,
    zeta,
    zeta_lower_bound,
)

RAD = make_iid_array(Rademacher())
SHIRYAEV = make_shiryaev_array()
RARE = make_rare_jump_array()
PHI = Normal(0.0, 1.0)


def mixture(laws, weights):
    """The one-law mixture of normal or atomic laws, each as its one-entry fold state."""
    states = (next(metrics_module._partial_sums([law], (1,))) for law in laws)
    return metrics_module._mixture(states, np.asarray(weights, dtype=float))


def binomial_ks_oracle(k: int) -> float:
    """Exact KS distance of the standardized k-fold Rademacher sum.

    Atoms (2m - k)/sqrt(k) with binomial weights; the supremum against
    the normal CDF is attained at an atom from one side or the other.
    """
    atoms = np.array([(2 * m - k) / math.sqrt(k) for m in range(k + 1)])
    probs = np.array([math.comb(k, m) for m in range(k + 1)], dtype=float) / 2.0 ** k
    cum = np.cumsum(probs)
    phi = norm.cdf(atoms)
    left = np.abs(np.concatenate([[0.0], cum[:-1]]) - phi)
    right = np.abs(cum - phi)
    return float(max(left.max(), right.max()))


class TestKolmogorov:
    @pytest.mark.parametrize("k", [8, 10, 12])
    def test_binomial_enumeration(self, k):
        law = row_sum_law(RAD, k)
        est = kolmogorov(law, PHI)
        assert est.value == pytest.approx(binomial_ks_oracle(k), abs=1e-12)
        assert est.method == "exact-atomic"

    def test_identical_laws(self):
        est = kolmogorov(PHI, Normal(0.0, 1.0))
        assert est.value <= 1e-15

    def test_two_normals_closed_form(self):
        # sup |Phi(x) - Phi(x/2)| at the tangency points x* = +-2 sqrt(ln 2 / 1.5 * 2)
        # derivative zero where pdf(x) = pdf(x/2)/2: x^2 (1 - 1/4) = 2 ln 2
        est = kolmogorov(PHI, Normal(0.0, 4.0))
        xs = math.sqrt(8.0 * math.log(2.0) / 3.0)
        expected = abs(norm.cdf(xs) - norm.cdf(xs / 2.0))
        assert est.value == pytest.approx(expected, abs=1e-9)
        assert est.method == "exact-normal"

    def test_shiryaev_row_sum_is_standard_normal(self):
        law = row_sum_law(SHIRYAEV, 8)
        assert law.atoms() is None
        assert kolmogorov(law, PHI).value <= 1e-12

    def test_atomic_pair_is_exact(self):
        a = FiniteDiscrete([-1.0, 1.0], [0.5, 0.5])
        b = FiniteDiscrete([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        est = kolmogorov(a, b)
        # gap only on [-1, 0) and [0, 1): |0.5 - 0.25| and |0.5 - 0.75|
        assert est.value == pytest.approx(0.25, abs=1e-15)
        assert est.method == "exact-atomic"


def normal_ks_40_digits(m1, v1, m2, v2):
    """sup_x |Phi((x - m1)/s1) - Phi((x - m2)/s2)| to 40 digits.

    The densities cross where d x^2 - 2 p x + C = 0 with d = v2 - v1,
    p = v2 m1 - v1 m2 and C = v2 m1^2 - v1 m2^2 - v1 v2 log(v2 / v1); the
    supremum is at a crossing, because the difference vanishes at both
    infinities.
    """
    with mpmath.workdps(40):
        m1, v1, m2, v2 = map(mpmath.mpf, (m1, v1, m2, v2))
        if (m1, v1) == (m2, v2):
            return mpmath.mpf(0)
        gap = lambda x: abs(mpmath.ncdf((x - m1) / mpmath.sqrt(v1))
                            - mpmath.ncdf((x - m2) / mpmath.sqrt(v2)))
        d, p = v2 - v1, v2 * m1 - v1 * m2
        if d == 0:
            return gap((m1 + m2) / 2)
        c = v2 * m1 ** 2 - v1 * m2 ** 2 - v1 * v2 * mpmath.log(v2 / v1)
        root = mpmath.sqrt(p * p - d * c)
        return max(gap((p + root) / d), gap((p - root) / d))


def _normal_pairs():
    rng = np.random.default_rng(20)
    pairs = [
        (rng.normal() * 3.0, math.exp(rng.normal() * 3.0),
         rng.normal() * 3.0, math.exp(rng.normal() * 3.0))
        for _ in range(60)
    ]
    for ratio in (1e-15, 1e-14, 1e-12, 1e-9, 1e-6):
        for offset in (0.0, 1e-9, 0.3, 5.0):
            pairs += [(offset, 1.0, 0.0, 1.0 + ratio), (3.0, 2.0, 3.0 + offset, 2.0 * (1.0 + ratio))]
    pairs += [(0.0, 1.0, offset, 1.0) for offset in (1e-9, 1e-3, 1.0, 10.0, 40.0)]
    pairs += [(5.0, 3.0, 5.0, 3.0), (0.0, 1.0, 0.0, 4.0)]
    for scale in (1e-8, 1e8):
        pairs += [(0.1 * scale, scale ** 2, -0.2 * scale, 1.3 * scale ** 2),
                  (scale, scale ** 2, scale, 1.5 * scale ** 2),
                  (0.0, scale ** 2, 1e-3 * scale, scale ** 2),
                  (0.0, scale ** 2, 0.0, scale ** 2 * (1.0 + 1e-12))]
    return pairs


class TestKolmogorovNormalPair:
    @pytest.mark.parametrize("m1,v1,m2,v2", _normal_pairs())
    def test_against_40_digits_in_both_orders(self, m1, v1, m2, v2):
        for f, g in ((Normal(m1, v1), Normal(m2, v2)), (Normal(m2, v2), Normal(m1, v1))):
            est = kolmogorov(f, g)
            assert est.method == "exact-normal"
            assert est.params["grid"] <= 2
            exact = normal_ks_40_digits(*f.normal_params(), *g.normal_params())
            assert abs(est.value - exact) <= est.bound
            assert est.bound <= 1e-14

    def test_identical_laws_are_exactly_zero(self):
        est = kolmogorov(Normal(0.3, 2.0), Normal(0.3, 2.0))
        assert (est.value, est.bound, est.method) == (0.0, 0.0, "exact-normal")

    def test_ndtr_accuracy_the_bound_assumes(self):
        xs = np.concatenate([np.linspace(-40.0, 40.0, 1601),
                             np.random.default_rng(4).normal(scale=2.0, size=1500)])
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(float(ndtr(x))) - mpmath.ncdf(mpmath.mpf(float(x))))
                        for x in xs)
        assert worst <= NDTR_ABS_ERR

    def test_sum_law_with_a_normal_part_is_a_normal_pair(self):
        law = sum_of_independent([Normal(0.5, 2.0), Normal(-0.25, 1.0)])
        assert law.normal_params() == (0.25, 3.0)
        est = kolmogorov(law, PHI)
        assert est.method == "exact-normal"
        assert est.value == kolmogorov(Normal(0.25, 3.0), PHI).value
        shifted = sum_of_independent([FiniteDiscrete([2.0], [1.0]), Normal(0.5, 2.0)])
        assert shifted.normal_params() == (2.5, 2.0)
        assert sum_of_independent([Rademacher(), PHI]).normal_params() is None
        assert RARE_SIX.normal_params() is None
        assert mixture([PHI, Normal(1.0, 1.0)], [0.5, 0.5]).normal_params() is None
        assert Uniform(-1.0, 1.0).normal_params() is None

    def test_other_continuous_pairs_keep_the_grid(self):
        for f, g in ((Uniform(-1.0, 1.0), PHI), (mixture([PHI, Normal(1.0, 1.0)], [0.5, 0.5]), PHI)):
            assert kolmogorov(f, g).method == "exact-grid"

    def test_pairs_past_float_resolution_fall_back_to_the_grid(self):
        # (m2 - m1) / s1 underflows to 0 with equal variances: no crossing
        # can be solved for, and no division by zero may escape
        assert kolmogorov(Normal(0.0, 1e300), Normal(1e-300, 1e300)).method == "exact-grid"


class TestBatchedNormalSolve:
    @staticmethod
    def one_by_one(means, variances, m2, v2):
        """The solver's three arrays, one one-element call per law."""
        parts = [metrics_module._normal_kolmogorov(m, v, m2, v2) for m, v in zip(means, variances)]
        return tuple(np.concatenate(column) for column in zip(*parts))

    @staticmethod
    def laws():
        """(means, variances) against N(0, 1): powers of two, 1 +- k ulp, the
        target itself, equal variances with other means, and variances that
        overflow or underflow the solve."""
        variances = [2.0 ** e for e in range(-60, 61)]
        variances += [1.0 + k * 2.0 ** -52 for k in range(1, 9)]
        variances += [1.0 - k * 2.0 ** -53 for k in range(1, 9)]
        means = [0.0] * len(variances)
        # the early return, the d = 0 branch, and overflow and underflow
        means += [0.0, 1e-9, -0.3, 5.0, 40.0, 0.0, 0.0, 0.2]
        variances += [1.0, 1.0, 1.0, 1.0, 1.0, 1.7e308, 1e-310, 5e-324]
        return np.array(means), np.array(variances)

    def test_one_call_equals_one_call_per_law(self):
        means, variances = self.laws()
        batched = metrics_module._normal_kolmogorov(means, variances, 0.0, 1.0)
        assert [a.tobytes() for a in batched] == [
            a.tobytes() for a in self.one_by_one(means, variances, 0.0, 1.0)
        ]
        value, bound, grid = batched
        assert sorted(set(grid.tolist())) == [0.0, 1.0, 2.0]
        assert np.isnan(value[-3:]).all() and not np.isnan(value[:-3]).any()
        # b underflows with equal variances: no root, as kolmogorov's grid case
        far = metrics_module._normal_kolmogorov(np.array([0.0, 0.0]), np.array([1e300, 2e300]),
                                                1e-300, 1e300)
        assert np.isnan(far[0][0]) and not np.isnan(far[0][1])
        assert [a.tobytes() for a in far] == [
            a.tobytes() for a in self.one_by_one([0.0, 0.0], [1e300, 2e300], 1e-300, 1e300)
        ]

    def test_shiryaev_prefix_terms_against_40_digits(self):
        index = ShiftedPoisson(32.0)
        ks = np.arange(1, index.truncation(1e-10) + 1)
        terms = list(metrics_module._per_k_distances(SHIRYAEV, ks, index.pmf(ks), 32, "prefix", PHI))
        totals = np.cumsum(SHIRYAEV.normal_variances(32, int(ks[-1])))
        for k in (1, 2, 9, 31, 32, 33, 50, int(ks[-1])):
            _, value, bound = terms[k - 1]
            assert abs(value - normal_ks_40_digits(0.0, totals[k - 1], 0.0, 1.0)) <= bound

    def test_uncertified_variances_take_the_grid(self):
        # shiryaev row 2 read to 1,025 entries: a prefix variance near the
        # largest float, whose crossing solve overflows
        est = delta_mixture(SHIRYAEV, FiniteIndex([3, 1025], [0.5, 0.5]), 2)
        per_k = [kolmogorov(row_sum_law(SHIRYAEV, 2, k), PHI) for k in (3, 1025)]
        assert [e.method for e in per_k] == ["exact-normal", "exact-grid"]
        assert est.value == 0.5 * per_k[0].value + 0.5 * per_k[1].value

    @pytest.mark.parametrize("array, mode", [(SHIRYAEV, "prefix"),
                                             (from_series(shiryaev_series()), "rows")],
                             ids=["shiryaev-prefix", "series-rows"])
    def test_normal_rows_build_no_sum_law(self, monkeypatch, array, mode):
        built, solves = [], []
        init = SumLaw.__init__
        monkeypatch.setattr(SumLaw, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
        solve = metrics_module._normal_kolmogorov
        monkeypatch.setattr(metrics_module, "_normal_kolmogorov",
                            lambda *a: solves.append(a) or solve(*a))
        delta_mixture(array, ShiftedPoisson(32.0), 32, mode=mode)
        # every row is centered normals, so the laws form one block
        assert built == []
        assert len(solves) == 1


def step_cdf(values, probs):
    """P(X <= x) of a finite atomic law, summed directly."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    return lambda x: (np.asarray(x)[:, None] >= values) @ probs


def brute_force_ks(f_cdf, g_cdf, atoms):
    """max |F - G| one ulp either side of every atom of either law.

    Between consecutive atoms an atomic F is constant and G monotone, so
    these one-sided limits hold the supremum.
    """
    atoms = np.unique(np.concatenate(atoms))
    xs = np.concatenate([np.nextafter(atoms, -np.inf), np.nextafter(atoms, np.inf)])
    return float(np.max(np.abs(f_cdf(xs) - g_cdf(xs))))


RARE_SIX = row_sum_law(RARE, 6)
LATTICE = row_sum_law(RAD, 4)
SHARED_ATOMS = ([-1.0, 0.0, 1.0 / 6.0, 2.0], [0.1, 0.4, 0.3, 0.2])


class TestKolmogorovAtomPath:
    @pytest.mark.parametrize(
        "other,other_cdf,other_atoms",
        [
            (PHI, ndtr, ()),
            (Uniform(-1.5, 2.5), lambda x: np.clip((x + 1.5) / 4.0, 0.0, 1.0), ()),
            (CenteredExponential(1.0), lambda x: np.where(x > -1.0, -np.expm1(-(x + 1.0)), 0.0), ()),
            (FiniteDiscrete(*SHARED_ATOMS), step_cdf(*SHARED_ATOMS),
             (np.array(SHARED_ATOMS[0]),)),
            # atoms() is None, yet the CDF jumps at the lattice points
            (mixture([LATTICE, PHI], [0.5, 0.5]),
             lambda x: 0.5 * step_cdf(*LATTICE.atoms())(x) + 0.5 * ndtr(x),
             (LATTICE.atoms()[0],)),
        ],
        ids=["normal", "uniform", "exponential", "atomic", "jumping-mixture"],
    )
    def test_against_brute_force_limits(self, other, other_cdf, other_atoms):
        values, probs = RARE_SIX.atoms()
        expected = brute_force_ks(step_cdf(values, probs), other_cdf, (values, *other_atoms))
        for est in (kolmogorov(RARE_SIX, other), kolmogorov(other, RARE_SIX)):
            assert est.value == pytest.approx(expected, abs=1e-12)
            assert est.bound == 0.0
            assert est.method == "exact-atomic"

    @pytest.mark.parametrize(
        "wrapped",
        [scale(RARE_SIX, 0.7), scale(RARE_SIX, -3.3), shift(RARE_SIX, 0.37)],
        ids=["scaled", "negative-scale", "shifted"],
    )
    def test_wrapped_atomic_law_jumps_at_its_atoms(self, wrapped):
        # factor * atom and atom + offset round, so the wrapper's CDF must
        # jump at the rounded atoms it reports, not where x / factor or
        # x - offset lands back on the base atom
        values, probs = wrapped.atoms()
        assert np.array_equal(wrapped.prob_le(values) - wrapped.cdf(values) > 0, probs > 0)
        expected = brute_force_ks(step_cdf(values, probs), ndtr, (values,))
        assert kolmogorov(wrapped, PHI).value == pytest.approx(expected, abs=1e-12)

    def test_evaluates_only_the_atoms(self):
        law = row_sum_law(RARE, 64)
        est = kolmogorov(law, PHI)
        assert est.params["grid"] == law.atoms()[0].size

    @pytest.mark.parametrize(
        "other",
        [PHI, Uniform(-1.5, 2.5), FiniteDiscrete(*SHARED_ATOMS),
         mixture([LATTICE, PHI], [0.5, 0.5]), row_sum_law(SHIRYAEV, 3)],
        ids=["normal", "uniform", "atomic", "jumping-mixture", "normal-sum"],
    )
    def test_own_atoms_give_the_searched_gaps_bit_for_bit(self, other):
        # an atomic SumLaw reads its one-sided limits off its cumulative
        # masses; they must be the bits cdf and prob_le find by searching
        for law in (RARE_SIX, row_sum_law(RARE, 64), LATTICE):
            searched = float(np.max(metrics_module._gaps(law, other, law.atoms()[0])))
            assert kolmogorov(law, other).value.hex() == searched.hex()

    @pytest.mark.parametrize("other", [PHI, Normal(0.3, 0.01), FiniteDiscrete(*SHARED_ATOMS)],
                             ids=["normal", "narrow-normal", "atomic"])
    def test_repeated_atoms_give_the_searched_gaps_bit_for_bit(self, other):
        # equal atoms side by side: the cumulative masses inside the run are
        # not one-sided limits, so the limits are read at the run's ends
        law = SumLaw([0.0, -0.0, 0.0, 1.0 / 3.0, 1.0 / 3.0, 2.0],
                     [0.1, 0.2, 0.3, 0.15, 0.05, 0.2])
        searched = float(np.max(metrics_module._gaps(law, other, law.atoms()[0])))
        est = kolmogorov(law, other)
        assert est.value.hex() == searched.hex()
        assert est.params["grid"] == 6.0

    def test_atomic_mixture_against_brute_force_limits(self):
        # delta_randomsum's law: rare-jump per-k laws under a geometric
        # index.  The brute force adds the weighted component CDFs; the
        # exact path sums the merged masses, so they agree up to rounding
        ks = np.arange(1, 41)
        pmf = Geometric.from_mean(8.0).pmf(ks)
        mix = metrics_module._mixture(metrics_module._per_k_sums(RARE, ks, 8, "prefix"), pmf)
        values, _ = mix.atoms()
        expected = brute_force_ks(mix.prob_le, ndtr, (values,))
        for est in (kolmogorov(mix, PHI), kolmogorov(PHI, mix)):
            assert (est.method, est.bound, est.params["grid"]) == ("exact-atomic", 0.0, values.size)
            assert abs(est.value - expected) <= 1e-15


class TestEmpiricalKolmogorov:
    def test_dkw_formula(self):
        assert dkw_bound(100_000, 0.01) == pytest.approx(0.005146997846583986, rel=1e-15)
        assert dkw_bound(10_000, 0.01) == pytest.approx(0.016276236307187292, rel=1e-15)
        m, a = 777, 0.05
        assert dkw_bound(m, a) == pytest.approx(math.sqrt(math.log(2.0 / a) / (2 * m)))
        with pytest.raises(ValueError):
            dkw_bound(0)
        with pytest.raises(ValueError):
            dkw_bound(10, 1.5)

    def test_statistic_against_brute_force(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=400)
        est = empirical_kolmogorov(xs, PHI, alpha=0.05)
        srt = np.sort(xs)
        ref = norm.cdf(srt)
        brute = max(
            max(abs((i + 1) / 400 - r), abs(i / 400 - r)) for i, r in enumerate(ref)
        )
        assert est.value == pytest.approx(brute, abs=1e-15)
        assert est.bound == pytest.approx(dkw_bound(400, 0.05))

    def test_draws_from_the_law_stay_within_dkw(self):
        rng = np.random.default_rng(7)
        xs = PHI.sample(rng, 20_000)
        est = empirical_kolmogorov(xs, PHI, alpha=0.01)
        assert est.value <= est.bound


class TestSumLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            SumLaw([0.0, 1.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            SumLaw([0.0], [1.0], normal_var=-1.0)

    def test_convolution_against_enumeration(self):
        entries = [FiniteDiscrete([-1.0, 2.0], [0.75, 0.25]) for _ in range(3)]
        law = sum_of_independent(entries)
        values, probs = law.atoms()
        expect = {}
        for combo in itertools.product([(-1.0, 0.75), (2.0, 0.25)], repeat=3):
            v = sum(c[0] for c in combo)
            p = math.prod(c[1] for c in combo)
            expect[v] = expect.get(v, 0.0) + p
        assert sorted(expect) == pytest.approx(list(values))
        for v, p in zip(values, probs):
            assert p == pytest.approx(expect[float(v)], rel=1e-14)

    def test_shift_without_normal_part_moves_the_atoms(self):
        law = SumLaw([0.0, 1.0], [0.5, 0.5], normal_mean=1.0)
        assert law.mean == 1.5
        assert law.atoms()[0].tolist() == [1.0, 2.0]
        assert law.support() == (1.0, 2.0)
        assert law.cdf(1.5) == 0.5
        # the atoms at 1 and 2 each miss Phi(+-1) by Phi(1) - 1/2
        est = kolmogorov(law, Normal(1.5, 0.25))
        assert est.bound == 0.0
        assert est.value == pytest.approx(ndtr(1.0) - 0.5, abs=1e-12)

    def test_mixed_atoms_and_normals(self):
        law = sum_of_independent([Rademacher(), Normal(0.5, 2.0)])
        assert law.atoms() is None
        assert law.mean == pytest.approx(0.5)
        assert law.variance == pytest.approx(3.0)
        # P(S < 0) = 0.5 [Phi((-1-0.5)/s) + Phi((1-0.5)/s)]
        s = math.sqrt(2.0)
        expected = 0.5 * (ndtr(-1.5 / s) + ndtr(0.5 / s))
        assert float(law.cdf(0.0)) == pytest.approx(expected, abs=1e-14)

    def test_infinite_normal_variance_is_not_folded(self):
        with pytest.raises(ConvolutionError, match="normal variance is not finite"):
            sum_of_independent([Normal(0.0, 1e308), Normal(0.0, 1e308)])

    def test_merge_keeps_lattice_atoms(self):
        # rare-jump prefixes revisit lattice points through different
        # addition orders; merging must neither lose mass nor move atoms
        law = row_sum_law(RARE, 40)
        values, probs = law.atoms()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(values) > 0)
        # lattice: m jumps give m + (40 - m)(-1/40); spot-check m = 0, 1
        assert values[0] == pytest.approx(-1.0, rel=1e-12)
        assert float(probs[0]) == pytest.approx((40.0 / 41.0) ** 40, rel=1e-10)

    def test_rejects_unknown_components(self):
        with pytest.raises(ConvolutionError):
            sum_of_independent([Uniform(-1.0, 1.0), Rademacher()])


def fold_both_ways(monkeypatch, entries, state=None):
    """Fold the two-atom ``entries`` one after another through the run
    kernel from ``state`` (by default the first entry alone, as the first
    fold leaves it), checking every state bit for bit against the generic
    merge chain.  Returns the kernel's states and the steps, counted from
    1, that it handed to the generic merge."""
    if state is None:
        state = metrics_module._merge_fold(np.array([0.0]), np.array([1.0]), *entries[0].atoms())
        entries = entries[1:]
    chain = [state]
    for entry in entries:
        chain.append(metrics_module._merge_fold(*chain[-1], *entry.atoms()))
    inputs = [values.tobytes() for values, _ in chain]
    handed = []
    merge = metrics_module._merge_fold
    monkeypatch.setattr(metrics_module, "_merge_fold",
                        lambda values, *rest: handed.append(values.tobytes()) or merge(values, *rest))
    stretch = metrics_module._fold_stretch(
        *state, [metrics_module._two_atoms(entry) for entry in entries], [True] * len(entries)
    )
    states = [(values, probs) for values, probs, _, _ in metrics_module._states(stretch)]
    monkeypatch.setattr(metrics_module, "_merge_fold", merge)
    assert len(states) == len(entries)
    for (values, probs), (want_values, want_probs) in zip(states, chain[1:]):
        assert values.tobytes() == want_values.tobytes()
        assert probs.tobytes() == want_probs.tobytes()
    return states, [inputs.index(values) + 1 for values in handed]


class TestBandedFold:
    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_rare_jump_rows_band_bit_for_bit(self, monkeypatch, n):
        steps = Geometric(1.0 / n).truncation(1e-10)
        states, handed = fold_both_ways(monkeypatch, [RARE.entry(n, 1)] * steps)
        # every fold past the first takes the band
        assert handed == []
        if n >= 64:
            # the upper masses underflow and are dropped, so the state stops growing
            assert states[-1][0].size < steps + 1

    @pytest.mark.parametrize("p_low", [0.5, 0.6, 0.7, 0.999, 0.001])
    def test_standardized_two_point_bands_bit_for_bit(self, monkeypatch, p_low):
        entry = make_iid_array(TwoPoint(-1.0, 2.0, p_low)).entry(32, 1)
        dropped = []
        drop = metrics_module._drop_zeros
        monkeypatch.setattr(metrics_module, "_drop_zeros", lambda *a: dropped.append(1) or drop(*a))
        states, handed = fold_both_ways(monkeypatch, [entry] * 200)
        assert handed == []
        if p_low in (0.999, 0.001):
            # masses underflow at the top (p_low near 1) or at the bottom
            # and are dropped, so the state stops growing
            assert states[-1][0].size < 150
        # one end at a time underflows, and each end has its own fast path
        assert dropped == []

    @pytest.mark.parametrize("factor", [1.0, 1e3])
    def test_scaled_rademacher_bands_bit_for_bit(self, monkeypatch, factor):
        # at 1e3 the pairs differ by more than 1e-13: only the tolerance
        # scaled by the largest sum keeps them in the band
        entry = scale(Rademacher(), factor / math.sqrt(7.0))
        assert fold_both_ways(monkeypatch, [entry] * 40)[1] == []

    def test_signed_zero_tie_keeps_the_first_in_stable_order(self, monkeypatch):
        # hi[0] = -0.0 + -0.0 ties lo[1] = 1.0 + -1.0 = +0.0; the merge keeps -0.0
        state = (np.array([-0.0, 1.0]), np.array([0.5, 0.5]))
        states, handed = fold_both_ways(monkeypatch, [TwoPoint(-1.0, -0.0, 0.5)], state)
        assert handed == []
        assert np.signbit(states[0][0]).tolist() == [True, True, False]

    @pytest.mark.parametrize("points", [1, 7, 1 << 15, 1 << 20])
    def test_signed_zero_ties_inside_a_block(self, monkeypatch, points):
        # every step ties -0.0 with +0.0 somewhere inside the state
        monkeypatch.setattr(metrics_module, "MIXTURE_BLOCK_POINTS", points)
        state = (np.array([-0.0, 1.0]), np.array([0.5, 0.5]))
        states, handed = fold_both_ways(monkeypatch, [TwoPoint(-1.0, -0.0, 0.5)] * 30, state)
        assert handed == []
        assert all(np.signbit(values[values == 0.0]).all() for values, _ in states)

    @pytest.mark.parametrize("points", [1, 7, 1 << 20])
    def test_block_size_moves_no_state(self, monkeypatch, points):
        monkeypatch.setattr(metrics_module, "MIXTURE_BLOCK_POINTS", points)
        assert fold_both_ways(monkeypatch, [RARE.entry(64, 1)] * 300)[1] == []

    def test_crowded_sums_take_the_generic_fold(self, monkeypatch):
        # the pairs merge, but they also lie within the tolerance of lo[0]
        # and hi[-1], so the merge makes one run of all four sums
        state = (np.array([0.0, 1.5e-13]), np.array([0.5, 0.5]))
        entry = TwoPoint(10.0, 10.0 + 1.5e-13, 0.5)
        states, handed = fold_both_ways(monkeypatch, [entry], state)
        assert handed == [1]
        assert states[0][0].tolist() == [10.0]
        assert metrics_module._extend_sum(*state, 0.0, 0.0, entry)[0].tolist() == [10.0]

    @pytest.mark.parametrize("points", [7, 1 << 15])
    def test_crowded_step_mid_block_takes_the_generic_fold(self, monkeypatch, points):
        # the fourth step's sums pair within each entry, not across, so the
        # band fails there; the steps after it take the band again
        monkeypatch.setattr(metrics_module, "MIXTURE_BLOCK_POINTS", points)
        crowded = TwoPoint(10.0, 10.0 + 1.5e-13, 0.5)
        entries = [Rademacher()] * 4 + [crowded] + [Rademacher()] * 5
        states, handed = fold_both_ways(monkeypatch, entries)
        assert handed == [4]
        assert [values.size for values, _ in states] == [3, 4, 5, 5, 6, 7, 8, 9, 10]

    def test_off_lattice_entry_takes_the_generic_fold(self, monkeypatch):
        state = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        entry = TwoPoint(-1.0, math.sqrt(2.0), 0.5)
        states, handed = fold_both_ways(monkeypatch, [entry], state)
        assert handed == [1]
        folded = metrics_module._extend_sum(*state, 0.0, 0.0, entry)
        generic = metrics_module._merge_fold(*state, *entry.atoms())
        assert folded[0].tobytes() == generic[0].tobytes()
        assert folded[1].tobytes() == generic[1].tobytes()
        assert folded[0].size == 4

    def test_atom_budget_stops_the_stretch_where_the_merge_stops(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "ATOM_BUDGET", 64)
        states = []
        with pytest.raises(ConvolutionError, match="exceeds 64 atoms"):
            for state in metrics_module._partial_sums([Rademacher()] * 100, range(1, 101)):
                states.append(state)
        # a fold may start from 32 atoms and no more
        assert [values.size for values, *_ in states] == list(range(2, 34))

    @pytest.mark.parametrize("drift", [0.01, 2e-10])
    def test_masses_that_do_not_sum_to_one_raise(self, monkeypatch, drift):
        # at 2e-10 per entry the first states pass and a later one in the
        # same block does not
        array = make_rare_jump_array()
        law = array.entry(16, 1)
        values, probs = law.atoms()
        monkeypatch.setattr(law, "atoms", lambda: (values, probs * (1.0 + drift)))
        with pytest.raises(ValueError, match="sum to one"):
            delta_mixture(array, Geometric(1.0 / 16.0), 16)

    def test_atomic_mixture_counts(self, monkeypatch):
        # one generic fold, one target CDF call per block of atoms, and no
        # block larger than MIXTURE_BLOCK_POINTS and one state
        index = Geometric(1.0 / 64.0)
        ks = np.arange(1, index.truncation(1e-10) + 1)
        sizes = [values.size for values, *_ in metrics_module._per_k_sums(RARE, ks, 64, "prefix")]
        merges, calls = [], []
        merge = metrics_module._merge_fold
        monkeypatch.setattr(metrics_module, "_merge_fold", lambda *a: merges.append(1) or merge(*a))

        class CountedNormal(Normal):
            def cdf(self, x):
                calls.append(np.size(x))
                return super().cdf(x)

        assert delta_mixture(RARE, index, 64, reference=CountedNormal(0.0, 1.0)).value == (
            0.31355904070619345
        )
        points = metrics_module.MIXTURE_BLOCK_POINTS
        assert len(merges) <= 1
        assert len(calls) <= math.ceil(sum(sizes) / points) + 1
        assert max(calls) <= points + max(sizes)


class TestZeta:
    """Iterated-integral metric against closed-form piecewise oracles."""

    # Rademacher vs standard normal: H1 = F - Phi with F the +-1 step law
    @staticmethod
    def _h2(x: float) -> float:
        int_f = 0.0 if x <= -1 else ((x + 1) / 2.0 if x < 1 else x)
        return int_f - (x * ndtr(x) + norm.pdf(x))

    @staticmethod
    def _h3(x: float) -> float:
        if x <= -1:
            iif = 0.0
        elif x < 1:
            iif = (x + 1) ** 2 / 4.0
        else:
            iif = 1.0 + (x - 1) + (x - 1) ** 2 / 2.0
        iiphi = 0.5 * ((x * x + 1.0) * ndtr(x) + x * norm.pdf(x))
        return iif - iiphi

    def test_zeta1_rademacher(self):
        est = zeta(Rademacher(), PHI, 1)
        v, _ = integrate.quad(lambda x: abs((0.0 if x < -1 else (0.5 if x < 1 else 1.0)) - ndtr(x)),
                              -9.0, 9.0, points=[-1.0, 0.0, 1.0], limit=300, epsabs=1e-12)
        assert abs(est.value - v) <= est.bound + 1e-9
        assert est.value == pytest.approx(0.53537732154788, abs=1e-8)

    def test_zeta2_rademacher(self):
        est = zeta(Rademacher(), PHI, 2)
        v, _ = integrate.quad(lambda x: abs(self._h2(x)), -9.0, 9.0,
                              points=[-1.0, 0.0, 1.0], limit=300, epsabs=1e-12)
        assert abs(est.value - v) <= est.bound + 1e-9
        assert est.value == pytest.approx(0.19428492220998386, abs=1e-8)

    def test_zeta3_rademacher(self):
        # the grid machinery carries a larger discretization bound at s=3;
        # the contract is oracle agreement within the reported bound
        est = zeta(Rademacher(), PHI, 3)
        v, _ = integrate.quad(lambda x: abs(self._h3(x)), -9.0, 9.0,
                              points=[-1.0, 0.0, 1.0], limit=300, epsabs=1e-12)
        assert abs(est.value - v) <= est.bound + 1e-9
        assert est.bound <= 5e-6
        assert est.value == pytest.approx(0.09929485360095668, abs=1e-7)

    def test_zeta1_two_normals_closed_form(self):
        # zeta_1(N(0,1), N(0,4)) = E|Z| (sigma_2 - sigma_1) = sqrt(2/pi)
        est = zeta(PHI, Normal(0.0, 4.0), 1)
        assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)

    def test_moment_mismatch_raises(self):
        with pytest.raises(MomentMismatchError):
            zeta(Normal(0.5, 1.0), PHI, 2)
        with pytest.raises(MomentMismatchError):
            zeta(PHI, Normal(0.0, 4.0), 3)

    def test_homogeneity(self):
        from randsum.distributions import scale

        base = zeta(Rademacher(), PHI, 2).value
        for c in (0.5, -3.0):
            got = zeta(scale(Rademacher(), c), scale(PHI, c), 2).value
            assert got == pytest.approx(abs(c) ** 2 * base, rel=1e-8)

    def test_reported_bound_is_honest(self):
        for s, truth in ((2, 0.19428492220998386), (3, 0.09929485360095668)):
            est = zeta(Rademacher(), PHI, s)
            assert abs(est.value - truth) <= est.bound + 1e-10

    def test_one_sided_tail_window_widens(self):
        # exponential right tail exceeds the 12-sigma window target, so
        # the window loop must actually widen (it used to spin in place)
        ce = CenteredExponential(1.0)
        est = zeta(ce, PHI, 1)
        oracle, quad_err = integrate.quad(
            lambda x: abs(ce.cdf(x) - PHI.cdf(x)), -12.0, 40.0, limit=400
        )
        assert abs(est.value - oracle) <= est.bound + quad_err + 1e-9
        assert est.value == pytest.approx(0.31441991939, abs=1e-6)


class TestZetaSandwich:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_lower_bound_below_value(self, s):
        pairs = [
            (Rademacher(), PHI),
            (FiniteDiscrete([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]), Normal(0.0, 0.5)),
        ]
        for f, g in pairs:
            lo = zeta_lower_bound(f, g, s).value
            hi = zeta(f, g, s).value
            assert lo <= hi + 1e-8
            if s == 1:
                assert lo > 0.0


    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_lower_bound_runs_no_quadrature(self, monkeypatch, s):
        calls = []
        real = distributions_module._quad
        monkeypatch.setattr(distributions_module, "_quad",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        laws = [
            Normal(0.3, 2.0), Uniform(-1.0, 2.0), CenteredExponential(1.5), Rademacher(),
            TwoPoint(-0.25, 1.0, 0.8), FiniteDiscrete([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5]),
            scale(CenteredExponential(2.0), -0.7), scale(Rademacher(), 0.5),
            shift(CenteredExponential(1.0), 0.4),
            SumLaw([-1.0, 0.5], [0.3, 0.7], normal_mean=0.2, normal_var=0.5),
            mixture([PHI, Rademacher()], [0.5, 0.5]),
        ]
        for law in laws:
            assert zeta_lower_bound(law, PHI, s).value > 0.0
        assert calls == []


def mp_normal_density(mean, var):
    """mpmath density of N(mean, var)."""
    mean, var = mpmath.mpf(mean), mpmath.mpf(var)
    return lambda x: mpmath.exp(-(x - mean) ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)


_SUM_PARTS = (mp_normal_density(-0.8, 0.5), mp_normal_density(0.7, 0.5))
_MIXTURE_PARTS = (mp_normal_density(1.0, 2.0), mp_normal_density(-0.5, 0.5))


class TestPartialMomentsOfSums:
    """Partial moments of sum and mixture laws against 20-digit quadrature."""

    @pytest.mark.parametrize("law, pdf", [
        (SumLaw([-1.0, 0.5], [0.3, 0.7], normal_mean=0.2, normal_var=0.5),
         lambda x: 0.3 * _SUM_PARTS[0](x) + 0.7 * _SUM_PARTS[1](x)),
        (mixture([Normal(1.0, 2.0), Normal(-0.5, 0.5)], [0.25, 0.75]),
         lambda x: 0.25 * _MIXTURE_PARTS[0](x) + 0.75 * _MIXTURE_PARTS[1](x)),
    ], ids=["sum", "mixture"])
    def test_against_mpmath(self, law, pdf):
        for a, b in [(-math.inf, math.inf), (-math.inf, 0.3), (0.3, math.inf), (-2.0, 0.5)]:
            got = law.partial_moments(a, b, -0.6, 3)
            with mpmath.workdps(20):
                cuts = [mpmath.mpf(x) for x in sorted({a, b, -1.0, 1.0}) if a <= x <= b]
                for m in range(4):
                    ref = mpmath.quad(lambda x: (x + mpmath.mpf(0.6)) ** m * pdf(x), cuts)
                    assert abs(got[m] - float(ref)) <= 1e-14 * 4.0 ** m, (a, b, m)


class TestZetaRegularity:
    def test_convolution_contracts(self):
        # zeta_s(X + Z, Y + Z) <= zeta_s(X, Y) for independent Z
        x = Rademacher()
        y = FiniteDiscrete([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        z = FiniteDiscrete([-0.5, 0.5], [0.5, 0.5])
        for s in (1, 2):
            plain = zeta(x, y, s).value
            smoothed = zeta(sum_of_independent([x, z]), sum_of_independent([y, z]), s).value
            assert smoothed <= plain + 1e-9


class TestSemiAdditivity:
    def test_fixed_and_random_length(self):
        x_entries = [Rademacher() for _ in range(4)]
        y_entries = [Normal(0.0, 1.0) for _ in range(4)]
        checks = semi_additivity_check(
            x_entries, y_entries, s_values=(1, 2), index=FiniteIndex([2, 4], [0.5, 0.5])
        )
        assert len(checks) == 6
        assert all(c.ok for c in checks)
        names = {c.name for c in checks}
        assert "zeta2_sum<=entrywise_sum" in names
        assert "zeta2_randomsum<=mixture_bound" in names

    def test_builds_one_sum_law_per_side_per_mixture(self, monkeypatch):
        built = []
        init = SumLaw.__init__
        monkeypatch.setattr(SumLaw, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
        x_entries, y_entries = [Rademacher()] * 4, [Normal(0.0, 1.0)] * 4
        semi_additivity_check(x_entries, y_entries, s_values=(1, 2))
        assert len(built) == 2  # the two full sums
        built.clear()
        # an index shorter than the entry lists reads only its prefixes
        checks = semi_additivity_check(x_entries, y_entries, s_values=(1, 2),
                                       index=FiniteIndex([1, 2, 3], [0.25, 0.25, 0.5]))
        assert all(c.ok for c in checks)
        assert len(built) == 4  # and one mixture per side, whatever the s values

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ValueError):
            semi_additivity_check([Rademacher()], [])

    def test_prefix_laws_fold_each_entry_once(self, monkeypatch):
        calls = []
        real = metrics_module._extend_sum
        real_stretch = metrics_module._fold_stretch

        def counted(*args):
            calls.append(args)
            return real(*args)

        def counted_stretch(values, probs, steps, *rest):
            # each step of a two-atom stretch is one fold
            calls.extend(steps)
            return real_stretch(values, probs, steps, *rest)

        monkeypatch.setattr(metrics_module, "_extend_sum", counted)
        monkeypatch.setattr(metrics_module, "_fold_stretch", counted_stretch)
        checks = semi_additivity_check(
            [Rademacher()] * 12, [Normal(0.0, 1.0)] * 12, s_values=(1,),
            index=FiniteIndex(list(range(1, 13)), [1.0 / 12.0] * 12),
        )
        assert all(c.ok for c in checks)
        # the two full sums and the two prefix families, one fold each
        assert len(calls) == 4 * 12

    def test_prefix_fold_matches_sums_from_scratch(self):
        entries = [Rademacher(), FiniteDiscrete([-0.3, 0.1, 0.7], [0.2, 0.5, 0.3]),
                   Normal(0.0, 0.5), Rademacher()]
        ks = [1, 2, 4]
        for k, state in zip(ks, metrics_module._partial_sums(entries, ks)):
            law = SumLaw(*state)
            scratch = sum_of_independent(entries[:k])
            assert np.array_equal(law._values, scratch._values)
            assert np.array_equal(law._probs, scratch._probs)
            assert law.descriptor() == scratch.descriptor()


class TestMixtureDistances:
    def test_delta_mixture_weights_per_length_distances(self):
        idx = FiniteIndex([4, 9], [0.5, 0.5])
        est = delta_mixture(RAD, idx, 9, mode="prefix")
        d4 = kolmogorov(row_sum_law(RAD, 9, 4), PHI).value
        d9 = kolmogorov(row_sum_law(RAD, 9, 9), PHI).value
        assert est.value == pytest.approx(0.5 * d4 + 0.5 * d9, rel=1e-12)

    def test_delta_randomsum_below_mixture(self):
        idx = Geometric(0.4)
        sup = delta_randomsum(RAD, idx, 12, mode="prefix")
        mix = delta_mixture(RAD, idx, 12, mode="prefix")
        assert sup.value <= mix.value + 1e-12

    def test_rows_mode_uses_each_rows_normalizer(self):
        idx = FiniteIndex([2, 4], [0.5, 0.5])
        est = delta_mixture(SHIRYAEV, idx, 4, mode="rows")
        # every complete shiryaev row sums to an exact standard normal
        assert est.value <= 1e-12

    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    @pytest.mark.parametrize("distance", [delta_mixture, delta_randomsum],
                             ids=["mixture", "randomsum"])
    @pytest.mark.parametrize(
        "array",
        [make_iid_array(Uniform(-1.0, 1.0)),
         from_series(SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp"))],
        ids=["iid-uniform", "ramp"],
    )
    def test_rows_with_no_exact_law_raise(self, array, distance, mode):
        # uniform entries have no exact sum law; empirical_delta samples them
        with pytest.raises(ConvolutionError, match="empirical_delta"):
            distance(array, ShiftedPoisson(8.0), 8, mode=mode)

    def test_normal_rows_never_search_the_grid(self, monkeypatch):
        searched = []
        gaps = metrics_module._gaps
        monkeypatch.setattr(metrics_module, "_gaps", lambda *a: searched.append(a) or gaps(*a))
        solves = []
        solve = metrics_module._normal_kolmogorov
        monkeypatch.setattr(metrics_module, "_normal_kolmogorov",
                            lambda *a: solves.append((a, solve(*a))) or solves[-1][1])
        idx = ShiftedPoisson(8.0)
        array = from_series(shiryaev_series())
        est = delta_mixture(array, idx, 8, mode="rows")
        ks = np.arange(1, idx.truncation(1e-10) + 1)
        totals = [np.cumsum(array.normal_variances(k))[-1] for k in ks[idx.pmf(ks) != 0.0]]
        # one solve covers the distinct complete-row variances, and
        # certifies each of them
        assert [args[1].tobytes() for args, _ in solves] == [np.unique(totals).tobytes()]
        value, bound, grid = solves[0][1]
        assert not np.isnan(value).any() and (grid <= 2).all()
        assert searched == []
        assert est.value <= 1e-14
        assert est.bound <= 1e-10 + 1e-14

    def test_mixture_rounding_is_in_the_bound(self):
        # atomic rows and a finite index: every per-k bound and the tail
        # are 0, so only the rounding of the K-term sum is left to cover
        per_k = [kolmogorov(row_sum_law(RARE, 16, k), Normal(0, 1)) for k in range(1, 6)]
        idx = FiniteIndex(range(1, 6), [0.2] * 5)
        est = delta_mixture(RARE, idx, 16)
        weights = idx.pmf(np.arange(1, 6))
        mixed = sum(Fraction(float(w)) * Fraction(e.value) for w, e in zip(weights, per_k))
        assert all(e.bound == 0.0 for e in per_k)
        assert Fraction(est.value) != mixed
        assert abs(Fraction(est.value) - mixed) <= Fraction(est.bound)
        assert est.bound == rounding_gamma(5) * est.value

    @staticmethod
    def per_k_loop(array, index, n, mode, reference=PHI):
        """delta_mixture's value and bound, one searched distance per k."""
        trunc_k = index.truncation(1e-10)
        ks = np.arange(1, trunc_k + 1)
        value = 0.0
        for k, w in zip(ks, index.pmf(ks)):
            if w == 0.0:
                continue
            law = row_sum_law(array, n, int(k)) if mode == "prefix" else row_sum_law(array, int(k))
            value += w * float(np.max(metrics_module._gaps(law, reference, law.atoms()[0])))
        bound = float(index.tail_mass(trunc_k)) + rounding_gamma(int(trunc_k)) * value
        return float(value), float(bound)

    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    def test_streamed_distances_equal_a_per_k_loop(self, mode):
        # index values 2, 4, 5 and 7 carry no weight, one of them explicitly
        idx = FiniteIndex([1, 3, 5, 6, 8], [0.3, 0.2, 0.0, 0.1, 0.4])
        for array in (RARE, RAD, make_iid_array(TwoPoint(-1.0, 2.0, 0.6))):
            est = delta_mixture(array, idx, 12, mode=mode)
            assert (est.value, est.bound) == self.per_k_loop(array, idx, 12, mode)
            assert set(est.params) == {"eta", "truncation_k"}

    def test_atomic_reference_keeps_the_searched_distances(self):
        reference = FiniteDiscrete([-1.0, 0.0, 0.5, 1.0], [0.25, 0.25, 0.25, 0.25])
        idx = FiniteIndex([2, 4, 6], [0.5, 0.25, 0.25])
        est = delta_mixture(RAD, idx, 6, reference=reference)
        assert (est.value, est.bound) == self.per_k_loop(RAD, idx, 6, "prefix", reference)

    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    def test_block_size_does_not_move_a_bit(self, mode, monkeypatch):
        # rows mode folds every row from scratch, so it gets a shorter index
        idx = Geometric(1.0 / 16.0 if mode == "prefix" else 0.25)
        whole = delta_mixture(RARE, idx, 16, mode=mode).to_json_dict()
        monkeypatch.setattr(metrics_module, "MIXTURE_BLOCK_POINTS", 1)
        assert delta_mixture(RARE, idx, 16, mode=mode).to_json_dict() == whole

    def test_atomic_rows_build_no_sum_law(self, monkeypatch):
        built = []
        init = SumLaw.__init__
        monkeypatch.setattr(SumLaw, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
        delta_mixture(RARE, Geometric(1.0 / 16.0), 16)
        assert built == []

    @pytest.mark.parametrize(
        "n,value,bound",
        [
            (4, 0.31136227097866714, 7.585397885560476e-11),
            (16, 0.3125283071910189, 9.858259543840467e-11),
            (64, 0.31355904070619345, 9.866114649284427e-11),
        ],
    )
    def test_rare_jump_geometric_values_are_frozen(self, n, value, bound):
        est = delta_mixture(RARE, Geometric(1.0 / n), n, 1e-10)
        assert (est.value, est.bound) == (value, bound)

    @staticmethod
    def rare_jump_random_sum_ks(n):
        """sup_x |P(S_nu <= x) - Phi(x)| on rare-jump row n with nu geometric
        of mean n, from the exact lattice law of the random sum.

        Each entry is ((n + 1) B - 1) / n with B Bernoulli(1 / (n + 1)), so
        n S_nu = (n + 1) J - nu with J binomial(nu, 1 / (n + 1)) given nu.
        P(nu = k) = (1 - q)^(k - 1) q with q = 1 / n, summed until the tail
        (1 - q)^top is below 1e-18.
        """
        q = 1.0 / n
        top = math.ceil(math.log(1e-18) / math.log1p(-q))
        offset = top
        pmf = np.zeros((n + 2) * top)
        for k in range(1, top + 1):
            j = np.arange(k + 1)
            np.add.at(pmf, (n + 1) * j - k + offset,
                      q * (1.0 - q) ** (k - 1) * binom.pmf(j, k, 1.0 / (n + 1)))
        where = np.flatnonzero(pmf)
        through = np.cumsum(pmf)[where]
        below = through - pmf[where]
        phi = ndtr((where - offset) / n)
        return float(max(np.max(np.abs(below - phi)), np.max(np.abs(through - phi))))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_randomsum_against_the_exact_lattice_law(self, n):
        est = delta_randomsum(RARE, Geometric.from_mean(float(n)), n)
        assert est.method == "mixture"
        assert abs(est.value - self.rare_jump_random_sum_ks(n)) <= est.bound

    def test_one_law_rows_build_no_entry(self, monkeypatch):
        built = []
        entry = TriangularArray.entry
        monkeypatch.setattr(TriangularArray, "entry", lambda *a: built.append(a) or entry(*a))
        idx = ShiftedPoisson(6.0)
        for mode in ("prefix", "rows"):
            delta_mixture(RAD, idx, 6, mode=mode)
            delta_randomsum(RARE, idx, 6, mode=mode)
        row_sum_law(RARE, 12)
        assert built == []

    @pytest.mark.parametrize("array", [RARE, SHIRYAEV], ids=["rare-jump", "shiryaev"])
    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    def test_randomsum_builds_one_sum_law(self, monkeypatch, array, mode):
        built = []
        init = SumLaw.__init__
        monkeypatch.setattr(SumLaw, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
        delta_randomsum(array, ShiftedPoisson(6.0), 6, mode=mode)
        assert built == [1]

    def test_randomsum_of_normal_rows_is_one_normal_law(self):
        # every complete Shiryaev row sums to N(0, 1): the per-k laws merge
        # into that one law, whose distance is exact; what the bound keeps
        # is the index tail past the truncation
        index = Geometric.from_mean(16.0)
        trunc_k = index.truncation(1e-6)
        ks = np.arange(1, trunc_k + 1)
        law = metrics_module._mixture(
            metrics_module._per_k_sums(SHIRYAEV, ks, 16, "rows"), index.pmf(ks)
        )
        assert law.normal_params() == (0.0, 1.0)
        est = delta_randomsum(SHIRYAEV, index, 16, 1e-6, mode="rows")
        assert est.value <= 1e-14
        assert est.bound - float(index.tail_mass(trunc_k)) <= 1e-14

    @pytest.mark.parametrize("distance", [delta_mixture, delta_randomsum])
    def test_overflowing_prefix_variance_raises(self, distance):
        # row 64's prefix variances sum past the largest float at 1,088
        with pytest.raises(ConvolutionError, match="not finite from position 1088"):
            distance(SHIRYAEV, Geometric.from_mean(64.0), 64, mode="prefix")

    def test_rows_mode_normal_rows_fold_nothing(self, monkeypatch):
        built = []
        entry = TriangularArray.entry
        monkeypatch.setattr(TriangularArray, "entry", lambda *a: built.append(a) or entry(*a))
        folds = []
        extend = metrics_module._extend_sum
        monkeypatch.setattr(metrics_module, "_extend_sum", lambda *a: folds.append(1) or extend(*a))
        idx = ShiftedPoisson(256.0)
        est = delta_mixture(from_series(shiryaev_series()), idx, 256, mode="rows")
        assert est.value <= 1e-14
        assert len(built) <= 2 * idx.truncation(1e-10)
        assert folds == []

    @pytest.mark.parametrize(
        "array", [SHIRYAEV, from_series(shiryaev_series()), from_series(shiryaev_series(), "2n")]
    )
    def test_normal_row_laws_equal_the_fold(self, array):
        # N(0, prefix variance) with the variances added as the fold adds them
        for n, k in [(5, None), (40, None), (6, 25)]:
            folded = sum_of_independent(
                [array.entry(n, j) for j in range(1, (k or array.row_length(n)) + 1)]
            )
            assert row_sum_law(array, n, k).descriptor() == folded.descriptor()
        idx = ShiftedPoisson(12.0)
        lengths = np.arange(1, idx.truncation(1e-10) + 1)
        laws = [SumLaw(*state) for state in metrics_module._per_k_sums(array, lengths, 12, "prefix")]
        folded = metrics_module._partial_sums((array.entry(12, j) for j in lengths), lengths)
        assert [law.descriptor() for law in laws] == [SumLaw(*state).descriptor() for state in folded]

    def test_estimate_serialization(self):
        est = delta_mixture(RAD, FiniteIndex([4], [1.0]), 4)
        d = est.to_json_dict()
        assert set(d) >= {"value", "bound", "method"}


class TestMixture:
    def test_cdf_is_convex_combination(self):
        mix = mixture([PHI, Normal(1.0, 1.0)], [0.25, 0.75])
        xs = np.linspace(-3, 4, 11)
        expected = 0.25 * ndtr(xs) + 0.75 * ndtr(xs - 1.0)
        assert np.allclose(mix.cdf(xs), expected, atol=1e-14)
        assert mix.mean == pytest.approx(0.75)

    def test_shared_atoms_merge_like_a_sequential_sum(self):
        # the three components share the atom 1/3 with weighted masses 0.1,
        # 0.2 and 0.3, whose float sum depends on the order: (0.1 + 0.2) + 0.3
        # != (0.3 + 0.2) + 0.1.  Runs of equal values add left to right.
        parts = [
            FiniteDiscrete([0.0, 1.0 / 3.0, 2.0], [0.2, 0.4, 0.4]),
            FiniteDiscrete([2.0, 1.0 / 3.0], [0.2, 0.8]),
            FiniteDiscrete([1.0 / 3.0, 0.0, -1.0], [0.6, 0.3, 0.1]),
        ]
        weights = [0.25, 0.25, 0.5]
        mix = mixture(parts, weights)
        pairs = sorted(
            ((v, p * w) for c, w in zip(parts, weights) for v, p in zip(*c.atoms())),
            key=lambda vp: vp[0],
        )
        expected = {}
        for v, p in pairs:
            expected[v] = expected[v] + p if v in expected else p
        values, probs = mix.atoms()
        assert values.tolist() == list(expected)
        assert probs.tolist() == list(expected.values())
        assert probs[2] == (0.1 + 0.2) + 0.3

    def test_atoms_merge_across_components(self):
        a = FiniteDiscrete([0.0, 1.0], [0.5, 0.5])
        b = FiniteDiscrete([1.0, 2.0], [0.5, 0.5])
        mix = mixture([a, b], [0.5, 0.5])
        values, probs = mix.atoms()
        assert list(values) == [0.0, 1.0, 2.0]
        assert list(probs) == pytest.approx([0.25, 0.5, 0.25])
