"""Tests of the benchmark's oracles and checks.

    python3 -m pytest perfbench/oracle_tests.py

The file name keeps the repository's own test run from collecting it.
The oracles are checked against brute force and quadrature; every check
must pass on an output that sits at its expected value, must pass on one
moved by less than the reported bound, and must fail on one moved by
more than the bound plus the largest allowance.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import binom

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# larger than every allowance the checks grant
MOVE = 1e-5
BOUND = 1e-9


def brute_two_point_distance(k, low, high, p_high):
    """Enumerate all 2^k outcomes of k two-point entries."""
    law = {}
    for picks in itertools.product((0, 1), repeat=k):
        value = sum(high if b else low for b in picks)
        prob = math.prod(p_high if b else 1.0 - p_high for b in picks)
        key = round(value, 12)
        law[key] = law.get(key, 0.0) + prob
    atoms = sorted(law)
    below = 0.0
    worst = 0.0
    for x in atoms:
        phi = float(ndtr(x))
        worst = max(worst, abs(below - phi), abs(below + law[x] - phi))
        below += law[x]
    return worst


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 10])
@pytest.mark.parametrize("n", [4, 16])
def test_binomial_oracle_matches_enumeration(k, n):
    entry = oracles.rare_jump_entry(n)
    assert oracles.two_point_sum_distance(k, *entry) == pytest.approx(
        brute_two_point_distance(k, *entry), abs=1e-13)
    entry = oracles.iid_two_point_entry(n, -1.0, 2.0, 0.6)
    assert oracles.two_point_sum_distance(k, *entry) == pytest.approx(
        brute_two_point_distance(k, *entry), abs=1e-13)


def test_two_point_entry_is_standardized():
    for n in (4, 32):
        for low, high, p_high in (oracles.rare_jump_entry(n),
                                  oracles.iid_two_point_entry(n, -1.0, 2.0, 0.7)):
            mean = (1 - p_high) * low + p_high * high
            second = (1 - p_high) * low**2 + p_high * high**2
            assert mean == pytest.approx(0.0, abs=1e-15)
            assert second == pytest.approx(1.0 / n, rel=1e-14)


def test_exponential_closed_forms_match_quadrature():
    abs3, _ = integrate.quad(lambda x: abs(x - 1.0) ** 3 * math.exp(-x), 0, 1, epsabs=1e-14)
    tail, _ = integrate.quad(lambda x: (x - 1.0) ** 3 * math.exp(-x), 1, np.inf, epsabs=1e-14)
    assert oracles.EXP_ABS3 == pytest.approx(abs3 + tail, rel=1e-12)
    for t in (0.2, 0.7, 1.0, 1.2, 4.8):
        upper, _ = integrate.quad(lambda x: (x - 1.0) ** 2 * math.exp(-x), 1 + t, np.inf,
                                  epsabs=1e-14)
        lower = 0.0
        if t < 1:
            lower, _ = integrate.quad(lambda x: (x - 1.0) ** 2 * math.exp(-x), 0, 1 - t,
                                      epsabs=1e-14)
        assert oracles.exp_lindeberg(t) == pytest.approx(upper + lower, rel=1e-10)


def _quad(f, a, b, points=None):
    return integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400, points=points)[0]


def _normal_rotar_by_quadrature(cdf, sigma, eps, points):
    """int_{|x| >= eps} |x| |F(x) - Phi(x / sigma)| dx, piece by piece."""
    def f(x):
        return abs(x) * abs(cdf(x) - ndtr(x / sigma))

    edges = sorted({eps, *[p for p in points if p > eps], 40.0 * sigma + 2.0})
    right = sum(_quad(f, a, b) for a, b in zip(edges[:-1], edges[1:]))
    edges = sorted({-eps, *[p for p in points if p < -eps], -40.0 * sigma - 2.0})
    left = sum(_quad(f, a, b) for a, b in zip(edges[:-1], edges[1:]))
    return left + right


@pytest.mark.parametrize("n", [4, 32])
def test_uniform_entry_matches_quadrature(n):
    e = oracles.UniformEntry(math.sqrt(3.0 / n))
    a = e.a
    for eps in (0.3, 0.5):
        tail = _quad(lambda x: x * x / a, eps, a) if eps < a else 0.0
        assert e.trunc2(eps) == pytest.approx(tail, rel=1e-12, abs=1e-16)
        assert e.tail_prob(eps) == pytest.approx(max(a - eps, 0.0) / a, rel=1e-14, abs=1e-16)
        rotar = _normal_rotar_by_quadrature(lambda x: min(max((x + a) / (2 * a), 0.0), 1.0),
                                            math.sqrt(e.variance), eps, (-a, a))
        assert e.rotar(eps) == pytest.approx(rotar, rel=1e-9, abs=1e-13)
    assert e.variance == pytest.approx(1.0 / n, rel=1e-14)
    assert e.abs_moment(3.0) == pytest.approx(_quad(lambda x: x**3 / a, 0, a), rel=1e-12)
    assert e.ratio() == pytest.approx(_quad(lambda x: x * x / (1 + x * x) / a, 0, a), rel=1e-12)
    for t in (0.5, 1.0, 2.0):
        cf = _quad(lambda x: math.cos(t * x) / a, 0, a)
        assert e.cf_deviation(t) == pytest.approx(1.0 - cf, rel=1e-10)


@pytest.mark.parametrize("variance", [2.0**-5, 0.5, 64.0])
def test_normal_entry_matches_quadrature(variance):
    e = oracles.NormalEntry(variance)
    sigma = math.sqrt(variance)

    def density(x):
        return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    def expect(f, lo=-np.inf, hi=np.inf):
        return _quad(lambda x: f(x) * density(x), lo, hi)

    for eps in (0.3, 0.5):
        assert e.trunc2(eps) == pytest.approx(2 * expect(lambda x: x * x, eps), rel=1e-10)
        assert e.tail_prob(eps) == pytest.approx(2 * expect(lambda x: 1.0, eps), rel=1e-10)
    assert e.abs_moment(3.0) == pytest.approx(2 * expect(lambda x: x**3, 0.0), rel=1e-10)
    assert e.ratio() == pytest.approx(expect(lambda x: x * x / (1 + x * x)), rel=1e-10)
    for t in (0.5, 2.0):
        assert e.cf_deviation(t) == pytest.approx(1 - expect(lambda x: math.cos(t * x)),
                                                  rel=1e-9)


@pytest.mark.parametrize("n", [4, 32])
def test_atomic_entry_rotar_matches_quadrature(n):
    low, high, p_high = oracles.rare_jump_entry(n)
    e = oracles.AtomicEntry(((low, 1 - p_high), (high, p_high)))
    assert e.variance == pytest.approx(1.0 / n, rel=1e-14)

    def cdf(x):
        return 0.0 if x <= low else (1.0 - p_high if x <= high else 1.0)

    for eps in (0.3, 0.5):
        rotar = _normal_rotar_by_quadrature(cdf, math.sqrt(e.variance), eps, (low, high))
        assert e.rotar(eps) == pytest.approx(rotar, rel=1e-9, abs=1e-13)
    t = 1.0
    cf = (1 - p_high) * complex(math.cos(t * low), math.sin(t * low)) + p_high * complex(
        math.cos(t * high), math.sin(t * high))
    assert e.cf_deviation(t) == pytest.approx(abs(cf - 1.0), rel=1e-14)


@pytest.mark.parametrize("n", [4, 16])
def test_randomized_shiryaev_feller_closed_form(n):
    """E[max_{j <= nu} var_j] = 2^-n e^(n-1) + e^-(n-1) (2^(1-n) - 2^-n) for nu = 1 + Poi(n-1)."""
    lam = n - 1.0
    exact = 2.0**-n * math.exp(lam) + math.exp(-lam) * (2.0 ** (1 - n) - 2.0**-n)
    row = {"functional": "rand_feller", "n": n, "epsilon": 0.3, "delta": 1.0}
    assert oracles.condition_value({"array": "shiryaev"}, "poisson", row) == pytest.approx(
        exact, rel=1e-13)


@pytest.mark.parametrize("n", [4, 16])
def test_rare_jump_random_sum_law_matches_cdf_sum(n):
    """The lattice law against P(S_nu <= x) = sum_k P(nu = k) P(J <= (n x + k)/(n + 1))."""
    own, trunc = oracles.rare_jump_random_sum_distance(n, "geometric")
    pmf, _ = oracles.index_law("geometric", n)
    ks = np.arange(1, trunc + 1)
    weights = pmf(ks)
    p = 1.0 / (n + 1)
    worst = 0.0
    for m in range(-trunc, trunc * n + 1):
        if not np.any((m + ks) % (n + 1) == 0):
            continue  # no atom at m / n
        at = float(np.dot(weights, binom.cdf((m + ks) // (n + 1), ks, p)))
        below = float(np.dot(weights, binom.cdf(-((-(m + ks)) // (n + 1)) - 1, ks, p)))
        phi = float(ndtr(m / n))
        worst = max(worst, abs(at - phi), abs(below - phi))
    assert own == pytest.approx(worst, abs=1e-13)


def test_normal_scale_distance_matches_grid():
    xs = np.linspace(-40, 40, 400_001)
    for s in (0.25, 0.9, 1.5, 8.0):
        grid = float(np.max(np.abs(ndtr(xs / s) - ndtr(xs))))
        assert oracles.normal_scale_distance(s) == pytest.approx(grid, abs=1e-7)


def test_poisson_gamma_distance_matches_dense_grid():
    from scipy.special import gammainc
    from scipy.stats import poisson

    n = 16
    ks = np.arange(1, 80)[:, None]
    weights = poisson.pmf(ks[:, 0] - 1, n - 1.0)
    xs = np.linspace(-6, 6, 240_001)
    mixture = weights @ gammainc(ks, np.maximum(ks + 4.0 * xs[None, :], 0.0))
    dense = float(np.max(np.abs(mixture - ndtr(xs))))
    assert oracles.poisson_gamma_distance(n) == pytest.approx(dense, abs=1e-7)


@pytest.mark.parametrize("family", ["poisson", "geometric"])
def test_truncation_point_is_smallest(family):
    for n in (4, 16, 64):
        _, tail = oracles.index_law(family, n)
        k = oracles.truncation_point(tail)
        assert tail(k) <= oracles.ETA and (k == 1 or tail(k - 1) > oracles.ETA)


def test_within_threshold_is_bound_plus_allowance():
    allowance = oracles.roundoff(357)
    edge = BOUND + allowance
    assert oracles.within("x", 0.5 + 0.99 * edge, 0.5, BOUND, allowance).ok
    assert not oracles.within("x", 0.5 + 1.01 * edge, 0.5, BOUND, allowance).ok
    assert not oracles.within("x", 0.5 - 1.01 * edge, 0.5, BOUND, allowance).ok


# ---------------------------------------------------------------------------
# every check: passes at the expected value, fails when moved past its bound
# ---------------------------------------------------------------------------


def _row(n, metric, value, eps=None, key="metric", bound=BOUND):
    return {"n": n, "epsilon": eps, key: metric, "value": value, "error_bound": bound}


def _exact_normal(n, metric):
    """A distance checked against the fixed limit EXACT_NORMAL_TOL, not its bound."""
    return _row(n, metric, 0.0, bound=0.0)


def lyapunov_doc():
    n, eps = 16, 0.3
    rows = [_row(n, "lyapunov", oracles.EXP_ABS3 / 4.0, eps),
            _row(n, "rand_lyapunov", oracles.EXP_ABS3 / 4.0, eps),
            _row(n, "rand_lindeberg", oracles.exp_lindeberg(eps * 4.0), eps),
            _row(n, "empirical_delta", oracles.poisson_gamma_distance(n))]
    rows[-1]["error_bound"] = 0.005
    return oracles.check_study_lyapunov, {"config": {"grids": {"n": [n], "epsilon": [eps]}},
                                          "rows": rows, "errors": []}


def rare_jump_doc():
    n = 16
    mixture, _ = oracles.index_mixture(
        n, "geometric", lambda k: oracles.two_point_sum_distance(k, *oracles.rare_jump_entry(n)))
    own, _ = oracles.rare_jump_random_sum_distance(n, "geometric")
    rows = [_row(n, "delta_mixture", mixture), _row(n, "rand_feller", 1 / n, 0.5),
            _row(n, "rand_lindeberg", n / (n + 1), 0.5),
            _row(n, "rand_infinitesimality", 1 / (n + 1), 0.5),
            _row(n, "empirical_delta", own)]
    rows[-1]["error_bound"] = 0.005
    return oracles.check_study_rare_jump, {"config": {"grids": {"n": [n]}}, "rows": rows,
                                           "errors": []}


def series_doc():
    n = 16
    rows = [_row(n, "feller", 0.5, 0.5), _row(n, "rotar", 0.0, 0.5),
            _exact_normal(n, "delta_mixture"), _row(n, "empirical_delta", 0.0)]
    return oracles.check_study_series, {"config": {"grids": {"n": [n]}}, "rows": rows,
                                        "errors": []}


FUNCTIONALS = ("lindeberg", "lyapunov", "feller", "infinitesimality", "infinitesimality_ratio",
               "cf_deviation@t=0.5", "cf_deviation@t=1", "cf_deviation@t=2", "rotar",
               "sigma_star", "rand_lindeberg", "rand_lyapunov", "rand_feller",
               "rand_infinitesimality", "rand_rotar", "rand_sigma_star")


def conditions_doc(array):
    rows = []
    for n in (4, 8):
        for eps in (0.3, 0.5):
            for name in FUNCTIONALS:
                row = _row(n, name, None, eps, key="functional")
                row["delta"] = 1.0
                row["value"] = oracles.condition_value(array, "poisson", row)
                rows.append(row)
    config = {"array": array, "index": {"family": "poisson", "mean": "n"},
              "grids": {"n": [4, 8]}}
    return oracles.check_conditions, {"config": config, "rows": rows, "errors": []}


def distances_doc(array):
    rows = []
    for n in (4, 8):
        kind = array["array"]
        if kind == "series":
            rows += [_exact_normal(n, "kolmogorov_row"), _exact_normal(n, "delta_mixture"),
                     _row(n, "empirical_delta", 0.0)]
        elif kind == "shiryaev":
            mix, _ = oracles.index_mixture(
                n, "poisson",
                lambda k: oracles.normal_scale_distance(oracles.shiryaev_prefix_sd(n, k)))
            rows += [_exact_normal(n, "kolmogorov_row"), _row(n, "delta_mixture", mix)]
        else:
            entry = (oracles.rare_jump_entry(n) if kind == "rare-jump" else
                     oracles.iid_two_point_entry(n, -1.0, 2.0, array["base"]["p_low"]))
            mix, _ = oracles.index_mixture(
                n, "poisson", lambda k: oracles.two_point_sum_distance(k, *entry))
            rows += [_row(n, "kolmogorov_row", oracles.two_point_sum_distance(n, *entry)),
                     _row(n, "delta_mixture", mix)]
    return oracles.check_distances, {"config": {"array": array}, "rows": rows, "errors": []}


DOCS = {
    "study_lyapunov": lyapunov_doc,
    "study_rare_jump": rare_jump_doc,
    "study_series": series_doc,
    "conditions_rare": lambda: conditions_doc({"array": "rare-jump"}),
    "conditions_iid": lambda: conditions_doc(
        {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}}),
    "conditions_shiryaev": lambda: conditions_doc({"array": "shiryaev"}),
    "conditions_series": lambda: conditions_doc({"array": "series", "base_seq": "shiryaev"}),
    "distances_rare": lambda: distances_doc({"array": "rare-jump"}),
    "distances_iid": lambda: distances_doc(
        {"array": "iid", "base": {"family": "two-point", "low": -1.0, "high": 2.0,
                                  "p_low": 0.6}}),
    "distances_shiryaev": lambda: distances_doc({"array": "shiryaev"}),
    "distances_series": lambda: distances_doc({"array": "series", "base_seq": "shiryaev"}),
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_every_checked_value_fails_when_moved_past_its_bound(name):
    check, doc = DOCS[name]()
    checks = check(doc)
    assert checks and not oracles.failures(checks), oracles.failures(checks)
    for row in doc["rows"]:
        original = row["value"]
        for delta in (0.9 * row["error_bound"], -0.9 * row["error_bound"]):
            row["value"] = original + delta
            assert not oracles.failures(check(doc)), (row, delta)
        row["value"] = original + row["error_bound"] + MOVE
        failed = oracles.failures(check(doc))
        assert failed, f"{row} moved past its bound still passes"
        row["value"] = original


def test_outputs_without_an_oracle_fail():
    check, doc = DOCS["conditions_rare"]()
    doc["rows"].append(_row(4, "new_functional", 0.1, 0.3, key="functional"))
    assert [c.name for c in oracles.failures(check(doc))] == ["new_functional@n=4"]
    check, doc = DOCS["study_rare_jump"]()
    del doc["rows"][-1]
    assert [c.name for c in oracles.failures(check(doc))] == ["empirical_delta@n=16"]


def test_only_randomized_functionals_of_growing_rows_carry_the_known_fault():
    for name in ("conditions_shiryaev", "conditions_series", "conditions_rare"):
        check, doc = DOCS[name]()
        for row in doc["rows"]:
            row["value"] += row["error_bound"] + MOVE
        failed = oracles.failures(check(doc))
        assert len(failed) == len(doc["rows"])
        growing = name != "conditions_rare"
        assert all((c.fault is not None) == (growing and c.name.startswith("rand_"))
                   for c in failed)


def test_error_cells_fail():
    check, doc = DOCS["conditions_rare"]()
    doc["errors"] = [{"n": 4, "error": "QuadratureError: x"}]
    assert oracles.failures(check(doc))


def test_selfcheck_and_counterexample_checks():
    good = {"passed": True, "checks": [{"name": "a", "passed": True}]}
    assert not oracles.failures(oracles.check_selfcheck(good))
    bad = {"passed": True, "checks": [{"name": "a", "passed": False}]}
    assert oracles.failures(oracles.check_selfcheck(bad))
    findings = {"findings": [{"finding": "f", "passed": False, "detail": ""}]}
    assert oracles.failures(oracles.check_counterexample(findings))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_only_cost_neutral_inputs(workload):
    def shape(ops):
        return sorted((op.name, op.command, op.output,
                       str((op.config or {}).get("grids", {}).get("n"))) for op in ops)

    a, b = WORKLOADS[workload](1), WORKLOADS[workload](2)
    assert shape(a) == shape(b)
    assert WORKLOADS[workload](1) == a
    assert all(isinstance(op, Op) for op in a)
