"""Acceptance gate: one test per shipped guarantee, time budgets included.

Each test is self-contained and oracle-backed; `pytest -v` prints one
pass/fail line per criterion.
"""

import math
import os
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest
from scipy.stats import binom

import randsum
import randsum.metrics as metrics_module
from randsum.arrays import (
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    shiryaev_series,
)
from randsum.conditions import (
    feller,
    implication_suite,
    infinitesimality,
    lindeberg,
    lyapunov,
    randomized,
    rotar,
    series_implication_suite,
    sigma_star,
)
from randsum.distributions import (
    CenteredExponential,
    Deterministic,
    FiniteDiscrete,
    FiniteIndex,
    Geometric,
    Normal,
    Rademacher,
    ScalarDistribution,
    ShiftedNegativeBinomial,
    ShiftedPoisson,
    TwoPoint,
    Uniform,
    scale,
)
from randsum.engine import (
    builtin_plan,
    empirical_delta,
    run_study,
    sample_random_sums,
    spawn_streams,
)
from randsum.metrics import (
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

SHIRYAEV = make_shiryaev_array()
RARE = make_rare_jump_array()

THREE_ATOM = FiniteDiscrete([-math.sqrt(2.0), 0.0, math.sqrt(2.0)], [0.25, 0.5, 0.25])
_RAD = Rademacher()
_STD_NORMAL = Normal(0.0, 1.0)
# (f, g, s): the laws and orders of the zeta sandwich
ZETA_SANDWICH_PAIRS = [
    (Normal(0.0, 1.0), Normal(0.0, 4.0), 1),
    (Uniform(-1.0, 1.0), Normal(0.0, 1.0 / 3.0), 1),
    (_RAD, Uniform(-1.0, 1.0), 1),
    (CenteredExponential(1.0), _STD_NORMAL, 1),
    (TwoPoint(-0.25, 1.0, 0.8), Normal(0.0, 0.25), 1),
    (scale(_RAD, 0.5), Uniform(-0.5, 0.5), 1),
    (FiniteDiscrete([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5]), _STD_NORMAL, 1),
    (_RAD, _STD_NORMAL, 2),
    (Uniform(-1.0, 1.0), _STD_NORMAL, 2),
    (CenteredExponential(2.0), Normal(0.0, 0.25), 2),
    (TwoPoint(-0.25, 1.0, 0.8), _RAD, 2),
    (scale(Uniform(-1.0, 1.0), 2.0), _STD_NORMAL, 2),
    (FiniteDiscrete([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3]), Normal(0.0, 0.6), 2),
    (Normal(0.0, 1.0), Normal(0.0, 2.0), 2),
    (_RAD, _STD_NORMAL, 3),
    (Uniform(-math.sqrt(3.0), math.sqrt(3.0)), _STD_NORMAL, 3),
    (THREE_ATOM, _RAD, 3),
    (CenteredExponential(1.0), _STD_NORMAL, 3),
    (TwoPoint(-0.5, 2.0, 0.8), _STD_NORMAL, 3),
    (scale(_RAD, 2.0), Normal(0.0, 4.0), 3),
]


def binomial_ks_oracle(k: int) -> float:
    # standardized rademacher sum: atoms (2i-k)/sqrt(k), binomial weights;
    # the sup against Phi is attained at an atom from one side or the other
    xs = (2.0 * np.arange(k + 1) - k) / math.sqrt(k)
    probs = binom.pmf(np.arange(k + 1), k, 0.5)
    cum = np.cumsum(probs)
    target = Normal(0.0, 1.0)
    phi = np.array([target.cdf(x) for x in xs])
    left = np.abs(phi - np.concatenate(([0.0], cum[:-1])))
    right = np.abs(phi - cum)
    return float(max(left.max(), right.max()))


def test_criterion_1_shiryaev_counterexample_suite():
    t0 = time.perf_counter()
    k_grid = (4, 8, 16, 32)
    target = Normal(0.0, 1.0)

    for k in k_grid:
        assert abs(feller(SHIRYAEV, k) - 0.5) <= 1e-12
        for eps in (0.1, 0.5, 1.0):
            assert rotar(SHIRYAEV, k, eps) <= 1e-8
        assert kolmogorov(row_sum_law(SHIRYAEV, k), target).value <= 1e-10

    # Monte Carlo oracle for the Lindeberg sum at eps = 0.5: per-entry
    # sample means of X^2 1{|X| >= eps}, standard errors combined in
    # quadrature across the row
    rng = spawn_streams(11, 1)[0]
    draws_per_entry = 100_000
    lind_values = []
    for k in k_grid:
        value = lindeberg(SHIRYAEV, k, 0.5)
        lind_values.append(value)
        oracle = 0.0
        var_of_mean = 0.0
        for j in range(1, k + 1):
            x = rng.normal(0.0, SHIRYAEV.entry(k, j).std, size=draws_per_entry)
            contrib = np.where(np.abs(x) >= 0.5, x * x, 0.0)
            oracle += float(contrib.mean())
            var_of_mean += float(contrib.var()) / draws_per_entry
        se = math.sqrt(var_of_mean)
        assert value >= oracle - 3.0 * se
    assert min(lind_values) >= 0.5 * lind_values[0]

    # all-normal mixture: the random-length sum of complete rows is
    # exactly standard normal, so the exact distance is numerically zero
    mix = delta_randomsum(SHIRYAEV, Geometric.from_mean(16.0), 16, 1e-6, mode="rows")
    assert mix.value <= 1e-10

    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_implication_chains_zero_violations():
    t0 = time.perf_counter()
    n_grid = (4, 16, 64)
    eps_grid = (0.1, 0.3, 1.0)
    delta_grid = (0.5, 1.0)

    arrays = [
        make_iid_array(Uniform(-1.0, 1.0), "n", "iid-uniform"),
        make_iid_array(Rademacher(), "n", "iid-rademacher"),
        make_iid_array(Normal(0.0, 1.0), "n", "iid-normal"),
        make_iid_array(CenteredExponential(1.0), "n", "iid-exponential"),
        make_iid_array(TwoPoint(-0.25, 1.0, 0.8), "n", "iid-two-point"),
        SHIRYAEV,
        RARE,
    ]
    factories = [
        None,
        lambda n: Deterministic(n),
        lambda n: ShiftedPoisson(float(n)),
        lambda n: Geometric.from_mean(float(n)),
        lambda n: ShiftedNegativeBinomial.from_mean(float(n), r=2.0),
        lambda n: FiniteIndex([max(1, n // 2), n, 2 * n], [0.25, 0.5, 0.25]),
    ]

    checks = []
    for array, factory in product(arrays, factories):
        checks.extend(
            implication_suite(
                array, factory, n_grid, eps_grid, delta_grid
            )
        )
    series_array = from_series(shiryaev_series())
    for factory, n in product(factories[1:], n_grid):
        checks.extend(
            series_implication_suite(
                series_array, factory(n), eps_grid, delta_grid
            )
        )

    violations = [c for c in checks if not c.ok]
    assert len(checks) > 4000
    assert violations == []
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_deterministic_index_reduction():
    classical = {
        "RL": lambda a, n: lindeberg(a, n, 0.5),
        "RLambda": lambda a, n: lyapunov(a, n, 1.0),
        "RF": feller,
        "RI": lambda a, n: infinitesimality(a, n, 0.5),
        "RR": lambda a, n: rotar(a, n, 0.5),
        "R-sigma-star": sigma_star,
    }
    kwargs = {"RL": {"epsilon": 0.5}, "RLambda": {"delta": 1.0},
              "RI": {"epsilon": 0.5}, "RR": {"epsilon": 0.5}}
    arrays = [
        make_iid_array(Rademacher(), "n", "iid-rademacher"),
        make_iid_array(Uniform(-1.0, 1.0), "n", "iid-uniform"),
        make_iid_array(Normal(0.0, 1.0), "n", "iid-normal"),
        SHIRYAEV,
        RARE,
        from_series(shiryaev_series()),
    ]
    for array, n, tag in product(arrays, (4, 16, 64), classical):
        value = randomized(tag, array, Deterministic(n), n, **kwargs.get(tag, {}))
        assert value == pytest.approx(classical[tag](array, n), abs=1e-10), (
            array.label, n, tag)


def test_criterion_4_exact_normal_random_sums():
    t0 = time.perf_counter()
    n = 64
    target = Normal(0.0, 1.0)
    indices = (Geometric.from_mean(64.0), ShiftedPoisson(64.0))
    streams = spawn_streams(4242, len(indices))

    for index, rng in zip(indices, streams):
        draws = sample_random_sums(SHIRYAEV, index, n, rng, 100_000, mode="rows")
        est = empirical_kolmogorov(draws, target, alpha=0.01)
        assert est.value <= 0.0136
        assert est.value <= dkw_bound(100_000, 0.01)        # = 0.005147
        # complete rows are exactly N(0,1), so the mixture and the
        # random-sum law both sit on the target to machine precision
        assert delta_mixture(SHIRYAEV, index, n, 1e-6, mode="rows").value <= 1e-10
        assert delta_randomsum(SHIRYAEV, index, n, 1e-6, mode="rows").value <= 1e-10

    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_zolotarev_metric_properties():
    rad = Rademacher()
    std_normal = Normal(0.0, 1.0)

    # homogeneity of order s under scaling by c
    base = {s: zeta(rad, std_normal, s).value for s in (1, 2, 3)}
    for c, s in product((0.5, 2.0, -3.0), (1, 2, 3)):
        scaled = zeta(scale(rad, c), scale(std_normal, c), s).value
        assert scaled == pytest.approx(abs(c) ** s * base[s], rel=1e-8)

    # regularity: convolving both sides with the same independent law
    # cannot increase the distance (exact atomic convolution, <= 8 atoms)
    three_atom = THREE_ATOM
    z_law = scale(Rademacher(), 0.5)
    lhs_laws = (sum_of_independent([rad, z_law]),
                sum_of_independent([three_atom, z_law]))
    for s in (1, 2, 3):
        plain = zeta(rad, three_atom, s).value
        convolved = zeta(lhs_laws[0], lhs_laws[1], s).value
        assert convolved <= plain + 1e-9

    # semi-additivity over independent sums, fixed and random length
    sigmas = (1.0, 0.75, 0.5)
    x_entries = [scale(Rademacher(), a) for a in sigmas]
    y_entries = [TwoPoint(-a / 2.0, 2.0 * a, 0.8) for a in sigmas]
    checks = semi_additivity_check(
        x_entries, y_entries, (1, 2, 3),
        index=FiniteIndex([1, 2, 3], [0.25, 0.5, 0.25]))
    assert checks and all(c.ok for c in checks)
    finite = [c.slack for c in checks if math.isfinite(c.slack)]
    assert min(finite) >= -1e-9

    # sandwich: the test-function lower bound never exceeds the metric
    assert len(ZETA_SANDWICH_PAIRS) == 20
    for f_law, g_law, s in ZETA_SANDWICH_PAIRS:
        lower = zeta_lower_bound(f_law, g_law, s).value
        assert lower <= zeta(f_law, g_law, s).value + 1e-8, (f_law, g_law, s)


def test_criterion_5_zeta_lower_bound_matches_quadrature():
    # the closed-form partial moments against the test functions' pieces
    # integrated by the generic quadrature of ScalarDistribution.expectation
    def quadrature_mean(law, pieces):
        def value(x):
            for lo, hi, c, coeffs in pieces:
                if lo < x <= hi:
                    return np.polyval(coeffs[::-1], x - c)
            return 0.0

        def fn(x):
            # one point for quadrature, an array of atoms for an atomic law
            return np.array([value(v) for v in x]) if np.ndim(x) else value(x)

        kinks = sorted({e for lo, hi, _, _ in pieces for e in (lo, hi) if math.isfinite(e)})
        return ScalarDistribution.expectation(law, fn, kinks)

    for f_law, g_law, s in ZETA_SANDWICH_PAIRS:
        quadrature = max(
            abs(quadrature_mean(f_law, pieces) - quadrature_mean(g_law, pieces))
            for pieces in metrics_module._testfns(f_law, g_law, s)
        )
        closed = zeta_lower_bound(f_law, g_law, s).value
        assert abs(closed - quadrature) <= 1e-12, (f_law, g_law, s)


def test_criterion_6_enumeration_oracle_agreement():
    rad_array = make_iid_array(Rademacher(), "n", "iid-rademacher")
    target = Normal(0.0, 1.0)
    for k in (8, 10, 12):
        library = kolmogorov(row_sum_law(rad_array, k), target).value
        assert library == pytest.approx(binomial_ks_oracle(k), abs=1e-12)

    exact = binomial_ks_oracle(10)
    index = Deterministic(10)
    hits = 0
    for rng in spawn_streams(777, 100):
        est = empirical_delta(rad_array, index, 10, rng, samples=2000, alpha=0.01)
        assert est.bound == pytest.approx(dkw_bound(2000, 0.01))
        if abs(est.value - exact) <= est.bound:
            hits += 1
    assert hits >= 99


def test_criterion_7_uniform_poisson_convergence_study():
    result = run_study(builtin_plan("lindeberg_uniform_poisson"))
    assert result.errors == []
    assert result.passed, [v for v in result.verdicts if not v["passed"]]
    assert result.runtime_seconds < 300.0

    rl = [r for r in result.rows
          if r["metric"] == "rand_lindeberg" and r["epsilon"] == 0.1]
    rl.sort(key=lambda r: r["n"])
    assert rl[-1]["n"] == 10_000
    assert rl[-1]["value"] < 1e-3
    values = [r["value"] for r in rl]
    # strict decrease until the sum bottoms out at zero
    positive = [v for v in values if v > 0.0]
    assert positive == sorted(set(positive), reverse=True)

    emp = sorted((r for r in result.rows if r["metric"] == "empirical_delta"),
                 key=lambda r: r["n"])
    assert emp[-1]["value"] <= 0.02


def test_criterion_8_selfcheck_byte_determinism():
    # Two separate interpreters (each with its own hash seed) must print the
    # same bytes.  `python -m randsum` needs no installed console script;
    # PYTHONPATH pins the children to the package this process imported.
    package_root = os.path.dirname(os.path.dirname(randsum.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "randsum", "selfcheck", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=120, env=env)

    def status(proc):
        return (f"exit {proc.returncode}, stderr tail: "
                f"{proc.stderr.decode(errors='replace')[-500:]!r}")

    assert first.returncode == 0 and second.returncode == 0, (
        f"first: {status(first)}; second: {status(second)}")
    assert first.stdout == second.stdout
    assert first.stdout, f"empty report; {status(first)}"
