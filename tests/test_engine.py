"""Sampling engine, study runner, verdicts, and the selfcheck contract."""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from randsum.arrays import (
    TriangularArray,
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    normal_twin,
    shiryaev_series,
)
from randsum.distributions import FiniteIndex, Geometric, Normal, Rademacher, ShiftedPoisson, Uniform
from randsum.engine import (
    BUILTIN_PLAN_NAMES,
    CHECK_FIELDS,
    StudyPlan,
    _chunk_boundaries,
    _evaluate_check,
    _normal_row_sums,
    builtin_plan,
    empirical_delta,
    run_study,
    sample_random_sum,
    sample_random_sums,
    selfcheck,
    selfcheck_json,
    spawn_streams,
    thread_cap,
)
from randsum.metrics import SumLaw, delta_randomsum, dkw_bound, empirical_kolmogorov

RAD = make_iid_array(Rademacher())
SHIRYAEV = make_shiryaev_array()


class TestStreams:
    def test_spawn_is_deterministic_and_independent(self):
        a = spawn_streams(42, 3)
        b = spawn_streams(42, 3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.normal(size=5), rb.normal(size=5))
        fresh = spawn_streams(42, 3)
        assert not np.array_equal(
            fresh[0].normal(size=5), fresh[1].normal(size=5)
        )

    def test_thread_cap_parsing(self, monkeypatch):
        monkeypatch.setenv("RANDSUM_THREADS", "7")
        assert thread_cap() == 7
        monkeypatch.setenv("RANDSUM_THREADS", "junk")
        assert thread_cap() == 4
        monkeypatch.setenv("RANDSUM_THREADS", "-3")
        assert thread_cap() == 1
        monkeypatch.delenv("RANDSUM_THREADS")
        assert thread_cap() == 4


class TestSampling:
    def test_lattice_mixture_frequencies(self):
        # rademacher row 4, index 1 or 3 with equal odds: the prefix-sum
        # law has atoms +-1.5 (1/16 each) and +-0.5 (7/16 each)
        idx = FiniteIndex([1, 3], [0.5, 0.5])
        rng = np.random.default_rng(101)
        draws = sample_random_sums(RAD, idx, 4, rng, 60_000)
        vals, counts = np.unique(np.round(draws, 12), return_counts=True)
        assert list(vals) == pytest.approx([-1.5, -0.5, 0.5, 1.5])
        expect = np.array([1.0, 7.0, 7.0, 1.0]) / 16.0
        freq = counts / draws.size
        se = np.sqrt(expect * (1.0 - expect) / draws.size)
        assert np.all(np.abs(freq - expect) <= 4.5 * se)

    def test_exact_mixture_matches_enumeration(self):
        # the library's own per-length mixture must reproduce the same law
        idx = FiniteIndex([1, 3], [0.5, 0.5])
        law = SumLaw([-1.5, -0.5, 0.5, 1.5], [1 / 16, 7 / 16, 7 / 16, 1 / 16])
        est = delta_randomsum(RAD, idx, 4, reference=law)
        assert est.value <= 1e-12

    def test_rows_mode_shiryaev_is_exactly_normal(self):
        # every complete row sums to a standard normal, whatever nu does
        rng = np.random.default_rng(5)
        draws = sample_random_sums(
            SHIRYAEV, Geometric.from_mean(8.0), 8, rng, 20_000, mode="rows"
        )
        est = empirical_kolmogorov(draws, Normal(0.0, 1.0), alpha=0.01)
        assert est.value <= dkw_bound(20_000, 0.01)

    def test_single_draw_and_size_validation(self):
        rng = np.random.default_rng(0)
        x = sample_random_sum(RAD, FiniteIndex([4], [1.0]), 4, rng)
        # four entries of +-1/2: the sum lives on the integer lattice
        assert min(abs(x - v) for v in (-2.0, -1.0, 0.0, 1.0, 2.0)) < 1e-12
        with pytest.raises(ValueError):
            sample_random_sums(RAD, FiniteIndex([4], [1.0]), 4, rng, 0)
        with pytest.raises(ValueError):
            sample_random_sums(RAD, FiniteIndex([4], [1.0]), 4, rng, 10, mode="rolls")

    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    def test_one_law_rows_build_no_entry(self, monkeypatch, mode):
        built = []
        entry = TriangularArray.entry
        monkeypatch.setattr(TriangularArray, "entry", lambda *a: built.append(a) or entry(*a))
        for array in (make_iid_array(Uniform(-1.0, 1.0)), make_rare_jump_array()):
            for source in (array, normal_twin(array)):
                rng = np.random.default_rng(3)
                sample_random_sums(source, ShiftedPoisson(16.0), 16, rng, 500, mode=mode)
        assert built == []

    def test_one_law_rows_take_flat_draws(self):
        # the index batch first, then one flat block of the row law's draws
        uni = make_iid_array(Uniform(-1.0, 1.0))
        idx = ShiftedPoisson(8.0)
        got = sample_random_sums(uni, idx, 8, np.random.default_rng(9), 300)
        rng = np.random.default_rng(9)
        ks = np.asarray(idx.sample(rng, 300), dtype=np.int64)
        flat = uni.entry(8, 1).sample(rng, int(ks.sum()))
        starts = np.concatenate([[0], np.cumsum(ks[:-1])])
        assert np.array_equal(got, np.add.reduceat(flat, starts))

    @staticmethod
    def gathered_row_sums(sigmas, ks, rng):
        """Row sums scaling each draw by its position's sigma, one block."""
        starts = np.concatenate([[0], np.cumsum(ks[:-1])]).astype(np.int64)
        pos = np.arange(int(ks.sum()), dtype=np.int64) - np.repeat(starts, ks)
        return np.add.reduceat(rng.standard_normal(int(ks.sum())) * sigmas[pos], starts)

    @pytest.mark.parametrize("ks", [[7] * 50, [1] * 9, [3, 7, 1, 7, 2]])
    def test_normal_row_sums_equal_the_gathered_sums(self, ks):
        # the equal-length block and the position gather draw and add the
        # same numbers in the same order
        ks = np.asarray(ks, dtype=np.int64)
        sigmas = np.sqrt(np.linspace(0.1, 2.0, 7))
        got = _normal_row_sums(sigmas, ks, np.random.default_rng(17))
        assert np.array_equal(got, self.gathered_row_sums(sigmas, ks, np.random.default_rng(17)))

    def test_overflowing_scales_are_an_arithmetic_error(self):
        # shiryaev row 2 read to position 1,100: variances past 2^1023
        with pytest.raises(ArithmeticError):
            sample_random_sums(
                SHIRYAEV, FiniteIndex([1100], [1.0]), 2, np.random.default_rng(0), 10
            )

    def test_rows_mode_normal_rows_build_few_entries(self, monkeypatch):
        built = []
        entry = TriangularArray.entry
        monkeypatch.setattr(TriangularArray, "entry", lambda *a: built.append(a) or entry(*a))
        idx = ShiftedPoisson(256.0)
        sample_random_sums(
            from_series(shiryaev_series()), idx, 256, np.random.default_rng(4), 2000, mode="rows"
        )
        assert 0 < len(built) <= 2 * idx.truncation(1e-10)

    def test_empirical_delta_guards_sample_floor(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            empirical_delta(RAD, FiniteIndex([4], [1.0]), 4, rng, samples=500)


def chunk_boundaries_loop(ks, cap):
    """The sequential reference: close a chunk before the row that overflows it."""
    spans, start, acc = [], 0, 0
    for i, k in enumerate(ks):
        if acc + int(k) > cap and i > start:
            spans.append((start, i))
            start, acc = i, 0
        acc += int(k)
    spans.append((start, len(ks)))
    return spans


class TestChunkBoundaries:
    def test_matches_the_sequential_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            size = int(rng.integers(0, 40))
            cap = int(rng.integers(1, 30))
            # zero-length rows, rows at the cap and rows past it
            ks = rng.integers(0, 2 * cap + 2, size=size).astype(np.int64)
            ks[rng.random(size) < 0.2] = 0
            assert _chunk_boundaries(ks, cap) == chunk_boundaries_loop(ks, cap)

    def test_edge_cases(self):
        assert _chunk_boundaries(np.array([], dtype=np.int64), 4) == [(0, 0)]
        # a row past the cap is a chunk of its own, even before empty rows
        ks = np.array([9, 0, 0, 2, 2, 1, 9], dtype=np.int64)
        assert _chunk_boundaries(ks, 4) == [(0, 1), (1, 5), (5, 6), (6, 7)]
        assert _chunk_boundaries(ks, 4) == chunk_boundaries_loop(ks, 4)


class TestStudyPlan:
    def test_validation(self):
        good = builtin_plan("feller_necessity_rare_jump")
        assert good.validated() is good
        with pytest.raises(ValueError):
            builtin_plan("feller_necessity_rare_jump", samples=10).validated()
        with pytest.raises(ValueError):
            builtin_plan("feller_necessity_rare_jump", delta=1.5).validated()
        with pytest.raises(ValueError):
            builtin_plan("feller_necessity_rare_jump", mode="sideways").validated()
        for eta in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"eta must lie in \(0, 0\.001\]"):
                builtin_plan("feller_necessity_rare_jump", eta=eta).validated()
        with pytest.raises(ValueError):
            builtin_plan(
                "feller_necessity_rare_jump", distances=("delta_quantum",)
            ).validated()
        with pytest.raises(ValueError, match=r"unknown functionals: \['rand_lindeburg'\]"):
            builtin_plan(
                "feller_necessity_rare_jump", functionals=("rand_lindeburg",)
            ).validated()

    def test_checks_must_read_emitted_metrics(self):
        with pytest.raises(ValueError, match=r"checks\[0\]\.metric: the study emits no metric 'rand_felller'"):
            small_plan(checks=({"kind": "all_below", "metric": "rand_felller",
                                "threshold": 1.0},)).validated()
        with pytest.raises(ValueError, match=r"checks\[0\]\.metric: the study emits no metric 'rotar'"):
            builtin_plan(
                "feller_necessity_rare_jump",
                checks=({"kind": "all_below", "metric": "rotar", "threshold": 1.0},),
            ).validated()
        with pytest.raises(ValueError, match=r"checks\[0\]\.other: the study emits no metric 'ghost'"):
            small_plan(checks=({"kind": "tracks_metric", "metric": "rand_feller",
                                "other": "ghost"},)).validated()
        twin = {"kind": "all_below", "metric": "rand_feller_normal_twin", "threshold": 1.0}
        with pytest.raises(ValueError, match="rand_feller_normal_twin"):
            small_plan(checks=(twin,)).validated()
        small_plan(checks=(twin,), normal_twin_feller=True).validated()
        # no functionals means all of them, cut at "@" like the report keys
        small_plan(functionals=(), checks=(
            {"kind": "all_below", "metric": "cf_deviation@t=0.5", "threshold": 1.0},
            {"kind": "all_below", "metric": "delta_mixture", "threshold": 1.0},
        )).validated()
        for name in BUILTIN_PLAN_NAMES:
            builtin_plan(name).validated()

    def test_builtin_names_and_overrides(self):
        assert BUILTIN_PLAN_NAMES == (
            "feller_necessity_rare_jump",
            "lindeberg_uniform_poisson",
            "lyapunov_exponential_poisson",
            "rotar_shiryaev_series",
        )
        p = builtin_plan("lindeberg_uniform_poisson", n_grid=(4, 8), samples=2000)
        assert p.n_grid == (4, 8) and p.samples == 2000
        # every call hands out fresh dicts
        p.array["base"]["low"] = -2.0
        p.checks[0]["final_max"] = 1.0
        fresh = builtin_plan("lindeberg_uniform_poisson")
        assert fresh.array["base"]["low"] == -1.0
        assert fresh.checks[0]["final_max"] == 1e-3
        with pytest.raises(KeyError):
            builtin_plan("does_not_exist")

    def test_json_round_trip_shape(self):
        d = builtin_plan("rotar_shiryaev_series").to_json_dict()
        assert d["mode"] == "rows"
        assert json.loads(json.dumps(d)) == d


class TestEvaluateCheck:
    @staticmethod
    def rows(metric, pairs, eps=0.5):
        return [
            {"label": "t", "n": n, "epsilon": eps, "delta": 1.0,
             "metric": metric, "value": v, "error_bound": b}
            for n, v, b in pairs
        ]

    def test_to_zero(self):
        rows = self.rows("m", [(4, 0.5, 0.0), (8, 0.2, 0.0), (16, 1e-5, 0.0)])
        ok = _evaluate_check(
            {"kind": "to_zero", "metric": "m", "epsilon": 0.5, "final_max": 1e-3}, rows
        )
        assert ok["passed"]
        stalled = self.rows("m", [(4, 0.5, 0.0), (8, 0.5, 0.0), (16, 1e-5, 0.0)])
        bad = _evaluate_check(
            {"kind": "to_zero", "metric": "m", "epsilon": 0.5, "final_max": 1e-3},
            stalled,
        )
        assert not bad["passed"] and "strictly" in bad["detail"]

    def test_to_zero_tolerates_noise_below_threshold(self):
        # once under final_max the series only needs to stay nonincreasing
        # up to 1e-12; an exact tie is fine
        rows = self.rows("m", [(4, 1e-5, 0.0), (8, 1e-5, 0.0)])
        ok = _evaluate_check(
            {"kind": "to_zero", "metric": "m", "epsilon": 0.5, "final_max": 1e-3}, rows
        )
        assert ok["passed"]

    def test_noisy_decrease(self):
        rows = self.rows("m", [(4, 0.10, 0.01), (8, 0.105, 0.01), (16, 0.01, 0.01)])
        ok = _evaluate_check(
            {"kind": "noisy_decrease", "metric": "m", "epsilon": 0.5,
             "final_max": 0.02}, rows
        )
        assert ok["passed"]  # the rise is inside summed bounds
        rows = self.rows("m", [(4, 0.10, 0.001), (8, 0.2, 0.001)])
        bad = _evaluate_check(
            {"kind": "noisy_decrease", "metric": "m", "epsilon": 0.5,
             "final_max": 0.5}, rows
        )
        assert not bad["passed"]

    def test_constant_all_below_final_above(self):
        rows = self.rows("m", [(4, 0.5, 0.0), (8, 0.5 + 1e-13, 0.0)])
        assert _evaluate_check(
            {"kind": "constant", "metric": "m", "epsilon": 0.5, "target": 0.5}, rows
        )["passed"]
        assert _evaluate_check(
            {"kind": "all_below", "metric": "m", "epsilon": 0.5, "threshold": 0.6},
            rows,
        )["passed"]
        assert not _evaluate_check(
            {"kind": "final_above", "metric": "m", "epsilon": 0.5, "threshold": 0.7},
            rows,
        )["passed"]

    def test_tracks_metric(self):
        rows = self.rows("a", [(4, 0.5, 0.01)]) + self.rows(
            "b", [(4, 0.505, 0.01)], eps=None
        )
        assert _evaluate_check(
            {"kind": "tracks_metric", "metric": "a", "epsilon": 0.5, "other": "b"},
            rows,
        )["passed"]

    def test_missing_rows_and_unknown_kind(self):
        assert not _evaluate_check(
            {"kind": "to_zero", "metric": "ghost", "final_max": 1.0}, []
        )["passed"]
        with pytest.raises(ValueError, match=r"checks\[0\]\.kind: unknown check kind 'wibble'"):
            small_plan(checks=({"kind": "wibble", "metric": "m"},)).validated()

    @pytest.mark.parametrize("kind", sorted(CHECK_FIELDS))
    def test_declared_fields_are_the_ones_read(self, kind):
        check = {"kind": kind}
        for key in CHECK_FIELDS[kind]:
            # a metric small_plan emits, so the plan validates
            check[key] = "rand_feller" if key in ("metric", "other") else 0.5
        # a check with only its required fields evaluates and validates
        _evaluate_check(check, self.rows("rand_feller", [(4, 0.5, 0.0)], eps=None))
        small_plan(checks=(check,)).validated()
        for key in CHECK_FIELDS[kind]:
            partial = {k: v for k, v in check.items() if k != key}
            with pytest.raises(ValueError, match=rf"checks\[0\]\.{key}: required"):
                small_plan(checks=(partial,)).validated()


def small_plan(**overrides):
    defaults = dict(
        label="tiny",
        array={"array": "rare-jump"},
        index={"family": "geometric", "mean": "n"},
        n_grid=(4, 8),
        epsilon_grid=(0.5,),
        delta=1.0,
        samples=2000,
        seed=9,
        functionals=("rand_lindeberg", "rand_feller"),
        distances=("empirical_delta", "delta_mixture"),
        checks=(
            {"kind": "final_above", "metric": "rand_lindeberg", "epsilon": 0.5,
             "threshold": 0.5},
        ),
    )
    defaults.update(overrides)
    return StudyPlan(**defaults)


class TestRunStudy:
    def test_rows_verdicts_and_pass(self):
        res = run_study(small_plan())
        metrics = {r["metric"] for r in res.rows}
        assert {"rand_lindeberg", "rand_feller", "empirical_delta", "delta_mixture"} <= metrics
        assert res.errors == []
        assert len(res.verdicts) == 1 and res.verdicts[0]["passed"]
        assert res.passed

    def test_deterministic_across_thread_caps(self, monkeypatch):
        monkeypatch.setenv("RANDSUM_THREADS", "1")
        serial = run_study(small_plan())
        monkeypatch.setenv("RANDSUM_THREADS", "4")
        threaded = run_study(small_plan())
        assert serial.csv_text() == threaded.csv_text()

    def test_unreported_functionals_cannot_fail_a_cell(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ArithmeticError("not reported, so never evaluated")

        monkeypatch.setattr("randsum.conditions.rotar", broken)
        monkeypatch.setattr("randsum.conditions.lyapunov", broken)
        res = run_study(small_plan())
        assert res.errors == []
        assert {r["metric"] for r in res.rows} == {
            "rand_lindeberg", "rand_feller", "empirical_delta", "delta_mixture"
        }

    def test_failing_check_fails_study(self):
        res = run_study(
            small_plan(
                checks=(
                    {"kind": "all_below", "metric": "rand_lindeberg",
                     "epsilon": 0.5, "threshold": 1e-6},
                )
            )
        )
        assert not res.passed

    def test_json_runtime_toggle(self):
        res = run_study(small_plan())
        with_rt = res.to_json_dict()
        without = res.to_json_dict(include_runtime=False)
        assert "runtime_seconds" in with_rt and "runtime_seconds" not in without

    def test_normal_twin_column(self):
        res = run_study(
            small_plan(
                array={"array": "iid", "base": {"family": "rademacher"}},
                normal_twin_feller=True,
                distances=("empirical_delta",),
            )
        )
        twin_rows = [r for r in res.rows if r["metric"] == "rand_feller_normal_twin"]
        assert len(twin_rows) == 2
        plain = {r["n"]: r["value"] for r in res.rows if r["metric"] == "rand_feller"}
        for r in twin_rows:
            assert r["value"] == pytest.approx(plain[r["n"]], rel=1e-9)


    def test_normal_twin_released_after_study(self, monkeypatch):
        refs = []

        def tracked_twin(array):
            twin = normal_twin(array)
            refs.append(weakref.ref(twin))
            return twin

        monkeypatch.setattr("randsum.engine.normal_twin", tracked_twin)
        plan = small_plan(
            array={"array": "iid", "base": {"family": "rademacher"}},
            normal_twin_feller=True,
            distances=(),
        )
        run_study(plan)
        run_study(plan)
        gc.collect()
        assert len(refs) == 2
        assert refs[0]() is None


class TestSelfcheck:
    def test_all_pass_and_byte_stable(self):
        doc = selfcheck(42)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 18
        assert selfcheck_json(42) == selfcheck_json(42)

    def test_seed_changes_document(self):
        assert selfcheck_json(42) != selfcheck_json(43)

    def test_loose_quadrature_must_fail(self):
        # the rotar guarantee is part of the contract: asking the
        # integrator for 1e-2 accuracy cannot certify a zero
        doc = selfcheck(42, quad_tol=1e-2)
        assert doc["passed"] is False
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["rotar_zero_on_normal"]
