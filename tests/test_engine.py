"""Sampling engine, study runner, verdicts, and the selfcheck contract."""

import hashlib
import json

import numpy as np
import pytest

import randsum.engine as engine_module
from randsum.arrays import (
    SeriesForm,
    TriangularArray,
    expand,
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    shiryaev_series,
    take,
)
from randsum.cli import _lindeberg_draws
from randsum.distributions import (
    CenteredExponential,
    FiniteIndex,
    Geometric,
    Normal,
    Rademacher,
    ShiftedPoisson,
    Uniform,
)
from randsum.engine import (
    BUILTIN_PLAN_NAMES,
    CHECK_FIELDS,
    DISTANCES,
    StudyPlan,
    _chunk_boundaries,
    _columnwise_row_sums,
    _evaluate_check,
    _iid_row_sums,
    _normal_row_sums,
    _prefix_sums,
    builtin_plan,
    empirical_delta,
    json_text,
    run_study,
    sample_random_sums,
    selfcheck,
    spawn_streams,
    thread_cap,
)
from randsum.metrics import (
    ConvolutionError, DistanceEstimate, SumLaw, delta_randomsum, dkw_bound, empirical_kolmogorov
)

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
            rng = np.random.default_rng(3)
            sample_random_sums(array, ShiftedPoisson(16.0), 16, rng, 500, mode=mode)
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

    def test_ragged_columns_equal_the_fancy_index_form(self):
        # a ramp row (entry j uniform on [0, j]) read to geometric lengths:
        # column j goes to every sum of length >= j, in ascending length
        ramp = from_series(SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp"))
        ks = np.asarray(Geometric.from_mean(6.0).sample(np.random.default_rng(1), 3000),
                        dtype=np.int64)
        runs = take(ramp.runs(6), int(ks.max()))
        got = _columnwise_row_sums(runs, ks, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        want = np.zeros(ks.size)
        order = np.argsort(ks, kind="stable")
        for j, law in enumerate(expand(runs), start=1):
            active = order[int(np.searchsorted(ks[order], j)):]
            want[active] += law.sample(rng, active.size)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def rows_one_pass_per_k(array, index, n, rng, size):
        """Rows mode as one ``np.nonzero(ks == k)`` pass over the draws per k."""
        ks = np.asarray(index.sample(rng, size), dtype=np.int64)
        out = np.empty(size)
        for k in np.unique(ks):
            where = np.nonzero(ks == k)[0]
            row_ks = np.full(where.size, array.row_length(int(k)), dtype=np.int64)
            out[where] = _prefix_sums(array, int(k), row_ks, rng)
        return out

    @pytest.mark.parametrize("array", [make_rare_jump_array(), from_series(shiryaev_series())],
                             ids=["rare-jump", "series"])
    def test_rows_mode_equals_one_pass_per_k(self, array):
        idx = ShiftedPoisson(32.0)
        got = sample_random_sums(array, idx, 32, np.random.default_rng(23), 5_000, mode="rows")
        want = self.rows_one_pass_per_k(array, idx, 32, np.random.default_rng(23), 5_000)
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize(
        "array, mode",
        [
            (make_iid_array(CenteredExponential(1.0)), "prefix"),
            (make_iid_array(Uniform(-1.0, 1.0)), "prefix"),
            (RAD, "prefix"),
            (make_rare_jump_array(), "prefix"),
            (SHIRYAEV, "prefix"),
            (from_series(shiryaev_series()), "rows"),
        ],
        ids=["iid-exponential", "iid-uniform", "iid-rademacher", "rare-jump", "shiryaev",
             "series-rows"],
    )
    def test_draws_do_not_depend_on_the_cap(self, monkeypatch, array, mode):
        def draws(cap):
            monkeypatch.setattr(engine_module, "CHUNK_DRAWS", cap)
            rng = np.random.default_rng(np.random.SeedSequence(17))
            return sample_random_sums(array, ShiftedPoisson(12.0), 12, rng, 400, mode=mode)

        reference = draws(1 << 24)
        for cap in (1 << 20, 1000, 7, 1):
            assert np.array_equal(draws(cap), reference), cap

    @pytest.mark.parametrize("cap", [1, 7, 1 << 16])
    @pytest.mark.parametrize(
        "array, seed, digest",
        [
            (from_series(shiryaev_series()), 5, "c2865729efaaf6f03dfbe14697a07ee5"),
            (from_series(shiryaev_series()), 6, "9c683c702eed71ee99e53045ffbe56ef"),
            (SHIRYAEV, 5, "a4c6bf96c3f361a804157438231dfc2e"),
            (SHIRYAEV, 6, "7379858f8ddc46449d2bb44fc66e31e3"),
        ],
        ids=["series-5", "series-6", "shiryaev-5", "shiryaev-6"],
    )
    def test_rows_mode_normal_sums_are_frozen(self, monkeypatch, cap, array, seed, digest):
        # the md5 of the rows-mode sums of normal rows, which no chunk cap moves
        monkeypatch.setattr(engine_module, "CHUNK_DRAWS", cap)
        rng = np.random.default_rng(seed)
        draws = sample_random_sums(array, ShiftedPoisson(12.0), 12, rng, 400, mode="rows")
        assert hashlib.md5(draws.tobytes()).hexdigest() == digest


class RecordingUniform(Uniform):
    """Uniform(-1, 1) that records the size of every draw asked of it."""

    def __init__(self):
        super().__init__(-1.0, 1.0)
        self.sizes = []

    def sample(self, rng, size=None):
        self.sizes.append(size)
        return super().sample(rng, size)


class CountingRng:
    """A generator's standard normals, recording how many each draw asks for."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def standard_normal(self, size=None, out=None):
        self.sizes.append(int(np.prod(size if out is None else out.shape)))
        return self._rng.standard_normal(size, out=out)


LONG_ROW = 70_000
# rows of 1 to 399 entries (an index is at least 1), about 3e5 draws in
# all; then the same with one row longer than the default cap among them
SHORT_ROWS = np.random.default_rng(5).integers(1, 400, 1500).astype(np.int64)
WITH_LONG_ROW = np.insert(SHORT_ROWS, 700, LONG_ROW)
DRAW_CAPS = [1, 7, 1000, engine_module.CHUNK_DRAWS]


class TestDrawMemoryBound:
    """No single draw asks for more than max(CHUNK_DRAWS, longest row)
    variates, and every summand is drawn exactly once."""

    @pytest.mark.parametrize("cap", DRAW_CAPS)
    @pytest.mark.parametrize("ks", [SHORT_ROWS, WITH_LONG_ROW], ids=["short", "long-row"])
    def test_iid_row_sums(self, monkeypatch, cap, ks):
        monkeypatch.setattr(engine_module, "CHUNK_DRAWS", cap)
        law = RecordingUniform()
        _iid_row_sums(law, ks, np.random.default_rng(1))
        assert max(law.sizes) <= max(cap, int(ks.max()))
        assert sum(law.sizes) == int(ks.sum())

    @pytest.mark.parametrize("cap", DRAW_CAPS)
    @pytest.mark.parametrize(
        "ks",
        [np.full(800, 377, dtype=np.int64), np.full(3, LONG_ROW, dtype=np.int64),
         SHORT_ROWS, WITH_LONG_ROW],
        ids=["equal", "equal-long", "ragged", "ragged-long-row"],
    )
    def test_normal_row_sums(self, monkeypatch, cap, ks):
        monkeypatch.setattr(engine_module, "CHUNK_DRAWS", cap)
        rng = CountingRng(1)
        _normal_row_sums(np.sqrt(np.linspace(1.0, 0.01, int(ks.max()))), ks, rng)
        assert max(rng.sizes) <= max(cap, int(ks.max()))
        assert sum(rng.sizes) == int(ks.sum())

    @pytest.mark.parametrize("cap", DRAW_CAPS)
    @pytest.mark.parametrize("k, draws", [(32, 10_000), (377, 800), (LONG_ROW, 2)])
    def test_lindeberg_draws(self, monkeypatch, cap, k, draws):
        monkeypatch.setattr(engine_module, "CHUNK_DRAWS", cap)
        rng = CountingRng(1)
        stat = _lindeberg_draws(rng, np.sqrt(np.linspace(0.5, 0.01, k)), draws, 0.5)
        assert stat.shape == (draws,)
        assert max(rng.sizes) <= max(cap, k)
        assert sum(rng.sizes) == draws * k


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
        # the CLI rejects both first, but a plan reaches run_study directly
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
                run_study(builtin_plan("feller_necessity_rare_jump", alpha=alpha, n_grid=(4,)))
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            run_study(builtin_plan("feller_necessity_rare_jump", seed=-1, n_grid=(4,)))
        for seed in (1.5, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                run_study(builtin_plan("feller_necessity_rare_jump", seed=seed, n_grid=(4,)))
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
        # no functionals means all of them, cut at "@" like the report keys
        small_plan(functionals=(), checks=(
            {"kind": "all_below", "metric": "cf_deviation@t=0.5", "threshold": 1.0},
            {"kind": "all_below", "metric": "delta_mixture", "threshold": 1.0},
        )).validated()
        for name in BUILTIN_PLAN_NAMES:
            builtin_plan(name).validated()

    @pytest.mark.parametrize(
        "metric, epsilon, message",
        [
            ("rand_feller", 0.3, r"checks\[0\]\.epsilon: 0\.3 is not in the epsilon grid \[0\.5\]"),
            ("empirical_delta", 0.5,
             r"checks\[0\]\.epsilon: the rows of 'empirical_delta' carry no epsilon"),
        ],
        ids=["off-grid", "distance"],
    )
    def test_check_epsilon_must_select_rows(self, metric, epsilon, message):
        # a check epsilon that selects no row would pass validation and
        # then fail the verdict with "no rows for metric"
        check = {"kind": "all_below", "metric": metric, "threshold": 1.0}
        with pytest.raises(ValueError, match=message):
            small_plan(checks=({**check, "epsilon": epsilon},)).validated()
        small_plan(checks=(check,)).validated()

    def test_repeated_distance_is_rejected(self):
        # two rows for one cell would read as two steps of the series
        plan = small_plan(distances=("empirical_delta", "delta_mixture", "empirical_delta"))
        message = r"distances\[2\]: repeated distance 'empirical_delta'"
        with pytest.raises(ValueError, match=message):
            plan.validated()
        with pytest.raises(ValueError, match=message):
            run_study(plan)

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
        assert d == {
            "label": "rotar-shiryaev-series",
            "array": {"array": "series", "base_seq": "shiryaev"},
            "index": {"family": "poisson", "mean": "n"},
            "n_grid": [16, 64, 256, 512],
            "epsilon_grid": [0.5],
            "delta": 1.0,
            "samples": 100_000,
            "alpha": 0.01,
            "seed": 0,
            "eta": 1e-10,
            "mode": "rows",
            "functionals": ["rotar", "feller"],
            "distances": ["empirical_delta", "delta_mixture"],
            "checks": [
                {"kind": "all_below", "metric": "rotar", "epsilon": 0.5, "threshold": 1e-8},
                {"kind": "all_below", "metric": "delta_mixture", "threshold": 1e-10},
                {"kind": "all_below", "metric": "empirical_delta", "threshold": 0.02},
            ],
        }
        assert json.loads(json.dumps(d)) == d

    def test_json_dict_is_a_copy(self):
        plan = builtin_plan("lindeberg_uniform_poisson")
        doc = plan.to_json_dict()
        doc["array"]["base"]["low"] = 9.0
        doc["index"]["mean"] = 9.0
        doc["checks"][0]["final_max"] = 9.0
        assert plan.array["base"]["low"] == -1.0
        assert plan.index["mean"] == "n"
        assert plan.checks[0]["final_max"] == 1e-3


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

    def test_json_document_is_what_the_cli_writes(self):
        # the config echo carries the plan, and the wall-clock runtime
        # would make the document differ from run to run
        res = run_study(small_plan())
        assert set(res.to_json_dict()) == {"rows", "verdicts", "errors", "passed"}


class TestDistances:
    @pytest.mark.parametrize("mode", ["prefix", "rows"])
    def test_rows_with_no_exact_law_fail_the_exact_distances(self, mode):
        # uniform entries have no exact sum law: the two mixture distances
        # raise, the study records each as a failed cell, and only
        # empirical_delta, which samples the random sum, reports a value
        array = make_iid_array(Uniform(-1.0, 1.0))
        for name in ("delta_mixture", "delta_randomsum"):
            with pytest.raises(ConvolutionError):
                DISTANCES[name](array, ShiftedPoisson(4.0), 4, np.random.default_rng(3),
                                1_000, 0.01, 1e-10, mode)
        res = run_study(small_plan(
            array={"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
            index={"family": "poisson", "mean": "n"}, mode=mode, functionals=(),
            distances=("empirical_delta", "delta_mixture", "delta_randomsum"), checks=(),
        ))
        assert [(e["n"], e["stage"]) for e in res.errors] == [
            (n, name) for n in (4, 8) for name in ("delta_mixture", "delta_randomsum")
        ]
        assert all(e["error"].startswith("ConvolutionError: ") for e in res.errors)
        assert [(r["n"], r["metric"]) for r in res.rows if r["metric"] in DISTANCES] == [
            (4, "empirical_delta"), (8, "empirical_delta")
        ]

    def test_a_nan_distance_is_a_failed_cell(self, monkeypatch):
        nan = DistanceEstimate(float("nan"), 0.0, "exact-atomic")
        monkeypatch.setitem(DISTANCES, "kolmogorov_row", lambda *args: nan)
        with pytest.raises(ArithmeticError, match="kolmogorov_row evaluated to nan"):
            engine_module.distance("kolmogorov_row", RAD, ShiftedPoisson(4.0), 4, None,
                                   1_000, 0.01, 1e-10, "prefix")
        res = run_study(small_plan(functionals=(), distances=("kolmogorov_row",), checks=()))
        assert [(e["n"], e["stage"], e["error"]) for e in res.errors] == [
            (n, "kolmogorov_row", "ArithmeticError: kolmogorov_row evaluated to nan")
            for n in (4, 8)
        ]
        assert not any(r["metric"] == "kolmogorov_row" for r in res.rows)


class TestSelfcheck:
    def test_all_pass_and_byte_stable(self):
        doc = selfcheck(42)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 18
        assert json_text(selfcheck(42)) == json_text(selfcheck(42))

    def test_seed_changes_document(self):
        assert json_text(selfcheck(42)) != json_text(selfcheck(43))
