"""Triangular arrays: row structure, normalization, and the series bridge."""

import math
import sys
import threading
from itertools import islice

import numpy as np
import pytest

from randsum.arrays import (
    ArrayError,
    RowLengths,
    SeriesForm,
    TriangularArray,
    array_from_config,
    expand,
    from_series,
    make_iid_array,
    make_rare_jump_array,
    make_shiryaev_array,
    shiryaev_series,
    take,
)
from randsum.distributions import Normal, Rademacher, Uniform


class TestRowLengths:
    def test_builtin_rules(self):
        assert RowLengths("n")(7) == 7
        assert RowLengths("2n")(7) == 14
        assert RowLengths(lambda n: n * n)(5) == 25

    def test_minimum_floor(self):
        assert RowLengths("n", minimum=2)(1) == 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ArrayError):
            RowLengths("n+3")
        with pytest.raises(ArrayError):
            RowLengths("n")(0)
        with pytest.raises(ArrayError):
            RowLengths(lambda n: 0)(3)


class TestIidArray:
    def test_uniform_row_entries(self):
        arr = make_iid_array(Uniform(-1.0, 1.0))
        e = arr.entry(4, 1)
        # base variance 1/3, so the row-4 scale is sqrt(3)/2
        assert e.support()[1] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        assert e.variance == pytest.approx(0.25, rel=1e-14)

    def test_entries_shared_within_row(self):
        arr = make_iid_array(Rademacher())
        assert arr.entry(6, 2) is arr.entry(6, 5)
        assert arr.entry(6, 1) is not arr.entry(7, 1)

    def test_row_validates(self):
        arr = make_iid_array(Uniform(0.0, 1.0))  # off-center base gets recentred
        for n in (1, 3, 17):
            v = arr.validate(n)
            assert v.passed
            assert v.var_residual <= 1e-12

    def test_entries_extend_past_row(self):
        # rows are conceptually infinite: position j > k_n reuses the row law
        arr = make_iid_array(Rademacher())
        assert arr.entry(4, 9).variance == pytest.approx(0.25)

    def test_rejects_degenerate_base(self):
        from randsum.distributions import FiniteDiscrete

        with pytest.raises(ArrayError):
            make_iid_array(FiniteDiscrete([2.0], [1.0]))


class TestShiryaevArray:
    def test_row_variances_exact(self):
        arr = make_shiryaev_array()
        vs = [arr.entry(4, j).variance for j in range(1, 5)]
        assert vs == [0.125, 0.125, 0.25, 0.5]
        assert arr.validate(4).var_sum == 1.0

    def test_top_entry_always_half(self):
        arr = make_shiryaev_array()
        for n in (2, 8, 32, 500):
            assert arr.entry(n, n).variance == 0.5
            assert arr.validate(n).passed

    def test_min_row_is_two(self):
        arr = make_shiryaev_array()
        assert arr.row_length(1) == 2

    def test_divergent_extension_saturates(self):
        # positions far past the row leave float range and report inf
        arr = make_shiryaev_array()
        assert math.isinf(arr.entry(4, 2000).variance)

    def test_underflow_is_an_error(self):
        # entry (n, 1) has variance 2^(1-n): 2^-1074 at row 1075 is the
        # smallest double, and from row 1076 on it rounds to zero
        arr = make_shiryaev_array()
        assert arr.entry(1075, 1).variance == 2.0 ** -1074
        with pytest.raises(ArrayError, match=r"shiryaev entry \(1100, 1\) underflows"):
            arr.entry(1100, 1)


class TestRareJumpArray:
    def test_entry_law(self):
        arr = make_rare_jump_array()
        e = arr.entry(4, 1)
        values, probs = e.atoms()
        assert list(values) == [-0.25, 1.0]
        assert probs[1] == pytest.approx(0.2)
        assert e.mean == pytest.approx(0.0, abs=1e-15)
        assert e.variance == pytest.approx(0.25, rel=1e-14)

    def test_rows_exact(self):
        arr = make_rare_jump_array()
        for n in (1, 5, 100):
            v = arr.validate(n)
            assert v.passed and v.var_residual <= 1e-12


class TestRuns:
    @pytest.mark.parametrize(
        "array", [make_iid_array(Uniform(-1.0, 1.0)), make_rare_jump_array()]
    )
    def test_one_law_rows_are_one_unbounded_run(self, array):
        ((law, size),) = list(islice(array.runs(6), 2))
        assert size is None
        assert law is array.entry(6, 1) is array.entry(6, 100)
        assert array.prefix_runs(6) == [(law, 6)]
        assert array.prefix_runs(6, 40) == [(law, 40)]

    @pytest.mark.parametrize("array", [make_shiryaev_array(), from_series(shiryaev_series())])
    def test_per_position_rows_are_built_through_entry(self, array):
        runs = array.prefix_runs(5, 7)
        assert [size for _, size in runs] == [1] * 7
        assert [law for law, _ in runs] == [array.entry(5, j) for j in range(1, 8)]

    def test_take_reads_no_run_past_k(self):
        read = []

        def runs():
            for j in range(1, 100):
                read.append(j)
                yield j, 2

        assert take(runs(), 5) == [(1, 2), (2, 2), (3, 1)]
        assert read == [1, 2, 3]
        assert take(runs(), 0) == []
        assert take(iter([("a", None)]), 3) == [("a", 3)]


class TestSeriesForm:
    def test_generic_series_tracks_sums(self):
        s = SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp")
        # var(j) = j^2/12, centered at j/2
        assert s.variance(3) == pytest.approx(0.75)
        assert s.center(3) == pytest.approx(1.5)
        assert s.log_b_squared(4) == pytest.approx(math.log((1 + 4 + 9 + 16) / 12.0), rel=1e-14)
        std = s.standardized(2)
        assert std.mean == pytest.approx(0.0, abs=1e-15)
        assert std.variance == pytest.approx(1.0, rel=1e-12)

    def test_shiryaev_series_log_continuation(self):
        s = shiryaev_series()
        # exact while linear sums fit: B_k^2 = 2^(k-1)
        assert s.log_b_squared(4) == pytest.approx(3.0 * math.log(2.0), rel=1e-15)
        # far past float range the log form carries on
        assert s.log_b_squared(2000) == pytest.approx(1999.0 * math.log(2.0), rel=1e-12)

    def test_profiles(self):
        s = shiryaev_series()
        lv = s.log_variance_profile(5)
        assert np.allclose(lv, [0.0, 0.0, math.log(2.0), math.log(4.0), math.log(8.0)])
        lb = s.log_b_squared_profile(5)
        assert lb[-1] == pytest.approx(4.0 * math.log(2.0), rel=1e-14)

    def test_shared_series_extends_safely_across_threads(self):
        expected = shiryaev_series().log_b_squared_profile(3000)
        shared = shiryaev_series()
        results = [None] * 4

        def worker(i):
            results[i] = shared.log_b_squared_profile(3000)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert np.array_equal(got, expected)

    def test_rejects_flat_member(self):
        from randsum.distributions import FiniteDiscrete

        flat = FiniteDiscrete([2.0], [1.0])
        s = SeriesForm(lambda j: Uniform(0.0, 1.0) if j != 2 else flat)
        with pytest.raises(ArrayError):
            s.log_b_squared(3)


class TestSeriesArray:
    def test_entries_match_direct_normalization(self):
        s = SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp")
        arr = from_series(s)
        b2 = (1 + 4 + 9 + 16) / 12.0
        e = arr.entry(4, 3)
        assert e.variance == pytest.approx(0.75 / b2, rel=1e-13)
        assert arr.validate(4).passed

    def test_deep_rows_stay_usable(self):
        # row 2000 of the doubling series: raw variances overflowed long ago,
        # yet the normalized top entries are plain numbers
        arr = from_series(shiryaev_series())
        assert arr.entry(2000, 1999).variance == pytest.approx(0.25, rel=1e-12)
        assert arr.entry(2000, 2000).variance == pytest.approx(0.5, rel=1e-12)

    def test_matches_closed_form_array(self):
        direct = make_shiryaev_array()
        via_series = from_series(shiryaev_series())
        for j in range(1, 9):
            assert via_series.entry(8, j).variance == pytest.approx(
                direct.entry(8, j).variance, rel=1e-12
            )

    @pytest.mark.parametrize("n", [1100, 2000, 3000])
    def test_underflow_is_an_error(self, n):
        # an early member of a very deep row scales below the float floor;
        # silently returning a zero-variance law would corrupt functionals.
        # Rows 1100 and 2000 keep a positive scale whose square underflows.
        arr = from_series(shiryaev_series())
        named = rf"series entry \({n}, 1\) underflows"
        with pytest.raises(ArrayError, match=named):
            arr.entry(n, 1)
        with pytest.raises(ArrayError, match=named):
            arr.normal_variances(n)


def entry_variances(array, n, k=None):
    """The variances ``entry`` gives positions 1..k of row n, law by law."""
    return [law.variance for law in expand(array.prefix_runs(n, k))]


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the test compares what is raised
        return type(exc), str(exc)
    return None


class TestNormalVariances:
    """Rows of centered normals read as one vector, equal to the entries'."""

    @pytest.mark.parametrize("rows", ["n", "2n"])
    def test_series_rows_match_the_entries(self, rows):
        arr = from_series(shiryaev_series(), rows)
        for n, k in [(1, None), (7, None), (64, None), (300, None), (5, 3), (9, 40), (3, 700)]:
            got = from_series(shiryaev_series(), rows).normal_variances(n, k)
            assert np.array_equal(got, entry_variances(arr, n, k))

    def test_generic_normal_series_matches_the_entries(self):
        # no explicit log variances: standardized members are scaled laws
        # whose variances are 1 only up to rounding
        series = lambda: SeriesForm(lambda j: Normal(0.5 * j, 0.3 * j + 0.1), label="ramp")
        arr = from_series(series())
        for n, k in [(6, None), (11, None), (4, 9)]:
            got = from_series(series()).normal_variances(n, k)
            assert np.array_equal(got, entry_variances(arr, n, k))

    def test_shiryaev_matches_the_entries_past_the_row(self):
        arr = make_shiryaev_array()
        for n, k in [(1, None), (2, None), (9, None), (4, 12), (2, 1100)]:
            got = make_shiryaev_array().normal_variances(n, k)
            assert np.array_equal(got, entry_variances(arr, n, k))
        assert math.isinf(arr.normal_variances(2, 1100)[-1])

    def test_iid_normal_rows_match_the_entries(self):
        arr = make_iid_array(Normal(1.0, 3.0))
        for n, k in [(5, None), (8, 30)]:
            assert np.array_equal(arr.normal_variances(n, k), entry_variances(arr, n, k))

    def test_other_rows_have_none(self, monkeypatch):
        ramp = from_series(SeriesForm(lambda j: Uniform(0.0, float(j)), label="ramp"))
        built = []
        entry = TriangularArray.entry
        monkeypatch.setattr(TriangularArray, "entry", lambda *a: built.append(a) or entry(*a))
        for arr in (make_iid_array(Uniform(-1.0, 1.0)), make_rare_jump_array(), ramp):
            assert arr.normal_variances(6) is None
            assert arr.normal_variances(6, 20) is None
        # the series answers from its members and builds no entry
        assert [a for a in built if a[0] is ramp] == []

    def test_mixed_series_is_normal_only_up_to_its_first_other_member(self):
        s = SeriesForm(lambda j: Normal(0.0, 1.0) if j < 4 else Uniform(-1.0, 1.0))
        assert s.standardized_variances(3) == [1.0, 1.0, 1.0]
        assert s.standardized_variances(4) is None
        assert s.standardized_variances(2) == [1.0, 1.0]
        arr = from_series(s)
        assert np.array_equal(arr.normal_variances(3), entry_variances(arr, 3))
        assert arr.normal_variances(4) is None

    @pytest.mark.parametrize(
        "array, n",
        [
            (from_series(shiryaev_series()), 3000),  # the scale underflows
            (from_series(shiryaev_series()), 1100),  # only the variance underflows
            (make_shiryaev_array(), 1100),
        ],
    )
    def test_deep_rows_raise_what_the_entries_raise(self, array, n):
        expected = raised(array.entry, n, 1)
        assert expected is not None
        assert raised(array.normal_variances, n) == expected

    def test_threads_sharing_one_series_array_agree(self):
        expected = from_series(shiryaev_series()).normal_variances(900)
        shared = from_series(shiryaev_series())
        results = [None] * 8

        def worker(i):
            results[i] = shared.normal_variances(900)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert np.array_equal(got, expected)


class TestConfig:
    def test_kinds(self):
        assert array_from_config({"array": "shiryaev"}).label == "shiryaev"
        assert array_from_config({"array": "rare-jump", "rows": "2n"}).row_length(3) == 6
        arr = array_from_config(
            {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}}
        )
        assert arr.entry(4, 1).variance == pytest.approx(0.25)
        assert array_from_config({"array": "series", "base_seq": "shiryaev"}).entry(
            4, 4
        ).variance == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ArrayError):
            array_from_config({"array": "magic"})
