import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from disclim import stats
from disclim.corpus import AnnualSeries, JoinedTable, align_union
from disclim.errors import (
    DataError,
    EmptyMatrixError,
    TooFewPairsError,
    ZeroVarianceError,
)
from disclim.stats import (
    METHODS,
    CorrelationMatrix,
    correlation_matrix,
    kendall,
    normalize_method,
    pearson,
    rank_average_ties,
    spearman,
)

from conftest import assert_kendall_matches_loop, census_by_loop


def _two_pass_pearson(x, y):
    """pearson as it was with an ndarray.mean() per pass, frozen as an oracle."""
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise DataError(f"incompatible shapes: {ax.shape} vs {ay.shape}")
    if ax.size < 2:
        raise TooFewPairsError(ax.size, 2)
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise DataError("non-finite values in input")
    if ax.min() == ax.max() or ay.min() == ay.max():
        raise ZeroVarianceError("constant series has no linear correlation")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = ax - ax.mean()
        dy = ay - ay.mean()
        moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
        if not math.isfinite(moments):
            ax, ay = ax / np.abs(ax).max(), ay / np.abs(ay).max()
            dx = ax - ax.mean()
            dy = ay - ay.mean()
            moments = float(np.dot(dx, dx)) * float(np.dot(dy, dy))
    denominator = math.sqrt(moments)
    if denominator == 0.0:
        raise ZeroVarianceError("series variance underflows to zero")
    return max(-1.0, min(1.0, float(np.dot(dx, dy)) / denominator))


def _outcome(estimator, *args):
    """The exact text of the coefficient, or the class and message of the error."""
    try:
        return float.hex(estimator(*args))
    except (DataError, TooFewPairsError, ZeroVarianceError) as exc:
        return type(exc), str(exc)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_known_value(self):
        expected = 9.0 / math.sqrt(84.0)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)

    def test_shift_of_one_series(self):
        r = pearson([1, 2, 3, 4], [10, 30, 20, 50])
        shifted = pearson([1, 2, 3, 4], [110, 130, 120, 150])
        assert shifted == pytest.approx(r, abs=1e-12)

    def test_constant_series(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(ZeroVarianceError):
            pearson([1, 2, 3], [7, 7, 7])

    def test_underflowing_variance(self):
        # not constant, but the spread is so small its moment squares to 0.0;
        # this must raise rather than leak a 0/0 through the clamp
        with pytest.raises(ZeroVarianceError):
            pearson([0.0, 1e-320, 0.0], [1.0, 2.0, 3.0])

    def test_too_few(self):
        with pytest.raises(TooFewPairsError):
            pearson([1.0], [2.0])

    def test_non_finite(self):
        with pytest.raises(DataError):
            pearson([1, 2, math.nan], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1, 2], [1, 2, 3])

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            ours = pearson(x, y)
            theirs = scipy.stats.pearsonr(x, y).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)

    @pytest.mark.parametrize("x, y", [
        ([1e200, -1e200, 0.0, 5.0], [1.0, 2.0, 3.0, 4.0]),
        ([1e300, -1e300, 3e299, 0.0, 2e299], [2e300, 1.0, -1e300, 5e299, 0.0]),
    ], ids=["1e200", "both-1e300"])
    def test_overflowing_moments_match_scipy(self, x, y):
        # the squared deviations overflow to inf, and the coefficient must
        # not collapse to 0.0; no numpy warning escapes either
        ours = pearson(x, y)
        theirs = scipy.stats.pearsonr(x, y).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    POOLS = {
        "ties": [0.0, 1.0, 2.0, 3.0],
        "gaps": [None, None, -1.5, 0.0, 2.0, 7.25, 40.0],
        "subnormal": [0.0, 5e-324, 1e-323, -5e-324, 1e-160, 3e-155],
        "1e300": [1e300, -1e300, 3e299, 0.0, 1.0, 2.0],
        "1e160": [1e160, -1e160, 2.5e159, 0.0, 1.0],
        "non-finite": [math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        "constant beside non-finite": [2.0, 2.0, 2.0, 2.0, 2.0, math.nan, math.inf],
    }

    @pytest.mark.parametrize("pool", POOLS)
    def test_equals_the_two_pass_oracle(self, pool):
        rng = np.random.default_rng(sorted(self.POOLS).index(pool))
        for _ in range(150):
            n = int(rng.integers(0, 30))
            x = rng.choice(np.array(self.POOLS[pool], dtype=object), size=n).tolist()
            y = rng.choice(np.array(self.POOLS[pool] + [4.0, 9.5], dtype=object), size=n).tolist()
            # pairwise completion, as a matrix cell sees the values
            kept = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
            x, y = [a for a, _ in kept], [b for _, b in kept]
            assert _outcome(pearson, x, y) == _outcome(_two_pass_pearson, x, y), (x, y)


class TestRanks:
    def test_no_ties(self):
        assert rank_average_ties([30, 10, 20]) == (3.0, 1.0, 2.0)

    def test_tied_block_gets_mean_rank(self):
        assert rank_average_ties([10, 20, 20, 30]) == (1.0, 2.5, 2.5, 4.0)

    def test_all_tied(self):
        assert rank_average_ties([5, 5, 5]) == (2.0, 2.0, 2.0)

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            values = rng.integers(0, 10, size=n).astype(float)
            ours = rank_average_ties(values)
            theirs = scipy.stats.rankdata(values, method="average")
            assert np.allclose(ours, theirs)

    def test_rank_sum_invariant(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        n = len(values)
        assert sum(rank_average_ties(values)) == pytest.approx(n * (n + 1) / 2)


class TestSpearman:
    def test_known_value(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_monotone_is_one(self):
        assert spearman([1, 2, 3, 4], [10, 100, 1000, 10000]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_tie_route_equals_pearson_on_ranks(self):
        x = [1.0, 2.0, 2.0, 3.0, 5.0]
        y = [4.0, 4.0, 6.0, 7.0, 7.0]
        expected = pearson(rank_average_ties(x), rank_average_ties(y))
        assert spearman(x, y) == expected

    def test_tied_constant_series(self):
        with pytest.raises(ZeroVarianceError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 12, size=n).astype(float)
            y = rng.integers(0, 12, size=n).astype(float)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            ours = spearman(x, y)
            theirs = scipy.stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestKendall:
    def test_known_value(self):
        assert kendall([1, 2, 3], [3, 1, 2]) == pytest.approx(-1.0 / 3.0)

    def test_perfect(self):
        assert kendall([1, 2, 3], [10, 20, 30]) == 1.0
        assert kendall([1, 2, 3], [30, 20, 10]) == -1.0

    def test_tau_a_defined_for_constant(self):
        # no tie correction: a constant series just contributes zero surplus
        assert kendall([5, 5, 5], [1, 2, 3], "tau-a") == 0.0

    def test_tau_b_fully_tied(self):
        with pytest.raises(ZeroVarianceError):
            kendall([5, 5, 5], [1, 2, 3], "tau-b")

    def test_tau_a_shrinks_under_ties(self):
        x = [1, 2, 2, 3]
        y = [1, 2, 3, 4]
        assert abs(kendall(x, y, "tau-a")) < abs(kendall(x, y, "tau-b"))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            kendall([1, 2, 3], [1, 2, 3], variant="tau-c")

    def test_long_series_leave_no_pair_indices_behind(self):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 60, 2000).astype(float)
        x, y = x.tolist(), (x + rng.integers(0, 60, 2000)).tolist()
        tracemalloc.start()
        try:
            tau_a, tau_b = kendall(x, y, "tau-a"), kendall(x, y, "tau-b")
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a cache of every pair's indices would hold ~32 MB here
        assert left < 2 * 2**20
        # the values of the earlier implementation, which kept that cache
        assert (tau_a.hex(), tau_b.hex()) == ("0x1.fdd8d42c21c39p-2", "0x1.027ffcddbd189p-1")

    def test_tau_b_matches_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 8, size=n).astype(float)
            y = rng.integers(0, 8, size=n).astype(float)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            ours = kendall(x, y, "tau-b")
            theirs = scipy.stats.kendalltau(x, y, variant="b").statistic
            assert ours == pytest.approx(theirs, abs=1e-12)


class TestCensus:
    def test_counts(self):
        x, y = [1, 2, 2, 3], [1, 1, 2, 2]
        assert census_by_loop(x, y) == dict(
            concordant=3, discordant=0, ties_x=1, ties_y=2, ties_both=0
        )
        assert kendall(x, y, "tau-a") == 3 / 6
        assert kendall(x, y, "tau-b") == 3 / math.sqrt(5 * 4)

    def test_total_is_all_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            x = rng.integers(0, 5, size=n).astype(float).tolist()
            y = rng.integers(0, 5, size=n).astype(float).tolist()
            assert sum(census_by_loop(x, y).values()) == n * (n - 1) // 2
            assert_kendall_matches_loop(x, y)


def _ranks_by_loop(values) -> tuple[float, ...]:
    ranks = []
    for v in values:
        below = sum(u < v for u in values)
        equal = sum(u == v for u in values)
        ranks.append((2 * below + equal + 1) / 2)
    return tuple(ranks)


class TestAgainstLoops:
    # two columns of 100 values sum their signs over two blocks of year
    # pairs, every smaller size over one
    SIZES = (2, 40, 7, 41, 3, 2, 60, 13, 100)

    def test_census_and_ranks_on_tie_heavy_input(self):
        assert 60 * 59 // 2 < stats._SIGN_BLOCK // 2 < 100 * 99 // 2
        rng = np.random.default_rng(23)
        for n in self.SIZES:
            for _ in range(5):
                x = rng.choice([-1.5, -0.0, 0.0, 2.0, 3.0], size=n).tolist()
                y = rng.integers(0, 3, size=n).astype(float).tolist()
                assert_kendall_matches_loop(x, y)
                assert rank_average_ties(x) == _ranks_by_loop(x)
                assert rank_average_ties(y) == _ranks_by_loop(y)

    def test_constant_and_untied_input(self):
        constant, untied = [4.0] * 6, [1, 2, 3, 4, 5, 6]
        assert census_by_loop(constant, untied) == dict(
            concordant=0, discordant=0, ties_x=15, ties_y=0, ties_both=0
        )
        assert_kendall_matches_loop(constant, untied)
        assert_kendall_matches_loop(untied, [0.5, -2.0, 9.0, 1.0, 1.5, 7.0])
        assert rank_average_ties([4.0] * 6) == (3.5,) * 6
        assert rank_average_ties([0.5, -2.0, 9.0]) == (2.0, 1.0, 3.0)
        assert rank_average_ties([]) == ()


def _two_columns(x, y) -> JoinedTable:
    return JoinedTable(years=tuple(range(len(x))), labels=("x", "y"), columns=(x, y))


class TestPairwiseComplete:
    def test_drops_positions_with_any_none(self):
        x, y = (1.0, None, 3.0, 4.0, 2.0), (10.0, 20.0, None, 40.0, 50.0)
        m = correlation_matrix(_two_columns(x, y))
        assert m.counts[0][1] == 3
        assert m.cell("x", "y") == pearson([1.0, 4.0, 2.0], [10.0, 40.0, 50.0])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            _two_columns((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_default_minimum_is_three(self):
        m = correlation_matrix(_two_columns((1.0, None, 3.0, 4.0), (10.0, 20.0, None, 40.0)))
        assert m.values[0][1] is None
        assert m.counts[0][1] == 2
        assert m.reasons[(0, 1)] == str(TooFewPairsError(2, 3))
        three = correlation_matrix(_two_columns((1.0, 2.0, 3.0, 4.0), (10.0, 20.0, None, 40.0)))
        assert three.values[0][1] is not None


class TestMethodNames:
    def test_aliases(self):
        assert normalize_method("Pearson") == "pearson"
        assert normalize_method("kendall") == "kendall-tau-a"
        assert normalize_method("tau-b") == "kendall-tau-b"
        assert normalize_method(" spearman ") == "spearman"

    def test_unknown(self):
        with pytest.raises(ValueError):
            normalize_method("cosine")

    def test_methods_tuple_is_canonical(self):
        assert all(normalize_method(m) == m for m in METHODS)


def _is_significant(r: float, **threshold) -> bool:
    m = CorrelationMatrix(("a", "b"), ((1.0, r), (r, 1.0)), ((3, 3), (3, 3)), "pearson")
    return m.significant_pairs(**threshold) == [("a", "b", r)]


class TestSignificance:
    def test_magnitude_rule(self):
        assert _is_significant(0.865128)
        assert _is_significant(-0.81)
        assert _is_significant(0.8)
        assert not _is_significant(0.79)
        assert not _is_significant(-0.799)

    def test_custom_threshold(self):
        assert _is_significant(0.5, threshold=0.5)
        assert not _is_significant(0.49, threshold=0.5)


def _gapped_table() -> JoinedTable:
    a = AnnualSeries("a", (2001, 2002, 2003, 2004, 2005), (1.0, 2.0, 3.0, 4.0, 5.0))
    b = AnnualSeries("b", (2001, 2002, 2003, 2005), (2.0, 4.0, 6.0, 10.0))
    c = AnnualSeries("c", (2004,), (9.0,))
    d = AnnualSeries("d", (2001, 2002, 2003, 2004), (7.0, 7.0, 7.0, 7.0))
    return align_union([a, b, c, d])


class TestCorrelationMatrix:
    def test_shape_and_diagonal(self):
        m = correlation_matrix(_gapped_table(), "pearson")
        assert m.size == 4
        assert m.values[0][0] == 1.0
        assert m.values[1][1] == 1.0
        # "c" has one defined value, "d" is constant: no diagonal 1 for either
        assert m.values[2][2] is None
        assert (2, 2) in m.reasons
        assert m.values[3][3] is None
        assert "constant" in m.reasons[(3, 3)]

    def test_pairwise_counts(self):
        m = correlation_matrix(_gapped_table(), "pearson")
        assert m.counts[0][1] == 4  # a and b share 2001-2003 and 2005
        assert m.counts[0][2] == 1  # a and c share only 2004
        assert m.counts[0][0] == 5

    def test_undefined_reasons(self):
        m = correlation_matrix(_gapped_table(), "pearson")
        assert m.values[0][2] is None
        assert (0, 2) in m.reasons and (2, 0) in m.reasons
        assert m.values[0][3] is None  # d is constant over the overlap
        assert "constant" in m.reasons[(0, 3)]

    def test_exact_symmetry(self):
        m = correlation_matrix(_gapped_table(), "spearman")
        for i in range(m.size):
            for j in range(m.size):
                assert m.values[i][j] == m.values[j][i]
                assert m.counts[i][j] == m.counts[j][i]

    def test_defined_cell_value(self):
        m = correlation_matrix(_gapped_table(), "pearson")
        assert m.cell("a", "b") == pytest.approx(1.0)
        assert m.defined_cells() == 4  # both diagonals plus the (a, b) mirror pair

    def test_one_estimator_call_per_pair(self, monkeypatch):
        import disclim.stats as stats_module

        calls = {"n": 0}
        real = stats_module.pearson

        def counting(x, y):
            calls["n"] += 1
            return real(x, y)

        monkeypatch.setattr(stats_module, "pearson", counting)
        table = align_union(
            [
                AnnualSeries(lab, (2001, 2002, 2003, 2004), vals)
                for lab, vals in [
                    ("a", (1.0, 2.0, 3.0, 4.0)),
                    ("b", (2.0, 4.0, 6.0, 9.0)),
                    ("c", (5.0, 1.0, 4.0, 2.0)),
                    ("d", (3.0, 8.0, 2.0, 0.0)),
                ]
            ]
        )
        correlation_matrix(table, "pearson")
        assert calls["n"] == 4 * 3 // 2

    def test_methods_all_work(self):
        table = _gapped_table()
        for method in METHODS:
            m = correlation_matrix(table, method)
            assert m.method == method
            cell = m.cell("a", "b")
            assert cell is not None and -1.0 <= cell <= 1.0

    def test_non_finite_in_a_completed_pair(self):
        # JoinedTable does not check its cells; a nan that meets a defined
        # value in the other column still reaches the estimator's check
        columns = ((1.0, 2.0, math.nan, 4.0), (2.0, 1.0, 3.0, 5.0), (1.0, 3.0, None, 2.0))
        table = JoinedTable(years=(1, 2, 3, 4), labels=("a", "b", "c"), columns=columns)
        for method in METHODS:
            with pytest.raises(DataError, match="non-finite"):
                correlation_matrix(table, method)
        clear = JoinedTable(years=(1, 2, 3, 4), labels=("a", "c"), columns=columns[::2])
        # a nan or inf outside every completed pair is never read
        stray = JoinedTable(years=(1, 2, 3, 4), labels=("a", "b", "c"), columns=(
            (math.nan, math.inf, None, None), (2.0, 1.0, 3.0, 5.0), (1.0, 3.0, 2.0, 4.0)))
        for method in METHODS:
            assert correlation_matrix(clear, method).counts[0][1] == 3
            matrix = correlation_matrix(stray, method)
            assert matrix.counts[0] == (2, 2, 2)
            assert matrix.values[0] == (None, None, None)
            assert matrix.values[1][2] is not None

    def test_too_few_series(self):
        table = align_union([AnnualSeries("a", (2001, 2002), (1.0, 2.0))])
        with pytest.raises(EmptyMatrixError):
            correlation_matrix(table)

    def test_label_permutation_leaves_cells_alone(self):
        a = AnnualSeries("a", (2001, 2002, 2003, 2004), (1.0, 2.0, 3.0, 5.0))
        b = AnnualSeries("b", (2001, 2002, 2003, 2004), (2.0, 4.0, 5.0, 9.0))
        c = AnnualSeries("c", (2001, 2002, 2003, 2004), (9.0, 4.0, 2.0, 1.0))
        original = correlation_matrix(align_union([a, b, c]), "pearson")
        shuffled = correlation_matrix(align_union([c, a, b]), "pearson")
        for left in "abc":
            for right in "abc":
                assert original.cell(left, right) == shuffled.cell(left, right)

    def test_to_delimited_golden(self):
        a = AnnualSeries("a", (2001, 2002, 2003), (1.0, 2.0, 3.0))
        b = AnnualSeries("b", (2001, 2002, 2003), (2.0, 4.0, 6.0))
        m = correlation_matrix(align_union([a, b]), "pearson")
        assert m.to_delimited() == (
            ",a,b\n"
            "a,1.000000,1.000000\n"
            "b,1.000000,1.000000\n"
        )

    def test_to_delimited_blank_for_undefined(self):
        m = correlation_matrix(_gapped_table(), "pearson")
        lines = m.to_delimited().splitlines()
        row_c = lines[3].split(",")
        assert row_c[0] == "c"
        assert row_c[1:] == ["", "", "", ""]

    def test_significant_pairs_ordering(self):
        m = CorrelationMatrix(
            labels=("a", "b", "c"),
            values=(
                (1.0, 0.9, -0.95),
                (0.9, 1.0, 0.5),
                (-0.95, 0.5, 1.0),
            ),
            counts=((3, 3, 3), (3, 3, 3), (3, 3, 3)),
            method="pearson",
        )
        assert m.significant_pairs() == [("a", "c", -0.95), ("a", "b", 0.9)]
        assert m.significant_pairs(threshold=0.4) == [
            ("a", "c", -0.95),
            ("a", "b", 0.9),
            ("b", "c", 0.5),
        ]

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(DataError, match="unique"):
            CorrelationMatrix(("a", "a"), ((1.0, 0.0), (0.0, 1.0)),
                              ((1, 1), (1, 1)), "pearson")
        with pytest.raises(DataError, match="square"):
            CorrelationMatrix(("a", "b"), ((1.0,), (0.0,)), ((1,), (1,)), "pearson")
        with pytest.raises(DataError, match="range"):
            CorrelationMatrix(("a", "b"), ((1.0, 1.5), (1.5, 1.0)),
                              ((1, 1), (1, 1)), "pearson")
        with pytest.raises(DataError, match="symmetric"):
            CorrelationMatrix(("a", "b"), ((1.0, 0.5), (0.4, 1.0)),
                              ((1, 1), (1, 1)), "pearson")
        # the heatmap styles (i, j) and (j, i) once, and -0.0 prints as "-0.00"
        with pytest.raises(DataError, match="symmetric"):
            CorrelationMatrix(("a", "b"), ((1.0, -0.0), (0.0, 1.0)),
                              ((1, 1), (1, 1)), "pearson")
