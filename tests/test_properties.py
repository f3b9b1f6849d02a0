"""Law-style checks: every invariant the estimators and transforms promise."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disclim.charts import emit_chart, ramp_position
from disclim.corpus import AnnualSeries, JoinedTable, align_union, integrate_on_year
from disclim.errors import DataError, EmptyIntersectionError, TooFewPairsError, ZeroVarianceError
from disclim import stats
from disclim.ingest import COMMA, TAB, RawTable, parse_delimited
from disclim.metrics import news_intensity, shares_by_group, sunburst_deaths_affected
from disclim.stats import (
    MIN_PAIRS,
    METHODS,
    correlation_matrix,
    kendall,
    pearson,
    rank_average_ties,
    spearman,
)

from conftest import assert_kendall_matches_loop, census_by_loop

# tie-rich integer draws so rank and census paths see heavy duplication
tie_values = st.integers(min_value=-6, max_value=6)
# tie draws plus magnitudes whose differences overflow, signed zeros and the
# smallest subnormal, for the matrix paths
table_values = st.one_of(
    tie_values.map(float), st.sampled_from([1e300, -1e300, 0.0, -0.0, 5e-324])
)
tame_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def paired_lists(draw, elements, min_size=3, max_size=30):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    x = draw(st.lists(elements, min_size=n, max_size=n))
    y = draw(st.lists(elements, min_size=n, max_size=n))
    return x, y


def _non_constant(values) -> bool:
    return min(values) != max(values)


class TestCoefficientLaws:
    @given(paired_lists(tame_floats))
    def test_pearson_bounded_and_symmetric(self, xy):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        try:
            r = pearson(x, y)
        except ZeroVarianceError:
            assume(False)  # spread narrower than a subnormal squares to zero
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == r

    @given(paired_lists(tie_values))
    def test_spearman_bounded_and_symmetric(self, xy):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        r = spearman(x, y)
        assert -1.0 <= r <= 1.0
        assert spearman(y, x) == r

    @given(paired_lists(tie_values))
    def test_kendall_bounded_and_symmetric(self, xy):
        x, y = xy
        r = kendall(x, y)
        assert -1.0 <= r <= 1.0
        assert kendall(y, x) == r

    @given(
        paired_lists(st.integers(min_value=-1000, max_value=1000)),
        st.sampled_from([0.25, 0.5, 2.0, 3.0, 10.0]),
        st.integers(min_value=-100, max_value=100),
        st.booleans(),
    )
    def test_pearson_affine_equivariance(self, xy, scale, offset, flip):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        a = -scale if flip else scale
        transformed = [a * v + offset for v in x]
        expected = -pearson(x, y) if flip else pearson(x, y)
        assert pearson(transformed, y) == pytest.approx(expected, abs=1e-12)

    @given(paired_lists(st.integers(min_value=-50, max_value=50)))
    def test_rank_methods_invariant_under_monotone_maps(self, xy):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        # strictly increasing on integers, exact in binary floating point
        cubed = [v**3 for v in x]
        stretched = [2 * v + 5 for v in y]
        assert spearman(cubed, stretched) == spearman(x, y)
        assert kendall(cubed, stretched) == kendall(x, y)

    @given(paired_lists(tie_values))
    def test_spearman_agrees_with_pearson_on_ranks(self, xy):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        direct = spearman(x, y)
        via_ranks = pearson(rank_average_ties(x), rank_average_ties(y))
        assert direct == pytest.approx(via_ranks, abs=1e-12)

    @given(paired_lists(tie_values))
    def test_negating_y_flips_sign(self, xy):
        x, y = xy
        assume(_non_constant(x) and _non_constant(y))
        negated = [-v for v in y]
        assert pearson(x, negated) == pytest.approx(-pearson(x, y), abs=1e-15)
        assert kendall(x, negated) == -kendall(x, y)


class TestCensusAndRanks:
    @given(paired_lists(tie_values, min_size=2))
    def test_census_partitions_all_pairs(self, xy):
        x, y = xy
        n = len(x)
        assert sum(census_by_loop(x, y).values()) == n * (n - 1) // 2
        assert_kendall_matches_loop(x, y)

    @given(st.lists(tie_values, min_size=1, max_size=40))
    def test_rank_sum_is_fixed(self, values):
        n = len(values)
        assert sum(rank_average_ties(values)) == pytest.approx(n * (n + 1) / 2)

    @given(st.lists(tame_floats, min_size=1, max_size=40, unique=True))
    def test_ranks_without_ties_are_a_permutation(self, values):
        ranks = rank_average_ties(values)
        assert sorted(ranks) == list(range(1, len(values) + 1))


@st.composite
def gappy_tables(draw):
    """Tie-heavy columns with gaps, some constant, some with fewer than 3 values."""
    n = draw(st.integers(min_value=0, max_value=25))
    columns = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        kind = draw(st.sampled_from(["tied", "constant", "sparse"]))
        value = st.just(draw(table_values)) if kind == "constant" else table_values
        cells = draw(st.lists(st.one_of(st.none(), value), min_size=n, max_size=n))
        if kind == "sparse":
            defined = [i for i, v in enumerate(cells) if v is not None]
            for i in defined[draw(st.integers(0, 2)):]:
                cells[i] = None
        columns.append(tuple(cells))
    labels = tuple(f"s{i}" for i in range(len(columns)))
    return JoinedTable(years=tuple(range(n)), labels=labels, columns=tuple(columns))


_ESTIMATORS = {
    "pearson": pearson,
    "spearman": spearman,
    "kendall-tau-a": lambda x, y: kendall(x, y, "tau-a"),
    "kendall-tau-b": lambda x, y: kendall(x, y, "tau-b"),
}


def _pairwise_complete(x, y):
    """Keep exactly the positions where both values are present."""
    kept = [(a, b) for a, b in zip(x, y) if a is not None and b is not None]
    if len(kept) < MIN_PAIRS:
        raise TooFewPairsError(len(kept), MIN_PAIRS)
    return tuple(a for a, _ in kept), tuple(b for _, b in kept)


def _matrix_by_pairs(table, method):
    """values, counts and reasons from _pairwise_complete and the estimator."""
    k = len(table.columns)
    values = [[None] * k for _ in range(k)]
    counts = [[0] * k for _ in range(k)]
    reasons = {}
    for i, column in enumerate(table.columns):
        defined = [v for v in column if v is not None]
        counts[i][i] = len(defined)
        if len(defined) < MIN_PAIRS:
            reasons[(i, i)] = f"only {len(defined)} defined values"
        elif min(defined) == max(defined):
            reasons[(i, i)] = "constant series"
        else:
            values[i][i] = 1.0
    for i in range(k):
        for j in range(i + 1, k):
            try:
                x, y = _pairwise_complete(table.columns[i], table.columns[j])
                counts[i][j] = counts[j][i] = len(x)
                values[i][j] = values[j][i] = _ESTIMATORS[method](x, y)
            except (TooFewPairsError, ZeroVarianceError) as exc:
                if isinstance(exc, TooFewPairsError):
                    counts[i][j] = counts[j][i] = exc.n
                reasons[(i, j)] = reasons[(j, i)] = str(exc)
    return tuple(map(tuple, values)), tuple(map(tuple, counts)), reasons


def _hex(values):
    """Cells as exact text, so that -0.0 and 0.0 differ."""
    return [[None if v is None else float.hex(v) for v in row] for row in values]


def _assert_matrix_by_pairs(table, order=METHODS):
    for method in order:
        matrix = correlation_matrix(table, method)
        values, counts, reasons = _matrix_by_pairs(table, method)
        assert _hex(matrix.values) == _hex(values), method
        assert matrix.counts == counts, method
        assert matrix.reasons == reasons, method


def _wide_table(seed, k=41, n=150):
    """k tie-heavy columns over n years: 40% zeros, gaps and staggered starts."""
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(k):
        start = int(rng.integers(0, n // 2))
        cells = [None] * start
        for _ in range(start, n):
            draw = rng.random()
            if draw < 0.2:
                cells.append(None)
            elif draw < 0.6:
                cells.append(0.0)
            else:
                cells.append(float(rng.integers(1, 40)))
        columns.append(tuple(cells))
    labels = tuple(f"s{i}" for i in range(k))
    return JoinedTable(years=tuple(range(n)), labels=labels, columns=tuple(columns))


class TestMatrixExactness:
    @settings(max_examples=150)
    @given(gappy_tables(), st.permutations(METHODS))
    def test_matrix_equals_per_pair_completion(self, table, order):
        # a table's matrices share its work, in whatever order they are built
        _assert_matrix_by_pairs(table, order)

    def test_wide_table_equals_per_pair_completion(self):
        table = _wide_table(seed=20)
        k, n = len(table.labels), len(table.years)
        # Kendall's signs are summed over several blocks of year pairs
        assert n * (n - 1) // 2 > 2 * (stats._SIGN_BLOCK // k)
        _assert_matrix_by_pairs(table)


def _fresh(table):
    """An equal table that shares no work with *table*."""
    return JoinedTable(years=table.years, labels=table.labels, columns=table.columns)


def _assert_same_matrix(got, expected):
    assert _hex(got.values) == _hex(expected.values), got.method
    assert got.counts == expected.counts, got.method
    assert got.reasons == expected.reasons, got.method


class TestSharedTableWork:
    """A table's matrices share the work its first matrix keeps with the table."""

    @pytest.mark.parametrize("order", [
        METHODS,
        METHODS[::-1],
        ("kendall-tau-b", "pearson", "kendall-tau-a", "spearman"),
    ])
    def test_any_order_equals_a_fresh_table(self, order):
        table = _wide_table(seed=25)
        for method in order:
            _assert_same_matrix(correlation_matrix(table, method),
                                correlation_matrix(_fresh(table), method))

    def test_equal_tables_keep_their_own_work(self):
        table = _wide_table(seed=25, k=6, n=30)
        twin = _fresh(table)
        correlation_matrix(table, "kendall-tau-a")
        assert table._derived and not twin._derived
        correlation_matrix(twin, "pearson")
        assert twin._derived is not table._derived
        assert "kendall" in table._derived and "kendall" not in twin._derived

    def test_non_finite_raises_on_every_call(self):
        # the nan in "a" meets a defined "b" in a pair of three completed years
        columns = ((1.0, 2.0, math.nan, 4.0), (2.0, 1.0, 3.0, 5.0), (1.0, 3.0, None, 2.0))
        table = JoinedTable(years=(1, 2, 3, 4), labels=("a", "b", "c"), columns=columns)
        for method in METHODS * 3:
            with pytest.raises(DataError, match="non-finite"):
                correlation_matrix(table, method)
        for method in METHODS:
            table = _fresh(table)
            for _ in range(3):
                with pytest.raises(DataError, match="non-finite"):
                    correlation_matrix(table, method)

    def test_used_tables_compare_hash_and_print_as_fresh_ones(self):
        table = _wide_table(seed=25, k=6, n=30)
        twin = _fresh(table)
        for method in METHODS:
            correlation_matrix(table, method)
        assert table == twin and hash(table) == hash(twin)
        assert repr(table) == repr(twin)
        assert "_derived" not in repr(table)

    def test_a_table_built_from_lists_does_not_follow_them(self):
        years, labels = [1, 2, 3, 4, 5], ["a", "b", "c"]
        columns = [[1.0, 2.0, 3.0, 5.0, 4.0], [2.0, 1.0, None, 5.0, 3.0], [0.0, 0.0, 1.0, 2.0, 2.0]]
        table = JoinedTable(years=years, labels=labels, columns=columns)
        before = {method: correlation_matrix(table, method) for method in METHODS}
        years.reverse()
        labels[0] = "z"
        columns[0][0] = 9.0
        columns[1][2] = 7.0
        columns.append([1.0] * 5)
        assert table == JoinedTable(
            years=(1, 2, 3, 4, 5),
            labels=("a", "b", "c"),
            columns=((1.0, 2.0, 3.0, 5.0, 4.0), (2.0, 1.0, None, 5.0, 3.0), (0.0, 0.0, 1.0, 2.0, 2.0)),
        )
        for method in METHODS:
            again = correlation_matrix(table, method)
            assert again.labels == ("a", "b", "c")
            _assert_same_matrix(again, before[method])

    def test_work_dies_with_its_table(self):
        correlation_matrix(_wide_table(seed=25, k=3, n=10))  # numpy's first-call state
        table = _wide_table(seed=25, k=40, n=150)
        tracemalloc.start()
        try:
            matrices = [correlation_matrix(table, method) for method in METHODS]
            held, _ = tracemalloc.get_traced_memory()
            del table, matrices
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the table's work is ~40% of what it and its matrices hold (~0.25 MB),
        # so work that outlived its table would stay behind
        assert left < 2**20
        assert left < held / 4


class TestJoins:
    years_strategy = st.lists(
        st.integers(min_value=1900, max_value=2020), min_size=1, max_size=25, unique=True
    )

    @given(years_strategy, years_strategy)
    def test_inner_is_sorted_intersection(self, years_a, years_b):
        a = AnnualSeries("a", tuple(sorted(years_a)), tuple(float(y) for y in sorted(years_a)))
        b = AnnualSeries("b", tuple(sorted(years_b)), tuple(float(y) for y in sorted(years_b)))
        common = set(years_a) & set(years_b)
        if not common:
            with pytest.raises(EmptyIntersectionError):
                integrate_on_year([a, b])
            return
        joined = integrate_on_year([a, b])
        assert joined.years == tuple(sorted(common))
        assert all(v is not None for column in joined.columns for v in column)

    @given(years_strategy, years_strategy)
    def test_outer_is_sorted_union(self, years_a, years_b):
        a = AnnualSeries("a", tuple(sorted(years_a)), tuple(float(y) for y in sorted(years_a)))
        b = AnnualSeries("b", tuple(sorted(years_b)), tuple(float(y) for y in sorted(years_b)))
        joined = align_union([a, b])
        assert joined.years == tuple(sorted(set(years_a) | set(years_b)))
        gaps = sum(v is None for col in joined.columns for v in col)
        assert gaps == 2 * len(joined.years) - len(years_a) - len(years_b)


class TestShares:
    counts_strategy = st.dictionaries(
        st.integers(min_value=1990, max_value=2010),
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=0, max_value=10**6).map(float),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=10,
    )

    @given(counts_strategy)
    def test_rows_sum_to_one_or_are_flagged(self, per_year):
        table = shares_by_group(per_year)
        for year in table.years:
            total = sum(table.row(year).values())
            if year in table.zero_total_years:
                assert total == 0.0
            else:
                assert total == pytest.approx(1.0, abs=1e-9)

    @given(counts_strategy)
    def test_shares_preserve_proportion_order(self, per_year):
        # integer counts keep relative gaps far above double precision, so
        # normalizing must never reorder labels
        table = shares_by_group(per_year)
        for year in table.years:
            counts = {k: float(per_year[year].get(k, 0.0)) for k in table.labels}
            row = table.row(year)
            by_count = sorted(table.labels, key=lambda k: (counts[k], k))
            by_share = sorted(table.labels, key=lambda k: (row[k], k))
            assert by_count == by_share


class TestRamp:
    coefficient_grid = st.integers(min_value=-1000, max_value=1000).map(
        lambda i: i / 1000.0
    )

    @given(coefficient_grid, coefficient_grid)
    def test_strictly_increasing(self, u, v):
        assume(u != v)
        low, high = min(u, v), max(u, v)
        assert ramp_position(low) < ramp_position(high)

    @given(coefficient_grid)
    def test_range_and_midpoint_symmetry(self, v):
        p = ramp_position(v)
        assert 0.0 <= p <= 1.0
        assert ramp_position(-v) == pytest.approx(1.0 - p, abs=1e-15)


class TestRoundTrip:
    header_strategy = st.lists(
        st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True),
        min_size=1,
        max_size=5,
        # the parser rejects names that differ only in case
        unique_by=str.upper,
    )
    cell_strategy = st.text(
        alphabet=st.characters(
            blacklist_characters="\r\x00", blacklist_categories=("Cs",)
        ),
        max_size=20,
    )

    @given(header_strategy, st.data())
    @settings(max_examples=60)
    def test_serialize_then_parse_is_identity(self, header, data):
        width = len(header)
        rows = data.draw(
            st.lists(
                st.lists(self.cell_strategy, min_size=width, max_size=width).map(tuple),
                max_size=6,
            )
        )
        table = RawTable(header=tuple(header), rows=tuple(rows))
        for delimiter in (COMMA, TAB):
            again = parse_delimited(table.serialize(delimiter), delimiter)
            assert again.header == table.header
            assert again.rows == table.rows


def _containment_violations(node) -> list[str]:
    """Nodes whose children sum past the parent (slack is legitimate)."""
    problems = []
    child_sum = sum(c.value for c in node.children)
    if node.children and child_sum > node.value:
        problems.append(f"{node.label}: children sum {child_sum!r} exceeds {node.value!r}")
    for c in node.children:
        problems.extend(_containment_violations(c))
    return problems


class TestHierarchy:
    amounts = st.dictionaries(
        st.sampled_from(["Flood", "Drought", "Earthquake", "Wildfire"]),
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=4,
    )

    @given(amounts, st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    def test_contained_when_deaths_under_affected(self, deaths, headroom):
        affected = {label: value * headroom + 1.0 for label, value in deaths.items()}
        root, warnings = sunburst_deaths_affected(deaths, affected)
        assert _containment_violations(root) == []
        assert warnings == []
        assert root.value == pytest.approx(sum(affected.values()))

    @given(amounts)
    def test_document_bytes_deterministic(self, deaths):
        affected = {label: value + 1.0 for label, value in deaths.items()}
        root, _ = sunburst_deaths_affected(deaths, affected)
        assert emit_chart("sunburst", root).to_bytes() == emit_chart("sunburst", root).to_bytes()


class TestNewsRanking:
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.integers(min_value=0, max_value=10**6).map(float),
            min_size=2,
            max_size=5,
        ),
        st.data(),
        st.sampled_from([0.5, 2.0, 8.0, 1024.0]),
    )
    def test_order_invariant_under_death_rescaling(self, deaths, data, scale):
        labels = sorted(deaths)
        share_values = data.draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, 10.0]),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        coverage = dict(zip(labels, share_values))
        intensities = sorted(
            deaths.get(k, 0.0) / v for k, v in coverage.items() if v > 0
        )
        # skip draws where two intensities nearly coincide: scaling such a
        # pair may legitimately collapse them onto the label tiebreak
        assume(
            all(
                b - a > 1e-9 * max(a, b, 1.0)
                for a, b in zip(intensities, intensities[1:])
            )
        )
        base = [e.label for e in news_intensity(deaths, coverage)]
        scaled = {k: v * scale for k, v in deaths.items()}
        assert [e.label for e in news_intensity(scaled, coverage)] == base

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=10**4).map(float),
            min_size=1,
            max_size=3,
        )
    )
    def test_uncovered_types_always_trail(self, deaths):
        coverage = {label: 0.0 for label in deaths}
        some = sorted(deaths)[0]
        coverage[some] = 5.0
        ranked = news_intensity(deaths, coverage)
        covered_flags = [e.covered for e in ranked]
        assert covered_flags == sorted(covered_flags, reverse=True)
