"""Acceptance gate: one test per shipping criterion, one printed verdict each.

The oracles here are written independently of the library: plain-Python
two-pass moments, hand-rolled average ranks, and exhaustive pair
enumeration.  The golden coefficients below were computed once with these
oracles against the bundled corpus and frozen; the library must keep
matching them bit-for-bit at 1e-12.
"""

import functools
import math
import random
import time
from importlib import resources

import pytest

from disclim.charts import emit_chart, ramp_position, render_heatmap_svg
from disclim.cli import main
from disclim.corpus import align_union, build_corpus, integrate_on_year
from disclim.ingest import parse_delimited
from disclim.metrics import (
    deaths_and_affected,
    overall_share,
    region_totals,
    share_table,
    shares_by_group,
    sunburst_deaths_affected,
)
from disclim.records import DisasterType
from disclim.stats import (
    METHODS,
    correlation_matrix,
    kendall,
    pearson,
    rank_average_ties,
    spearman,
)

SEED = 20160211

OCCURRENCE_GOLDEN = 0.8651578078590948
DAMAGE_GOLDEN = 0.6474060000041457
FLOOD_SHARE_GOLDEN = 0.430010152284264

BUNDLED_FILES = (
    "disasters_by_region.csv",
    "disasters_by_type.csv",
    "temperature_anomaly_monthly.csv",
)

VERDICT_LINES: list[str] = []  # echoed by conftest's terminal-summary hook


def announced(number: int, title: str):
    """Record a verdict line for one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = "FAIL"
            try:
                result = fn(*args, **kwargs)
                verdict = "PASS"
                return result
            finally:
                VERDICT_LINES.append(f"[ACCEPT] criterion {number} ({title}): {verdict}")

        return wrapper

    return decorate


# -- independent oracles -------------------------------------------------------


def oracle_pearson(x, y) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxy = sxx = syy = 0.0
    for a, b in zip(x, y):
        sxy += (a - mean_x) * (b - mean_y)
        sxx += (a - mean_x) ** 2
        syy += (b - mean_y) ** 2
    return sxy / math.sqrt(sxx * syy)


def oracle_average_ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2.0  # mean of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def oracle_spearman(x, y) -> float:
    return oracle_pearson(oracle_average_ranks(x), oracle_average_ranks(y))


def oracle_kendall_tau_a(x, y) -> float:
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (x[j] > x[i] and y[j] > y[i]) or (x[j] < x[i] and y[j] < y[i]):
                concordant += 1
            elif (x[j] > x[i] and y[j] < y[i]) or (x[j] < x[i] and y[j] > y[i]):
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) // 2)


def _pair_with_duplicates(rng: random.Random, n: int) -> tuple[list[float], list[float]]:
    x = [rng.uniform(-100.0, 100.0) for _ in range(n)]
    y = [rng.uniform(-100.0, 100.0) for _ in range(n)]
    for values in (x, y):
        for i in range(1, n):
            if rng.random() < 0.35:
                values[i] = values[rng.randrange(i)]
        if min(values) == max(values):
            values[0] = values[0] + 1.0
    return x, y


@pytest.fixture(scope="module")
def matrices(bundled):
    built = {}
    for measure in ("count", "economic_damage"):
        table = align_union(bundled.default_series(measure))
        for method in METHODS:
            built[(method, measure)] = correlation_matrix(table, method)
    return built


@announced(1, "estimators match independent oracles")
def test_criterion_1_estimator_oracle_equivalence():
    rng = random.Random(SEED)
    started = time.perf_counter()
    saw_ties = False
    for _ in range(1000):
        n = rng.randint(3, 50)
        x, y = _pair_with_duplicates(rng, n)
        saw_ties = saw_ties or len(set(x)) < n or len(set(y)) < n

        assert abs(pearson(x, y) - oracle_pearson(x, y)) <= 1e-12
        assert abs(spearman(x, y) - oracle_spearman(x, y)) <= 1e-12
        assert kendall(x, y, "tau-a") == oracle_kendall_tau_a(x, y)
    elapsed = time.perf_counter() - started
    assert saw_ties, "duplicate injection never produced a tie"
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


@announced(2, "closed form agrees with rank-route")
def test_criterion_2_spearman_dual_route():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        n = rng.randint(3, 50)
        while True:  # continuous draws almost never tie, but be exact about it
            x = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
            y = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
            if len(set(x)) == n and len(set(y)) == n:
                break
        closed_form = spearman(x, y)
        via_ranks = pearson(rank_average_ties(x), rank_average_ties(y))
        assert abs(closed_form - via_ranks) <= 1e-12


@announced(3, "matrix invariants on the bundled corpus")
def test_criterion_3_matrix_invariants(matrices):
    assert len(matrices) == len(METHODS) * 2
    for matrix in matrices.values():
        assert matrix.size == 10
        assert len(matrix.labels) == 10
        for i in range(10):
            assert matrix.values[i][i] == 1.0
            for j in range(10):
                value = matrix.values[i][j]
                assert value is not None
                assert -1.0 <= value <= 1.0
                assert value == matrix.values[j][i]


@announced(4, "headline coefficients inside published bands")
def test_criterion_4_headline_coefficients(bundled, matrices):
    anomaly = bundled.anomaly_series()
    anomaly_map = dict(zip(anomaly.years, anomaly.values))

    def oracle_against(measure: str) -> float:
        series = bundled.build_series(DisasterType.ALL_NATURAL_DISASTERS, measure)
        series_map = dict(zip(series.years, series.values))
        years = sorted(set(anomaly_map) & set(series_map))
        return oracle_pearson(
            [anomaly_map[y] for y in years], [series_map[y] for y in years]
        )

    # frozen goldens must be re-derivable from the oracle at any time
    assert abs(oracle_against("count") - OCCURRENCE_GOLDEN) <= 1e-12
    assert abs(oracle_against("economic_damage") - DAMAGE_GOLDEN) <= 1e-12

    occurrence = matrices[("pearson", "count")].cell(
        "Temperature Anomaly", "All natural disasters"
    )
    damage = matrices[("pearson", "economic_damage")].cell(
        "Temperature Anomaly", "All natural disasters"
    )
    assert abs(occurrence - OCCURRENCE_GOLDEN) <= 1e-12
    assert abs(damage - DAMAGE_GOLDEN) <= 1e-12
    assert 0.80 <= occurrence <= 0.92
    assert 0.58 <= damage <= 0.71


@announced(5, "flood share of recorded events")
def test_criterion_5_flood_share(bundled):
    share = overall_share(bundled, DisasterType.FLOOD, "count")
    assert abs(share - 0.43) <= 0.03
    assert abs(share - FLOOD_SHARE_GOLDEN) <= 1e-12


@announced(6, "invariance laws hold over random sweeps")
def test_criterion_6_invariance_laws():
    rng = random.Random(SEED + 2)

    for _ in range(500):  # affine equivariance of the linear coefficient
        n = rng.randint(3, 40)
        x = [rng.gauss(0.0, 1.0) for _ in range(n)]
        y = [rng.gauss(0.0, 1.0) for _ in range(n)]
        scale = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
        offset = rng.uniform(-10.0, 10.0)
        base = pearson(x, y)
        moved = pearson([scale * v + offset for v in x], y)
        expected = base if scale > 0 else -base
        assert abs(moved - expected) <= 1e-12

    for _ in range(500):  # monotone-transform invariance of the rank methods
        n = rng.randint(3, 40)
        x = [rng.randint(-50, 50) for _ in range(n)]
        y = [rng.randint(-50, 50) for _ in range(n)]
        if min(x) == max(x) or min(y) == max(y):
            x[0], y[0] = x[0] + 1, y[0] + 1
        cubed = [float(v**3) for v in x]
        stretched = [float(2 * v + 5) for v in y]
        assert spearman(cubed, stretched) == spearman(x, y)
        assert kendall(cubed, stretched) == kendall(x, y)

    for _ in range(500):  # share rows renormalize to exactly one
        years = {
            rng.randint(1900, 2020): {
                label: float(rng.randint(0, 10**6))
                for label in ("a", "b", "c", "d")[: rng.randint(1, 4)]
            }
            for _ in range(rng.randint(1, 8))
        }
        table = shares_by_group(years)
        for year in table.years:
            total = sum(table.row(year).values())
            if year in table.zero_total_years:
                assert total == 0.0
            else:
                assert abs(total - 1.0) <= 1e-9

    for _ in range(500):  # color ramp positioning is strictly monotone
        low, high = sorted(rng.sample(range(-1000, 1001), 2))
        assert ramp_position(low / 1000.0) < ramp_position(high / 1000.0)


@announced(7, "report output is byte-identical across runs")
def test_criterion_7_report_determinism(tmp_path, capsys):
    out = tmp_path / "report"
    argv = ["report", "--out", str(out)]

    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    assert sorted(first) == sorted(second)
    assert len(first) == 23  # 8 tables + 8 heatmaps + 5 charts + 2 summaries
    for name, blob in sorted(first.items()):
        assert second[name] == blob, name


@announced(8, "full pipeline completes under one second")
def test_criterion_8_pipeline_speed():
    started = time.perf_counter()

    root = resources.files("disclim.data").joinpath("bundled")
    tables = [
        parse_delimited(root.joinpath(name).read_bytes(), source_path=name)
        for name in BUNDLED_FILES
    ]
    corpus = build_corpus(tables)
    assert len(corpus.region_records) == 6469
    assert len(corpus.type_records) == 757

    built = []
    for measure in ("count", "economic_damage"):
        table = align_union(corpus.default_series(measure))
        for method in METHODS:
            matrix = correlation_matrix(table, method)
            built.append(render_heatmap_svg(matrix))

    anomaly = corpus.anomaly_series()
    all_count = corpus.build_series(DisasterType.ALL_NATURAL_DISASTERS, "count")
    hierarchy, _warnings = sunburst_deaths_affected(*deaths_and_affected(corpus))
    by_country = region_totals(corpus, "deaths")

    documents = [
        emit_chart("timeseries", align_union(corpus.default_series("count"))),
        emit_chart("dualaxis", integrate_on_year([all_count, anomaly])),
        emit_chart("stackedarea", share_table(corpus, "count")),
        emit_chart("sunburst", hierarchy),
        emit_chart("choropleth", by_country),
    ]
    payload = sum(len(doc.to_bytes()) for doc in documents) + sum(map(len, built))
    assert payload > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
