import math

import pytest

from disclim.corpus import build_corpus
from disclim.errors import DataError, NegativeValueError
from disclim.metrics import (
    NewsIntensity,
    ShareTable,
    SunburstNode,
    intensity_ratio,
    news_intensity,
    overall_share,
    share_of_total,
    share_table,
    shares_by_group,
    sunburst_deaths_affected,
)
from disclim.ingest import parse_delimited
from disclim.records import DisasterType


class TestShareOfTotal:
    def test_basic(self):
        shares = share_of_total({"Flood": 43.0, "Other": 57.0})
        assert shares == {"Flood": 0.43, "Other": 0.57}

    def test_zero_total(self):
        assert share_of_total({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}

    def test_empty(self):
        assert share_of_total({}) == {}

    def test_negative_rejected(self):
        with pytest.raises(NegativeValueError):
            share_of_total({"a": -1.0, "b": 2.0})


class TestSharesByGroup:
    per_year = {2001: {"a": 1.0, "b": 3.0}, 2002: {"a": 0.0, "b": 0.0}, 2003: {"b": 2.0}}

    def test_normalization(self):
        table = shares_by_group(self.per_year)
        assert table.labels == ("a", "b")
        assert table.years == (2001, 2002, 2003)
        assert table.row(2001) == {"a": 0.25, "b": 0.75}

    def test_zero_total_year_flagged_not_dropped(self):
        table = shares_by_group(self.per_year)
        assert table.zero_total_years == frozenset({2002})
        assert table.row(2002) == {"a": 0.0, "b": 0.0}

    def test_missing_label_is_zero(self):
        table = shares_by_group(self.per_year)
        assert table.row(2003) == {"a": 0.0, "b": 1.0}

    def test_row_returns_a_copy(self):
        table = shares_by_group(self.per_year)
        table.row(2001)["a"] = 99.0
        assert table.row(2001)["a"] == 0.25


class TestShareTableValidation:
    def test_sum_enforced(self):
        with pytest.raises(DataError, match="sum"):
            ShareTable(
                labels=("a", "b"),
                years=(2001,),
                shares={2001: {"a": 0.5, "b": 0.6}},
                zero_total_years=frozenset(),
            )

    def test_flagged_year_must_be_all_zero(self):
        with pytest.raises(DataError):
            ShareTable(
                labels=("a",),
                years=(2001,),
                shares={2001: {"a": 1.0}},
                zero_total_years=frozenset({2001}),
            )

    def test_negative_share(self):
        with pytest.raises(NegativeValueError):
            ShareTable(
                labels=("a", "b"),
                years=(2001,),
                shares={2001: {"a": -0.5, "b": 1.5}},
                zero_total_years=frozenset(),
            )


class TestCorpusShares:
    def test_single_type_has_full_share(self, micro_corpus):
        table = share_table(micro_corpus, "deaths")
        assert table.labels == ("Flood",)
        assert all(table.row(y) == {"Flood": 1.0} for y in table.years)
        assert overall_share(micro_corpus, DisasterType.FLOOD, "deaths") == 1.0

    def test_missing_measure(self, micro_corpus):
        with pytest.raises(DataError):
            share_table(micro_corpus, "count")
        with pytest.raises(DataError):
            overall_share(micro_corpus, DisasterType.FLOOD, "count")

    def test_duplicate_type_year_rows_are_summed(self):
        raw = b"Entity,Year,Occurrences\nFlood,2000,3\nFlood,2000,4\nDrought,2000,3\n"
        corpus = build_corpus([parse_delimited(raw, source_path="types.csv")])
        assert share_table(corpus).row(2000) == {"Drought": 0.3, "Flood": 0.7}
        assert overall_share(corpus, DisasterType.FLOOD) == 0.7
        assert corpus.build_series("flood", "count").values == (7.0,)

    def test_bundled_excludes_aggregate(self, bundled):
        table = share_table(bundled)
        assert "All natural disasters" not in table.labels
        assert len(table.labels) == 8
        assert table.labels == tuple(sorted(table.labels))

    def test_bundled_rows_sum_to_one(self, bundled):
        table = share_table(bundled)
        assert table.years[0] == 1900 and table.years[-1] == 2016
        assert not table.zero_total_years
        for year in table.years:
            assert sum(table.row(year).values()) == pytest.approx(1.0, abs=1e-9)

    def test_bundled_flood_dominates_events(self, bundled):
        share = overall_share(bundled, DisasterType.FLOOD)
        others = [
            overall_share(bundled, t)
            for t in DisasterType
            if not t.is_aggregate and t is not DisasterType.FLOOD
        ]
        assert share > max(others)
        assert sum(others) + share == pytest.approx(1.0, abs=1e-9)


class TestSunburst:
    def test_from_source_row(self):
        root, warnings = sunburst_deaths_affected(
            {"Flood": 4648.0}, {"Flood": 36917037.0}
        )
        assert warnings == []
        assert root.label == "All natural disasters"
        assert root.value == 36917037.0
        (flood,) = root.children
        assert (flood.label, flood.value) == ("Flood", 36917037.0)
        assert flood.children == (SunburstNode("deaths", 4648.0),)

    def test_root_sums_children(self):
        root, _ = sunburst_deaths_affected(
            {"Flood": 10.0, "Drought": 5.0}, {"Flood": 100.0, "Drought": 50.0}
        )
        assert root.value == 150.0
        assert all(sum(c.value for c in node.children) <= node.value
                   for node in (root,) + root.children)

    def test_deaths_past_affected_warns_without_clamping(self):
        root, warnings = sunburst_deaths_affected({"Drought": 80.0}, {"Drought": 30.0})
        assert len(warnings) == 1 and "Drought" in warnings[0]
        (drought,) = root.children
        assert drought.value == 30.0
        assert drought.children == (SunburstNode("deaths", 80.0),)

    def test_all_zero_tree(self):
        root, warnings = sunburst_deaths_affected({"Flood": 0.0}, {"Flood": 0.0})
        assert root.children == ()
        assert any("zero" in w for w in warnings)

    def test_zero_only_types_omitted(self):
        root, _ = sunburst_deaths_affected(
            {"Flood": 1.0, "Drought": 0.0}, {"Flood": 2.0, "Drought": 0.0}
        )
        assert [c.label for c in root.children] == ["Flood"]

    def test_node_validation(self):
        with pytest.raises(NegativeValueError):
            SunburstNode("x", -1.0)
        with pytest.raises(DataError):
            SunburstNode("x", math.nan)


class TestNewsIntensity:
    deaths = {"Drought": 40000.0, "Earthquake": 10.0, "Wildfire": 3.0}
    coverage = {"Drought": 2.0, "Earthquake": 10.0, "Wildfire": 0.0}

    def test_ranking_most_ignored_first(self):
        ranked = news_intensity(self.deaths, self.coverage)
        assert [e.label for e in ranked] == ["Drought", "Earthquake", "Wildfire"]
        assert ranked[0].deaths_per_story == 20000.0
        assert ranked[1].deaths_per_story == 1.0

    def test_zero_coverage_flagged_undefined_and_last(self):
        ranked = news_intensity(self.deaths, self.coverage)
        tail = ranked[-1]
        assert tail.label == "Wildfire"
        assert tail.deaths_per_story is None
        assert not tail.covered

    def test_intensity_ratio(self):
        ranked = news_intensity(self.deaths, self.coverage)
        assert intensity_ratio(ranked[0], ranked[1]) == 20000.0

    def test_ratio_undefined_cases(self):
        ranked = news_intensity(self.deaths, self.coverage)
        with pytest.raises(DataError):
            intensity_ratio(ranked[0], ranked[-1])
        zero = NewsIntensity("quiet", 0.0, 5.0)
        with pytest.raises(DataError):
            intensity_ratio(ranked[0], zero)

    def test_order_invariant_under_death_rescaling(self):
        base = [e.label for e in news_intensity(self.deaths, self.coverage)]
        scaled = {k: v * 1000.0 for k, v in self.deaths.items()}
        assert [e.label for e in news_intensity(scaled, self.coverage)] == base

    def test_equal_intensity_breaks_ties_by_label(self):
        ranked = news_intensity({"b": 10.0, "a": 20.0}, {"b": 1.0, "a": 2.0})
        assert [e.label for e in ranked] == ["a", "b"]

    def test_shares_cannot_exceed_hundred(self):
        with pytest.raises(DataError):
            news_intensity({"a": 1.0, "b": 1.0}, {"a": 60.0, "b": 50.0})

    def test_negative_inputs(self):
        with pytest.raises(NegativeValueError):
            news_intensity({"a": -1.0}, {"a": 1.0})
        with pytest.raises(NegativeValueError):
            news_intensity({"a": 1.0}, {"a": -1.0})
