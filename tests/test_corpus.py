import hashlib
import json
import math

import pytest

from conftest import raises_data_error
from disclim.corpus import (
    ANOMALY_LABEL,
    AnnualSeries,
    Corpus,
    align_union,
    annualize_anomaly,
    build_corpus,
    check_aggregate_consistency,
    integrate_on_year,
    load_corpus,
    save_corpus,
    series_from_mapping,
)
from disclim.errors import DataError, EmptyIntersectionError
from disclim.ingest import parse_delimited
from disclim.isocodes import load_default_codes, parse_code_table
from disclim.records import MEASURES, AnomalyRecord, DisasterRecord, DisasterType


class TestAnnualSeries:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            AnnualSeries("x", (2001, 2002), (1.0,))

    def test_years_must_increase(self):
        with pytest.raises(DataError):
            AnnualSeries("x", (2002, 2001), (1.0, 2.0))
        with pytest.raises(DataError):
            AnnualSeries("x", (2001, 2001), (1.0, 2.0))

    def test_values_must_be_finite(self):
        with pytest.raises(DataError):
            AnnualSeries("x", (2001,), (math.nan,))
        with pytest.raises(DataError):
            AnnualSeries("x", (2001,), (math.inf,))

    def test_get_and_span(self):
        s = AnnualSeries("x", (2001, 2003), (1.0, 3.0))
        assert s.get(2003) == 3.0
        assert s.get(2002) is None
        assert s.span() == (2001, 2003)

    def test_empty_span(self):
        with pytest.raises(DataError):
            AnnualSeries("x", (), ()).span()

    def test_from_mapping_sorts(self):
        s = series_from_mapping("x", {2003: 3.0, 2001: 1.0})
        assert s.years == (2001, 2003)
        assert s.values == (1.0, 3.0)


class TestJoins:
    a = AnnualSeries("a", (2001, 2002, 2003), (1.0, 2.0, 3.0))
    b = AnnualSeries("b", (2002, 2003, 2004), (20.0, 30.0, 40.0))

    def test_inner(self):
        joined = integrate_on_year([self.a, self.b])
        assert joined.years == (2002, 2003)
        assert joined.labels == ("a", "b")
        assert joined.column("a") == (2.0, 3.0)
        assert joined.column("b") == (20.0, 30.0)

    def test_inner_empty_intersection(self):
        c = AnnualSeries("c", (1990,), (5.0,))
        with pytest.raises(EmptyIntersectionError):
            integrate_on_year([self.a, c])

    def test_inner_nothing(self):
        with pytest.raises(DataError):
            integrate_on_year([])

    def test_outer(self):
        joined = align_union([self.a, self.b])
        assert joined.years == (2001, 2002, 2003, 2004)
        assert joined.column("a") == (1.0, 2.0, 3.0, None)
        assert joined.column("b") == (None, 20.0, 30.0, 40.0)

    def test_unknown_column(self):
        joined = align_union([self.a])
        with raises_data_error("no series labelled 'nope'"):
            joined.column("nope")


def test_annualize_means_months():
    records = [
        AnomalyRecord(1990, 0.2, month=1),
        AnomalyRecord(1990, 0.4, month=2),
        AnomalyRecord(1991, 0.5, month=1),
    ]
    series = annualize_anomaly(records)
    assert series.label == ANOMALY_LABEL
    assert series.years == (1990, 1991)
    assert series.values[0] == pytest.approx(0.3)
    assert series.values[1] == 0.5


def test_anomaly_series_from_fixture(micro_corpus):
    series = micro_corpus.anomaly_series()
    assert series.years == (1990, 1991, 1992, 1993)
    # 1990 has three surviving months, 1992 lost one cell to the null token
    assert series.values[0] == pytest.approx((0.25 + 0.31 + 0.28) / 3)
    assert series.values[2] == pytest.approx(0.12)


class TestBuildCorpus:
    def test_normalization(self):
        table = parse_delimited(
            "ENTITY,CODE,YEAR,DEATHS\n"
            "Czech Republic,,2001,5\n"
            "World,,2001,7\n"
            "Atlantis,ATL,2003,1\n"
        )
        corpus = build_corpus([table])
        by_entity = {rec.entity: rec for rec in corpus.region_records}
        assert "Czechia" in by_entity
        assert by_entity["Czechia"].iso == "CZE"
        assert not by_entity["Czechia"].aggregate
        assert by_entity["World"].aggregate
        assert by_entity["World"].iso is None
        # unrecognized names pass through untouched
        assert by_entity["Atlantis"].iso == "ATL"

    def test_existing_code_not_overwritten(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nRussia,SUN,1989,5\n")
        rec = build_corpus([table]).region_records[0]
        assert rec.entity == "Russia"
        assert rec.iso == "SUN"

    def test_null_exclusion_threshold_is_inclusive(self):
        table = parse_delimited(
            "ENTITY,CODE,YEAR,DEATHS,AFFECTED\n"
            "India,IND,2001,5,10\n"
            "India,IND,2002,3,NA\n"
            "India,IND,2003,1,\n"
            "India,IND,2004,2,4\n"
        )
        corpus = build_corpus([table], null_threshold=0.5)
        assert corpus.exclusions["region"] == ["affected"]
        assert all("affected" not in rec.measures for rec in corpus.region_records)
        assert all("deaths" in rec.measures for rec in corpus.region_records)
        kept = build_corpus([table], null_threshold=0.51)
        assert kept.exclusions["region"] == []

    def test_duplicate_kind_rejected(self, region_table):
        with pytest.raises(DataError, match="duplicate"):
            build_corpus([region_table, region_table])

    def test_micro_sources_and_reports(self, micro_corpus):
        assert micro_corpus.sources == {
            "region": "region_sample.csv",
            "disaster-type": "type_sample.csv",
            "anomaly": "anomaly_sample.csv",
        }
        assert micro_corpus.exclusions == {
            "region": [],
            "disaster-type": [],
            "anomaly": [],
        }
        assert micro_corpus.null_reports["anomaly"].null_counts["TEMPERATURE_ANOMALY"] == 2


class TestBuildSeries:
    def test_entity_by_name(self, micro_corpus):
        series = micro_corpus.build_series("India", "deaths")
        assert series.label == "India"
        assert series.years == tuple(range(2008, 2017))
        assert series.values[0] == pytest.approx(1734.947159)

    def test_entity_by_iso_and_case(self, micro_corpus):
        assert micro_corpus.build_series("IND", "deaths").label == "India"
        assert micro_corpus.build_series("india", "deaths").years == tuple(range(2008, 2017))

    def test_type_by_enum_and_slug(self, micro_corpus):
        by_enum = micro_corpus.build_series(DisasterType.FLOOD, "affected")
        by_slug = micro_corpus.build_series("flood", "affected")
        assert by_enum == by_slug
        assert by_enum.label == "Flood"
        assert by_enum.years == (1965, 1982, 1989, 1994, 2004, 2010, 2012, 2015, 2016)
        assert by_enum.get(2010) == 188113195.0

    def test_unknown_selector(self, micro_corpus):
        with raises_data_error("unknown entity or disaster type 'Atlantis'"):
            micro_corpus.build_series("Atlantis", "deaths")

    def test_unknown_measure_lists_alternatives(self, micro_corpus):
        with raises_data_error("no defined 'affected' observations for 'India'; available "
                               "measures: deaths, death_rate, percentage_share_deaths, "
                               "internally_displaced"):
            micro_corpus.build_series("India", "affected")

    def test_type_with_no_rows(self, micro_corpus):
        with raises_data_error("no defined 'deaths' observations for 'Drought'; available "
                               "measures: deaths, affected, homeless, injured"):
            micro_corpus.build_series(DisasterType.DROUGHT, "deaths")

    def test_default_series_order(self, bundled):
        labels = [s.label for s in bundled.default_series("count")]
        assert labels == [
            "Temperature Anomaly",
            "All natural disasters",
            "Drought",
            "Earthquake",
            "Extreme temperature",
            "Extreme weather",
            "Flood",
            "Landslide",
            "Volcanic activity",
            "Wildfire",
        ]

    def test_type_names_put_aggregate_last(self, bundled):
        names = bundled.type_names()
        assert names[-1] == "All natural disasters"
        assert names[:-1] == sorted(names[:-1])


def _scanned_series(corpus, selector, measure):
    """build_series for a region selector by a scan of every record."""
    wanted = selector.strip().casefold()
    label, by_year = selector.strip(), {}
    matched = False
    for rec in corpus.region_records:
        if rec.entity.casefold() == wanted or (rec.iso and rec.iso.casefold() == wanted):
            matched, label = True, rec.entity
            if rec.measures.get(measure) is not None:
                by_year[rec.year] = by_year.get(rec.year, 0.0) + rec.measures[measure]
    if not matched:
        raise DataError(f"unknown entity or disaster type {label!r}")
    if not by_year:
        known = {m for rec in corpus.region_records for m, v in rec.measures.items()
                 if v is not None}
        listed = [m for m in MEASURES if m in known] + sorted(known - set(MEASURES))
        raise DataError(f"no defined {measure!r} observations for {label!r}"
                        + (f"; available measures: {', '.join(listed)}" if listed else ""))
    return series_from_mapping(label, by_year)


def _outcome(build, selector):
    try:
        return build(selector, "deaths")
    except DataError as exc:
        return type(exc), str(exc)


def _region(entity, iso, year, deaths):
    return DisasterRecord(entity=entity, iso=iso, year=year, measures={"deaths": deaths})


# sums in record order: 0.1 + 0.2 + 0.3 differs from 0.3 + 0.2 + 0.1 in the last bit
REGIONS = (
    _region("France", "FRA", 2000, 0.1),
    _region("French Republic", "FRA", 2000, 0.2),
    _region("Atlantis", None, 2000, 5.0),
    _region("France", "FRA", 2000, 0.3),
    _region("USA", "USA", 2001, 1.0),
    _region("Lemuria", None, 2001, None),
    _region("Lemuria", None, 2002, 2.5),
    _region("Kenya", "KEN", 2003, None),
    _region("FRA", None, 2001, 7.0),
)


class TestRegionIndex:
    def test_every_selector_matches_a_linear_scan(self):
        corpus = Corpus(region_records=REGIONS)
        names = {r.entity for r in REGIONS} | {r.iso for r in REGIONS if r.iso}
        selectors = {""} | {"Nowhere", "  "}
        for name in names:
            selectors |= {name, name.lower(), name.upper(), name.swapcase(), f"  {name}\t"}
        for selector in sorted(selectors):
            expected = _outcome(lambda s, m: _scanned_series(corpus, s, m), selector)
            assert _outcome(corpus.build_series, selector) == expected, selector
        assert corpus.build_series("fra", "deaths").values == (0.1 + 0.2 + 0.3, 7.0)
        # a blank selector names no region, not every region without a code
        with raises_data_error("unknown entity or disaster type ''"):
            corpus.build_series("", "deaths")

    def test_fixture_names_and_codes_match_a_linear_scan(self, micro_corpus):
        records = micro_corpus.region_records
        for selector in {r.entity for r in records} | {r.iso for r in records if r.iso}:
            for variant in (selector, f" {selector.upper()} "):
                expected = _outcome(lambda s, m: _scanned_series(micro_corpus, s, m), variant)
                assert _outcome(micro_corpus.build_series, variant) == expected

    def test_new_records_are_indexed(self):
        corpus = Corpus(region_records=REGIONS)
        assert corpus.build_series("Atlantis", "deaths").values == (5.0,)
        corpus.region_records = (_region("Atlantis", None, 1999, 4.0),)
        assert corpus.build_series("Atlantis", "deaths").years == (1999,)
        with raises_data_error("unknown entity or disaster type 'France'"):
            corpus.build_series("France", "deaths")

    def test_index_is_not_part_of_equality_or_repr(self):
        used, fresh = Corpus(region_records=REGIONS), Corpus(region_records=REGIONS)
        before = repr(used)
        used.build_series("France", "deaths")
        assert used == fresh
        assert repr(used) == before == repr(fresh)


class TestAggregateConsistency:
    def test_bundled_holds_exactly(self, bundled):
        assert check_aggregate_consistency(bundled, "count") == []
        assert check_aggregate_consistency(bundled, "deaths") == []

    def test_violation_reported(self):
        table = parse_delimited(
            "ENTITY,YEAR,OCCURRENCES\n"
            "All natural disasters,2001,10\n"
            "Flood,2001,4\n"
            "Earthquake,2001,5\n"
        )
        problems = check_aggregate_consistency(build_corpus([table]), "count")
        assert len(problems) == 1
        assert "2001" in problems[0]

    def test_no_aggregate_series_is_vacuous(self, micro_corpus):
        assert check_aggregate_consistency(micro_corpus, "count") == []


class TestPersistence:
    def test_round_trip(self, micro_corpus, tmp_path):
        save_corpus(micro_corpus, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded == micro_corpus

    def test_manifest_lists_digests(self, micro_corpus, tmp_path):
        directory = save_corpus(micro_corpus, tmp_path)
        manifest = (directory / "manifest.json").read_text()
        assert '"sha256"' in manifest
        assert '"rows": 9' in manifest

    def test_tampering_detected(self, micro_corpus, tmp_path):
        directory = save_corpus(micro_corpus, tmp_path)
        target = directory / "type.table"
        saved = target.read_bytes()
        target.write_bytes(saved + b"Flood,2017,1,1,1,1\n")
        with raises_data_error(f"{target}: expected {hashlib.sha256(saved).hexdigest()}, "
                               f"got {hashlib.sha256(target.read_bytes()).hexdigest()}"):
            load_corpus(directory)

    def test_missing_manifest(self, tmp_path):
        with raises_data_error(f"{tmp_path / 'manifest.json'}: manifest missing"):
            load_corpus(tmp_path)

    def test_missing_listed_table(self, micro_corpus, tmp_path):
        directory = save_corpus(micro_corpus, tmp_path)
        (directory / "anomaly.table").unlink()
        with raises_data_error(f"{directory / 'anomaly.table'} listed in manifest but absent"):
            load_corpus(directory)

    @pytest.mark.parametrize("name", ["", ".", "..", "../anomaly.table", "sub/anomaly.table"])
    def test_table_file_must_be_a_plain_name(self, micro_corpus, tmp_path, name):
        directory = save_corpus(micro_corpus, tmp_path / "corpus")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tables"]["anomaly"]["file"] = name
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=r"manifest\.json: table 'anomaly' file .* plain name"):
            load_corpus(directory)

    def test_unreadable_table_names_its_path(self, micro_corpus, tmp_path):
        directory = save_corpus(micro_corpus, tmp_path / "corpus")
        (directory / "anomaly.table").unlink()
        (directory / "anomaly.table").mkdir()
        with pytest.raises(DataError, match=r"anomaly\.table: unreadable table: "):
            load_corpus(directory)

    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        name = '"Atlantis, ""Lost"" City"'
        source = f"Entity,Code,Year,Deaths\n{name},,1990,3\n{name},,1991,\n"
        corpus = build_corpus([parse_delimited(source, source_path="region.csv")])
        assert corpus.region_records[0].entity == 'Atlantis, "Lost" City'
        assert load_corpus(save_corpus(corpus, tmp_path)) == corpus

    def test_partial_corpus_round_trip(self, micro_corpus, tmp_path):
        import dataclasses

        partial = dataclasses.replace(micro_corpus, anomaly_records=())
        directory = save_corpus(partial, tmp_path)
        loaded = load_corpus(directory)
        assert loaded.anomaly_records == ()
        assert loaded.type_records == micro_corpus.type_records


class TestBundled:
    def test_record_counts(self, bundled):
        assert len(bundled.region_records) == 6469
        assert len(bundled.type_records) == 757
        assert len(bundled.anomaly_records) == 1632

    def test_spans(self, bundled):
        assert bundled.anomaly_series().span() == (1880, 2015)
        assert bundled.build_series("all-disasters", "count").span() == (1900, 2016)

    def test_nothing_excluded(self, bundled):
        assert all(not dropped for dropped in bundled.exclusions.values())


class TestIsoCodes:
    def test_alias_and_bare_code(self):
        codes = load_default_codes()
        hit = codes.normalize("United States of America")
        assert hit.canonical == "United States"
        assert hit.code == "USA"
        assert codes.normalize("USA").canonical == "United States"
        assert codes.normalize("Czech Republic").code == "CZE"

    def test_loaded_once_per_process(self):
        assert load_default_codes() is load_default_codes()

    def test_unknown_is_none(self):
        assert load_default_codes().normalize("Atlantis") is None

    def test_aggregates_flagged(self):
        codes = load_default_codes()
        assert codes.normalize("World").aggregate
        assert codes.normalize("World").code is None

    def test_bad_header(self):
        with pytest.raises(DataError):
            parse_code_table("name,code\nIndia,IND\n")

    def test_duplicate_code(self):
        text = (
            "canonical,code,aggregate,aliases\n"
            "India,IND,false,\n"
            "Indiana,IND,false,\n"
        )
        with pytest.raises(DataError, match="duplicate ISO code"):
            parse_code_table(text)

    def test_alias_to_unknown_target(self):
        from disclim.isocodes import IsoCodeTable, NormalizedEntity

        entries = [NormalizedEntity("India", "IND", False)]
        with pytest.raises(DataError, match="unknown"):
            IsoCodeTable(entries, {"Hindustan": "Bharat"})

    def test_alias_collision(self):
        from disclim.isocodes import IsoCodeTable, NormalizedEntity

        entries = [
            NormalizedEntity("India", "IND", False),
            NormalizedEntity("China", "CHN", False),
        ]
        with pytest.raises(DataError, match="collides"):
            IsoCodeTable(entries, {"china": "India"})

    def test_bad_code_shape(self):
        with pytest.raises(DataError, match="bad ISO code"):
            parse_code_table("canonical,code,aggregate,aliases\nIndia,IN,false,\n")
