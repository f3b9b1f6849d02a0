import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from importlib import resources

import pytest

from disclim import charts, cli, stats
from disclim import corpus as corpus_module
from disclim.cli import (
    CORPUS_ENV,
    UsageError,
    _matrix_for,
    _reads_regions,
    build_parser,
    main,
)
from disclim.corpus import Corpus, build_corpus, load_bundled_corpus, save_corpus
from disclim.ingest import SchemaKind, parse_delimited

from conftest import FIXTURES


@pytest.fixture(autouse=True)
def _no_ambient_corpus(monkeypatch):
    monkeypatch.delenv(CORPUS_ENV, raising=False)


@pytest.fixture(scope="module")
def bundled_dir(tmp_path_factory):
    """A saved-corpus directory holding the bundled records."""
    import disclim

    directory = tmp_path_factory.mktemp("saved") / "corpus"
    save_corpus(disclim.load_bundled_corpus(), directory)
    return directory


class TestCorr:
    def test_happy_path(self, tmp_path, capsys):
        assert main(["corr", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith(",Temperature Anomaly,All natural disasters")
        assert lines[1].startswith("Temperature Anomaly,1.000000,0.865158")
        assert any(line.startswith("significant:") for line in lines)
        assert (tmp_path / "correlation_pearson_occurrence.csv").exists()
        assert (tmp_path / "correlation_pearson_occurrence.svg").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_csv_matches_stdout_matrix(self, tmp_path, capsys):
        main(["corr", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        written = (tmp_path / "correlation_pearson_occurrence.csv").read_text()
        assert out.startswith(written)

    def test_method_and_against_in_filenames(self, tmp_path):
        assert main(["corr", "--method", "kendall", "--against", "damage",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "correlation_kendall-tau-a_damage.csv").exists()

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        assert main(["corr", "--method", "cosine", "--out", str(tmp_path)]) == 1
        assert "disclim:" in capsys.readouterr().err

    def test_explicit_corpus_dir(self, bundled_dir, tmp_path):
        assert main(["corr", "--corpus", str(bundled_dir), "--out", str(tmp_path)]) == 0

    def test_env_corpus_dir_is_honored(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(CORPUS_ENV, str(tmp_path / "nowhere"))
        assert main(["corr", "--out", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err.lower()

    def test_flag_beats_env(self, monkeypatch, bundled_dir, tmp_path):
        monkeypatch.setenv(CORPUS_ENV, str(tmp_path / "nowhere"))
        assert main(["corr", "--corpus", str(bundled_dir), "--out", str(tmp_path)]) == 0

    def test_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        assert main(["corr", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("disclim: cannot write ") and str(out) in err
        assert out.read_text() == "not a directory"
        assert not list(tmp_path.glob("*.tmp"))


def _without(key):
    def edit(manifest):
        del manifest["tables"]["anomaly"][key]
        return manifest
    return edit


def _with_file(name):
    def edit(manifest):
        manifest["tables"]["anomaly"]["file"] = name
        return manifest
    return edit


# each edit maps the saved manifest to its replacement: raw bytes or new JSON
@pytest.mark.parametrize("edit", [
    lambda m: b"{not json",
    lambda m: b"\xff\xfe",
    lambda m: [],
    lambda m: {**m, "tables": ["anomaly"]},
    lambda m: {**m, "tables": {**m["tables"], "bogus": m["tables"]["anomaly"]}},
    lambda m: {**m, "tables": {**m["tables"], "anomaly": "anomaly.table"}},
    _without("sha256"),
    _without("file"),
    _with_file(""),
    _with_file("."),
    _with_file("../anomaly.table"),
], ids=["invalid-json", "not-utf8", "not-an-object", "tables-not-an-object",
        "unknown-kind", "entry-not-an-object", "missing-sha256", "missing-file",
        "empty-file-name", "dot-file-name", "file-outside"])
def test_malformed_manifest_is_data_error(bundled_dir, tmp_path, capsys, edit):
    corpus_dir = shutil.copytree(bundled_dir, tmp_path / "corpus")
    manifest_path = corpus_dir / "manifest.json"
    edited = edit(json.loads(manifest_path.read_text()))
    manifest_path.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
    assert main(["corr", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("disclim: ") and "manifest.json" in err[0]


def test_missing_manifest_says_so(tmp_path, capsys):
    assert main(["corr", "--corpus", str(tmp_path / "nowhere"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("disclim: ") and "manifest.json" in err[0] and "missing" in err[0]


def test_directory_as_table_file_is_data_error(bundled_dir, tmp_path, capsys):
    corpus_dir = shutil.copytree(bundled_dir, tmp_path / "corpus")
    (corpus_dir / "sub").mkdir()
    manifest_path = corpus_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tables"]["anomaly"]["file"] = "sub"
    manifest_path.write_text(json.dumps(manifest))
    assert main(["corr", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"disclim: {corpus_dir / 'sub'}: unreadable table: ")


def _cell(row, column, value):
    """An edit that sets one cell of a stored table; row 0 is the header."""
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return edit


# each case: the table edited, the edit (lines -> lines), and where the
# message must point, when the fault has a row or line
@pytest.mark.parametrize("file, edit, where", [
    ("region.table", _cell(3, 2, "19x0"), "row 3"),
    ("type.table", _cell(3, 2, "abc"), "row 3"),
    ("type.table", _cell(3, 2, "nan"), "row 3"),
    ("region.table", _cell(3, 4, "-1.0"), "row 3"),
    ("region.table", _cell(3, 3, "maybe"), "row 3"),
    ("type.table", _cell(3, 0, "Meteor strike"), "row 3"),
    ("anomaly.table", _cell(3, 1, "13"), "row 3"),
    ("anomaly.table", _cell(3, 2, "warm"), "row 3"),
    ("region.table", _cell(0, 0, "name"), None),
    ("anomaly.table", lambda lines: [line.rsplit(",", 1)[0] for line in lines], None),
    ("region.table", lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:],
     "line 5"),
    ("type.table", _cell(3, 1, "1_900"), "row 3"),
    ("region.table", _cell(3, 2, " 1900"), "row 3"),
    ("type.table", _cell(3, 2, "3_00.0"), "row 3"),
    ("anomaly.table", _cell(3, 2, "0.5\t"), "row 3"),
    ("region.table", _cell(3, 1, "xx"), "row 3"),
    ("region.table", _cell(3, 0, ""), "row 3"),
], ids=["year-19x0", "measure-abc", "measure-nan", "negative-measure", "aggregate-maybe",
        "unknown-disaster-type", "month-13", "anomaly-warm", "renamed-key-column",
        "anomaly-two-columns", "short-row", "year-underscore", "year-leading-space",
        "measure-underscore", "anomaly-trailing-tab", "iso-not-alpha3", "empty-entity"])
def test_stored_table_fault_is_data_error(bundled_dir, tmp_path, capsys, file, edit, where):
    corpus_dir = shutil.copytree(bundled_dir, tmp_path / "corpus")
    table = corpus_dir / file
    payload = ("\n".join(edit(table.read_text().splitlines())) + "\n").encode()
    table.write_bytes(payload)
    manifest_path = corpus_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = next(e for e in manifest["tables"].values() if e["file"] == file)
    entry["sha256"] = hashlib.sha256(payload).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    assert main(["corr", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("disclim: ") and str(table) in err[0]
    if where is not None:
        assert f"{where}:" in err[0]


# -- every data fault a user can cause: exit 2 and one line that names it ----


def _ingested(text, message):
    """A case: ingest *text* as the region source; *message* may name {source}."""
    def case(tmp_path, bundled_dir):
        source = tmp_path / "region.csv"
        source.write_text(text)
        argv = ["ingest", "--region", str(source), "--corpus", str(tmp_path / "corpus")]
        return argv, message.format(source=source)
    return case


def _second_source_fault(tmp_path, bundled_dir):
    # with two sources, the fault line says which file the row is in
    good = tmp_path / "good.csv"
    good.write_text("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("ENTITY,YEAR,OCCURRENCES\nFlood,2001,3\nFlood,2002,x\n")
    argv = ["ingest", "--region", str(good), "--types", str(bad),
            "--corpus", str(tmp_path / "corpus")]
    return argv, f"{bad}: row 2, column 'OCCURRENCES': cannot parse 'x' as a number"


def _charted(series, message):
    """A case: a timeseries chart of the saved bundled corpus."""
    def case(tmp_path, bundled_dir):
        return ["chart", "--kind", "timeseries", "--series", series, "--corpus",
                str(bundled_dir), "--out", str(tmp_path / "out")], message
    return case


def _corr(directory, tmp_path):
    return ["corr", "--corpus", str(directory), "--out", str(tmp_path / "out")]


def _missing_manifest(tmp_path, bundled_dir):
    directory = tmp_path / "nowhere"
    return _corr(directory, tmp_path), f"{directory / 'manifest.json'}: manifest missing"


def _missing_table(tmp_path, bundled_dir):
    directory = shutil.copytree(bundled_dir, tmp_path / "corpus")
    (directory / "anomaly.table").unlink()
    message = f"{directory / 'anomaly.table'} listed in manifest but absent"
    return _corr(directory, tmp_path), message


def _tampered_table(tmp_path, bundled_dir):
    directory = shutil.copytree(bundled_dir, tmp_path / "corpus")
    table = directory / "type.table"
    saved = table.read_bytes()
    table.write_bytes(saved + b"Flood,2017,1,1,1,1\n")
    return _corr(directory, tmp_path), (f"{table}: expected {hashlib.sha256(saved).hexdigest()}, "
                                        f"got {hashlib.sha256(table.read_bytes()).hexdigest()}")


def _map_without_code(tmp_path, bundled_dir):
    source = tmp_path / "region.csv"
    source.write_text("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nLemuria,,2001,1\n")
    assert main(["ingest", "--region", str(source), "--corpus", str(tmp_path / "corpus")]) == 0
    return ["chart", "--kind", "choropleth", "--corpus", str(tmp_path / "corpus"),
            "--out", str(tmp_path / "out")], "entities without ISO codes: Lemuria"


@pytest.mark.parametrize("case", [
    _ingested("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5,6\n",
              "{source}: line 2: expected 4 cells, got 5"),
    _ingested("ENTITY,CODE,YEAR,DEATHS,deaths\nIndia,IND,2001,5,6\n",
              "{source}: duplicate column name: 'deaths'"),
    _ingested("", "{source}: no content"),
    _ingested("FOO,BAR\n1,2\n", "{source}: columns ['BAR', 'FOO'] match no known layout"),
    _ingested("ENTITY,YEAR,TEMPERATURE_ANOMALY\nx,2001,0.3\n",
              "{source}: matches anomaly, disaster-type"),
    _ingested("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nIndia,IND,2002,x\n",
              "{source}: row 2, column 'DEATHS': cannot parse 'x' as a number"),
    _ingested("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,1700,5\n",
              "{source}: row 1, column 'YEAR': year 1700 outside [1850, 2100]"),
    _ingested("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,-5\n",
              "{source}: row 1: measure 'deaths' is negative: -5.0"),
    _second_source_fault,
    _charted("Atlantis/deaths", "unknown entity or disaster type 'Atlantis'"),
    _charted("India/bogus", "no defined 'bogus' observations for 'India'; available measures: "
             "deaths, death_rate, percentage_share_deaths, internally_displaced"),
    _missing_manifest,
    _missing_table,
    _tampered_table,
    _map_without_code,
], ids=["ragged-row", "duplicate-header", "empty-input", "unknown-schema", "ambiguous-schema",
        "unparseable-number", "year-out-of-range", "negative-measure",
        "fault-in-second-source", "unknown-selector",
        "unknown-measure", "missing-manifest", "missing-listed-table", "digest-mismatch",
        "map-entity-without-code"])
def test_each_data_fault_is_exit_2_and_one_line(tmp_path, bundled_dir, capsys, case):
    argv, message = case(tmp_path, bundled_dir)
    capsys.readouterr()
    assert (main(argv), capsys.readouterr().err) == (2, f"disclim: {message}\n")


class TestIngest:
    def test_fixtures_to_corpus(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        code = main([
            "ingest",
            "--region", str(FIXTURES / "region_sample.csv"),
            "--types", str(FIXTURES / "type_sample.csv"),
            "--anomaly", str(FIXTURES / "anomaly_sample.csv"),
            "--corpus", str(corpus_dir),
        ])
        assert code == 0
        assert (corpus_dir / "manifest.json").exists()
        out = capsys.readouterr().out
        assert "anomaly nulls" in out
        assert f"corpus written to {corpus_dir}" in out

    def test_single_source_is_enough(self, tmp_path):
        code = main([
            "ingest",
            "--anomaly", str(FIXTURES / "anomaly_sample.csv"),
            "--corpus", str(tmp_path / "corpus"),
        ])
        assert code == 0

    def test_no_sources(self, capsys):
        assert main(["ingest"]) == 1
        assert "at least one" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["ingest", "--anomaly", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_ragged_source(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("YEAR,TEMPERATURE_ANOMALY\n1990,0.2,extra\n")
        assert main(["ingest", "--anomaly", str(bad),
                     "--corpus", str(tmp_path / "corpus")]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and str(bad) in err

    def test_mostly_null_anomaly_column_is_not_excluded(self, tmp_path):
        source = tmp_path / "anomaly.csv"
        source.write_text("YEAR,TEMPERATURE_ANOMALY\n1990,0.2\n1991,NA\n1992,\n1993,0.4\n")
        corpus_dir = tmp_path / "corpus"
        assert main(["ingest", "--anomaly", str(source), "--corpus", str(corpus_dir)]) == 0
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["exclusions"]["anomaly"] == []
        assert manifest["tables"]["anomaly"]["rows"] == 2

    def test_bad_null_threshold(self, tmp_path):
        assert main(["ingest", "--anomaly", str(FIXTURES / "anomaly_sample.csv"),
                     "--null-threshold", "1.5"]) == 1

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_unwritable_corpus_directory(self, tmp_path, capsys, target):
        # a regular file where a directory must go; mode bits would not stop root
        (tmp_path / "file").write_text("not a directory\n")
        corpus_dir = tmp_path / target
        assert main(["ingest", "--anomaly", str(FIXTURES / "anomaly_sample.csv"),
                     "--corpus", str(corpus_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"disclim: cannot write corpus to {corpus_dir}: ")
        assert len(captured.err.splitlines()) == 1
        assert (tmp_path / "file").read_text() == "not a directory\n"


class TestChart:
    def test_dualaxis_spans_shared_years(self, tmp_path):
        code = main([
            "chart", "--kind", "dualaxis",
            "--left", "all-disasters/occurrence", "--right", "anomaly",
            "--out", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "dualaxis.chart").read_text())
        assert doc["axes"]["left"] == "All natural disasters"
        assert doc["axes"]["right"] == "Temperature Anomaly"
        years = doc["payload"]["years"]
        assert (years[0], years[-1], len(years)) == (1900, 2015, 116)

    def test_dualaxis_needs_both_sides(self, tmp_path, capsys):
        assert main(["chart", "--kind", "dualaxis", "--left", "anomaly",
                     "--out", str(tmp_path)]) == 1
        assert "--left and --right" in capsys.readouterr().err

    def test_disjoint_years_is_analysis_error(self, tmp_path, capsys):
        import disclim

        tables = [
            disclim.parse_delimited(
                "ENTITY,YEAR,OCCURRENCES\nAll natural disasters,2001,5\nFlood,2001,5\n"
            ),
            disclim.parse_delimited("YEAR,TEMPERATURE_ANOMALY\n1990,0.2\n"),
        ]
        save_corpus(disclim.build_corpus(tables), tmp_path / "c")
        code = main([
            "chart", "--kind", "dualaxis",
            "--left", "all-disasters/count", "--right", "anomaly",
            "--corpus", str(tmp_path / "c"), "--out", str(tmp_path),
        ])
        assert code == 3
        assert "common years" in capsys.readouterr().err

    def test_timeseries_defaults_to_anomaly(self, tmp_path):
        assert main(["chart", "--kind", "timeseries", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "timeseries.chart").read_text())
        labels = [s["label"] for s in doc["payload"]["series"]]
        assert labels == ["Temperature Anomaly"]

    def test_timeseries_repeatable_series_flag(self, tmp_path):
        code = main([
            "chart", "--kind", "timeseries",
            "--series", "Flood/occurrence", "--series", "Earthquake/occurrence",
            "--out", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "timeseries.chart").read_text())
        labels = [s["label"] for s in doc["payload"]["series"]]
        assert labels == ["Flood", "Earthquake"]

    def test_bad_series_selector(self, tmp_path, capsys):
        assert main(["chart", "--kind", "timeseries", "--series", "Flood",
                     "--out", str(tmp_path)]) == 1
        assert "selector" in capsys.readouterr().err
        assert main(["chart", "--kind", "timeseries", "--series", "Nowhere/count",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "disclim: unknown entity or disaster type 'Nowhere'\n"
        )

    def test_stackedarea(self, tmp_path):
        assert main(["chart", "--kind", "stackedarea", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "stackedarea.chart").read_text())
        assert len(doc["payload"]["labels"]) == 8

    def test_sunburst(self, tmp_path):
        assert main(["chart", "--kind", "sunburst", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "sunburst.chart").read_text())
        assert doc["payload"]["label"] == "All natural disasters"
        assert len(doc["payload"]["children"]) == 8

    def test_choropleth_codes(self, tmp_path):
        assert main(["chart", "--kind", "choropleth", "--year", "2016",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "choropleth.chart").read_text())
        values = doc["payload"]["values"]
        assert len(values) > 100
        assert all(len(code) == 3 and code.isupper() for code in values)

    def test_choropleth_empty_year(self, tmp_path, capsys):
        assert main(["chart", "--kind", "choropleth", "--year", "1881",
                     "--out", str(tmp_path)]) == 2
        assert "1881" in capsys.readouterr().err
        assert main(["chart", "--kind", "choropleth", "--year", "0",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "disclim: no 'deaths' values for year 0\n"

    @pytest.mark.parametrize("rows, expected", [
        # a region's own code keys the map, also for a name the ISO table lacks
        ("India,IND,2001,5\nIndia,IND,2002,2\nAtlantis,ATL,2001,1\nWorld,,2001,9\n",
         (0, {"ATL": 1.0, "IND": 7.0})),
        ("India,IND,2001,5\nLemuria,,2001,1\nMu,,2001,2\n",
         (2, "disclim: entities without ISO codes: Lemuria, Mu\n")),
        ("India,IND,2001,5\nBharat,IND,2001,1\n",
         (2, "disclim: two entities map to IND\n")),
        # a code cell that is not alpha-3 is no code
        ("Kosovo,OWID_KOS,2001,2\nIndia,IND,2001,5\n",
         (2, "disclim: entities without ISO codes: Kosovo\n")),
    ])
    def test_choropleth_keys_by_record_code(self, tmp_path, capsys, rows, expected):
        source = tmp_path / "region.csv"
        source.write_text("ENTITY,CODE,YEAR,DEATHS\n" + rows)
        corpus_dir = tmp_path / "corpus"
        assert main(["ingest", "--region", str(source), "--corpus", str(corpus_dir)]) == 0
        capsys.readouterr()
        code = main(["chart", "--kind", "choropleth", "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / "out")])
        if expected[0] == 0:
            assert code == 0
            doc = json.loads((tmp_path / "out" / "choropleth.chart").read_text())
            assert doc["payload"]["values"] == expected[1]
        else:
            assert (code, capsys.readouterr().err) == expected

    def test_blank_region_selector_matches_nothing(self, tmp_path, capsys):
        # regions without a code must not all answer to the empty name
        source = tmp_path / "region.csv"
        source.write_text("ENTITY,CODE,YEAR,DEATHS\n"
                          "India,IND,2001,5\nLemuria,,2001,1\nMu,,2002,2\nWorld,,2001,9\n")
        corpus_dir = tmp_path / "corpus"
        assert main(["ingest", "--region", str(source), "--corpus", str(corpus_dir)]) == 0
        capsys.readouterr()
        code = main(["chart", "--kind", "timeseries", "--series", "/deaths",
                     "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (
            2, "disclim: unknown entity or disaster type ''\n"
        )
        assert not (tmp_path / "out").exists()
        assert main(["chart", "--kind", "timeseries", "--series", "mu/deaths",
                     "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "timeseries.chart").read_text())
        assert doc["payload"]["series"] == [{"label": "Mu", "values": [2.0]}]

    def test_map_of_a_corpus_without_regions(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        save_corpus(load_bundled_corpus([SchemaKind.DISASTER_TYPE, SchemaKind.ANOMALY]),
                    corpus_dir)
        for argv in (["chart", "--kind", "choropleth"], ["report"]):
            assert main([*argv, "--corpus", str(corpus_dir), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == "disclim: corpus has no region records\n"

    def test_heatmap_kind(self, tmp_path):
        assert main(["chart", "--kind", "heatmap", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "heatmap.chart").read_text())
        assert doc["payload"]["method"] == "pearson"

    def test_unknown_kind(self, tmp_path, capsys):
        assert main(["chart", "--kind", "scatter", "--out", str(tmp_path)]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flag, value", [
        ("sunburst", "--measure", "deaths"),
        ("timeseries", "--left", "anomaly"),
        ("dualaxis", "--series", "anomaly"),
        ("stackedarea", "--year", "2000"),
        ("choropleth", "--method", "spearman"),
        ("heatmap", "--right", "anomaly"),
        ("heatmap", "--measure", "deaths"),
        ("sunburst", "--against", "damage"),
    ])
    def test_flag_the_kind_does_not_read(self, tmp_path, capsys, kind, flag, value):
        assert main(["chart", "--kind", kind, flag, value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"disclim: {flag} does not apply to --kind {kind}\n"
        assert not (tmp_path / f"{kind}.chart").exists()

    def test_config_keys_are_not_flags(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "spearman", "against": "damage"}))
        assert main(["chart", "--kind", "sunburst", "--config", str(config),
                     "--out", str(tmp_path)]) == 0


class TestReport:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["significance_threshold"] == 0.8
        assert len(summary["matrices"]) == 8
        assert summary["flood_share_of_events"] == pytest.approx(0.43, abs=0.03)
        for name in summary["artifacts"]:
            assert (tmp_path / name).exists()
        # the pearson occurrence matrix flags the anomaly pairing
        significant = summary["matrices"]["correlation_pearson_occurrence"]["significant"]
        assert ["Temperature Anomaly", "All natural disasters", "0.865158"] in significant
        out = capsys.readouterr().out
        assert out.startswith("report:")
        assert (tmp_path / "summary.txt").read_text() == out

    def test_each_measure_table_is_built_once(self, tmp_path, monkeypatch, capsys):
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("default_series", "build_series", "anomaly_series"):
            counted(Corpus, name)
        counted(corpus_module, "align_union")
        counted(cli, "align_union")
        assert main(["report", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        # one anomaly and nine type series per --against measure, aligned once
        assert calls == {"default_series": 2, "build_series": 18, "anomaly_series": 2,
                         "align_union": 2}

    def test_a_failed_report_writes_nothing(self, tmp_path, capsys):
        # the choropleth fails after every matrix is built; none may be written
        corpus_dir = tmp_path / "corpus"
        save_corpus(load_bundled_corpus([SchemaKind.DISASTER_TYPE, SchemaKind.ANOMALY]),
                    corpus_dir)
        out = tmp_path / "out"
        assert main(["report", "--corpus", str(corpus_dir), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "disclim: corpus has no region records\n"
        assert not out.exists()


class TestConfig:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "from_config"),
                                   "against": "damage"}))
        assert main(["corr", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config" / "correlation_pearson_damage.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"against": "damage"}))
        assert main(["corr", "--config", str(cfg), "--against", "occurrence",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "correlation_pearson_occurrence.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"colour": "red"}))
        assert main(["corr", "--config", str(cfg)]) == 1
        assert "colour" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert main(["corr", "--config", str(cfg)]) == 1

    def test_config_invalid_json(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{nope")
        assert main(["corr", "--config", str(cfg)]) == 1

    def test_config_missing(self, tmp_path):
        assert main(["corr", "--config", str(tmp_path / "none.json")]) == 1

    def test_bad_significance(self, tmp_path):
        assert main(["corr", "--significance", "0", "--out", str(tmp_path)]) == 1
        assert main(["corr", "--significance", "1.5", "--out", str(tmp_path)]) == 1

    def test_config_values_validated_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "cosine"}))
        assert main(["corr", "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"against": "deaths"}))
        assert main(["corr", "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"significance": "high"}))
        assert main(["corr", "--config", str(cfg)]) == 1
        capsys.readouterr()
        # "false" is a non-empty string, so unchecked it would turn tab parsing on
        cfg.write_text(json.dumps({"tab": "false"}))
        assert main(["ingest", "--types", "types.csv", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "disclim: tab must be true or false, not 'false'\n"
        # a list is unhashable, so unchecked it would escape as a TypeError
        cfg.write_text(json.dumps({"against": ["x"]}))
        assert main(["corr", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "disclim: against must be one of damage, occurrence, not ['x']\n"
        )


class TestParser:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ingest", "--anomaly", str(FIXTURES / "anomaly_sample.csv"), "--out", "x"],
        ["ingest", "--anomaly", str(FIXTURES / "anomaly_sample.csv"), "--significance", "0.5"],
        ["chart", "--kind", "sunburst", "--significance", "0.5"],
    ])
    def test_a_flag_the_command_does_not_read(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"disclim: unrecognized arguments: {' '.join(argv[-2:])}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestBundledTables:
    """On the bundled corpus a command builds the region table only if it reads it."""

    @pytest.mark.parametrize("argv, reads", [
        (["corr", "--method", "kendall"], False),
        (["report"], True),
        (["chart", "--kind", "heatmap"], False),
        (["chart", "--kind", "stackedarea"], False),
        (["chart", "--kind", "sunburst"], False),
        (["chart", "--kind", "choropleth"], True),
        (["chart", "--kind", "timeseries"], False),
        (["chart", "--kind", "timeseries", "--series", " Anomaly "], False),
        (["chart", "--kind", "timeseries", "--series", "Flood/occurrence",
          "--series", "all-disasters/damage"], False),
        (["chart", "--kind", "timeseries", "--series", "Flood/count",
          "--series", "DEU/deaths"], True),
        (["chart", "--kind", "dualaxis", "--left", "all-disasters/count",
          "--right", "anomaly"], False),
        (["chart", "--kind", "dualaxis", "--left", "anomaly",
          "--right", "Germany/deaths"], True),
        (["chart", "--kind", "dualaxis", "--left", "anomaly"], False),
    ])
    def test_which_commands_read_regions(self, argv, reads):
        args = build_parser().parse_args(argv)
        kind = charts.ChartKind(args.kind) if args.command == "chart" else None
        assert _reads_regions(args, kind) is reads

    def test_malformed_selector_is_usage_error_before_any_table_is_built(self):
        args = build_parser().parse_args(["chart", "--kind", "timeseries", "--series", "Flood"])
        with pytest.raises(UsageError, match="series selector 'Flood'"):
            _reads_regions(args, charts.ChartKind.TIME_SERIES)

    @pytest.mark.parametrize("against", ["occurrence", "damage"])
    @pytest.mark.parametrize("method", stats.METHODS)
    def test_corr_and_heatmap_match_the_full_corpus(self, bundled, tmp_path, capsys,
                                                    method, against):
        matrix = _matrix_for(bundled, method, against)
        text = matrix.to_delimited()
        flags = ["--method", method, "--against", against, "--out", str(tmp_path)]
        assert main(["corr", *flags]) == 0
        out = capsys.readouterr().out
        assert out == text + "".join(
            f"significant: {a} ~ {b}: {r:.6f}\n" for a, b, r in matrix.significant_pairs()
        )
        stem = tmp_path / f"correlation_{method}_{against}"
        assert stem.with_suffix(".csv").read_bytes() == text.encode("utf-8")
        assert stem.with_suffix(".svg").read_bytes() == charts.render_heatmap_svg(matrix)
        assert main(["chart", "--kind", "heatmap", *flags]) == 0
        assert (tmp_path / "heatmap.chart").read_bytes() == (
            charts.emit_chart("heatmap", matrix).to_bytes()
        )

    def test_corr_never_loads_the_iso_table(self, tmp_path):
        # in a fresh process, so that no earlier test has filled the cache
        script = (
            "import sys\n"
            "from disclim import cli, isocodes\n"
            "def codes_loaded(argv):\n"
            "    assert cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
            "    return isocodes.load_default_codes.cache_info().currsize\n"
            "print('codes', codes_loaded(['corr']))\n"
            "print('codes', codes_loaded(['chart', '--kind', 'timeseries', '--series', 'DEU/deaths']))\n"
        )
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        codes = [line for line in result.stdout.splitlines() if line.startswith("codes ")]
        assert codes == ["codes 0", "codes 1"]

    def test_region_selector_still_resolves(self, tmp_path):
        assert main(["chart", "--kind", "timeseries", "--series", "Germany/deaths",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "timeseries.chart").read_text())
        assert [s["label"] for s in doc["payload"]["series"]] == ["Germany"]
        assert main(["chart", "--kind", "dualaxis", "--left", "deu/deaths",
                     "--right", "anomaly", "--out", str(tmp_path)]) == 0

    def test_default_builds_all_three_tables(self, bundled):
        root = resources.files("disclim.data").joinpath("bundled")
        names = ("disasters_by_region.csv", "disasters_by_type.csv",
                 "temperature_anomaly_monthly.csv")
        tables = [parse_delimited(root.joinpath(n).read_bytes(), source_path=n) for n in names]
        assert load_bundled_corpus() == build_corpus(tables) == bundled

    def test_kinds_left_out_stay_empty(self, bundled):
        corpus = load_bundled_corpus([SchemaKind.DISASTER_TYPE, SchemaKind.ANOMALY])
        assert corpus.region_records == ()
        assert corpus.type_records == bundled.type_records
        assert corpus.anomaly_records == bundled.anomaly_records
        assert set(corpus.sources) == set(corpus.exclusions) == {"disaster-type", "anomaly"}


def test_module_invocation_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "disclim", "corr", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("Temperature Anomaly,1.000000")
