"""The benchmark's tracer still fits the package it traces.

``perfbench/tracing.py`` wraps disclim's functions by module and attribute
and reads their arguments and results: ``coerce_records(table, kind, ...)``
positionally, the directory ``save_corpus`` returns, ``corpus.hashlib``
only as ``hashlib.sha256(payload)``, a matrix's ``method``, ``size``,
``defined_cells()`` and ``values``, and estimators called as
``fn(x, y, ...)``.  In the benchmark an exception inside a traced step, or a
traced command that exits non-zero, counts as a failed operation, so these
call shapes are part of the program's contract.  This runs the traced paths
in process and only reads ``perfbench/``.
"""

import subprocess
import sys
import types
from pathlib import Path

import pytest

import disclim
from disclim.cli import CORPUS_ENV, main

from conftest import fixture_bytes, fixture_table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BUNDLED = Path(disclim.__file__).parent / "data" / "bundled"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.delenv(CORPUS_ENV, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _patchable() -> dict:
    """Every function, class or module bound in disclim's modules and traced classes."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "disclim"]
    owners += [disclim.Corpus, disclim.ChartDocument, disclim.IsoCodeTable,
               disclim.DisasterRecord, disclim.TypeRecord, disclim.AnomalyRecord]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()
            if callable(value) or isinstance(value, types.ModuleType)}


def test_traced_steps_run_and_every_name_is_restored(tracing, tmp_path):
    corpus_dir = disclim.save_corpus(disclim.load_bundled_corpus(), tmp_path / "bundled")
    before = _patchable()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.patched and disclim.cli.main is not main

        def traced(run):
            tracer.reset()
            result = run()
            return result, tracing.layer_metrics(tracer.spans, tracer.counts)

        code, corr = traced(lambda: disclim.cli.main(["corr", "--out", str(tmp_path / "corr")]))
        assert code == 0
        code, report = traced(lambda: disclim.cli.main(
            ["report", "--corpus", str(corpus_dir), "--out", str(tmp_path / "report")]))
        assert code == 0

        # through module attributes, which is where the tracer patches
        def round_trip():
            tables = [disclim.ingest.parse_delimited(fixture_bytes(name), source_path=name)
                      for name in ("region_sample.csv", "type_sample.csv", "anomaly_sample.csv")]
            corpus = disclim.corpus.build_corpus(tables)
            directory = disclim.corpus.save_corpus(corpus, tmp_path / "fixture")
            return corpus, directory, disclim.corpus.load_corpus(directory)

        (built, directory, loaded), ingest = traced(round_trip)
    finally:
        tracing.uninstall(tracer)

    after = _patchable()
    changed = [key for key, value in before.items() if after.get(key, before) is not value]
    assert changed == [] and set(after) <= set(before)

    # corr builds the type and anomaly tables only, and no region record
    expected_rows = sum(
        len(disclim.parse_delimited((BUNDLED / name).read_bytes()).rows)
        for name in ("disasters_by_type.csv", "temperature_anomaly_monthly.csv")
    )
    assert corr["ingest.rows"] == expected_rows
    assert corr["isocodes.lookups"] == 0
    assert corr["stats.estimator_calls"] > 0
    assert report["corpus.digest_checks"] == 3
    assert report["charts.bytes"] > 0
    # stored region records carry their codes; the choropleth looks none up
    assert report["isocodes.lookups"] == 0

    assert loaded == built
    assert ingest["corpus.digest_checks"] == 3
    assert ingest["records.constructed_per_row"] == 1.0
    region = fixture_table("region_sample.csv")
    entity = region.column_index("ENTITY")
    assert ingest["isocodes.lookups"] == len({cells[entity].strip() for cells in region.rows})
    assert ingest["corpus.bytes_written"] == sum(
        p.stat().st_size for p in directory.iterdir() if p.is_file()
    )


def test_spanned_modules_are_loaded_by_the_cli():
    # the tracer patches sys.modules[...] entries right after importing
    # disclim.cli, in a fresh process, as the benchmark's CLI shim does
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import disclim.cli\n"
        "import tracing\n"
        "print([m for _, m, _ in tracing.SPANNED if m not in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
