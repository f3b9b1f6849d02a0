"""Corpus assembly: typed records -> annual series -> joined year tables.

A corpus bundles the three coerced sources (per-region disasters, per-type
disasters, temperature anomaly), applies the null-exclusion policy to their
measure columns, and offers year-keyed views.  Persistence writes one csv
table per source plus a manifest with content digests; a reload verifies
the digests and validates every cell.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .errors import (
    DataError,
    DigestMismatchError,
    EmptyIntersectionError,
    ManifestMissingError,
    UnknownMeasureError,
    UnknownSelectorError,
)
from .ingest import RawTable, SchemaKind, coerce_records, detect_schema, parse_delimited
from .records import (
    MEASURES,
    AnomalyRecord,
    DisasterRecord,
    DisasterType,
    TypeRecord,
    parse_disaster_type,
)

ANOMALY_LABEL = "Temperature Anomaly"
DEFAULT_NULL_THRESHOLD = 0.30
BY_TYPE = attrgetter("disaster_type")  # the annual_totals key of a TypeRecord


@dataclass(frozen=True)
class AnnualSeries:
    """A labeled year-indexed series with strictly increasing years."""

    label: str
    years: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise DataError(f"{self.label}: {len(self.years)} years, {len(self.values)} values")
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise DataError(f"{self.label}: years not strictly increasing")
        for v in self.values:
            if v != v or v in (float("inf"), float("-inf")):
                raise DataError(f"{self.label}: non-finite value")

    def get(self, year: int) -> float | None:
        # series are short (decades), linear scan is fine
        for y, v in zip(self.years, self.values):
            if y == year:
                return v
        return None

    def span(self) -> tuple[int, int]:
        if not self.years:
            raise DataError(f"{self.label}: empty series has no span")
        return self.years[0], self.years[-1]


def series_from_mapping(label: str, by_year: dict[int, float]) -> AnnualSeries:
    years = tuple(sorted(by_year))
    return AnnualSeries(label=label, years=years, values=tuple(by_year[y] for y in years))


@dataclass(frozen=True)
class JoinedTable:
    """Several series aligned on a shared year axis; None marks a gap.

    The axis, labels and columns are stored as tuples, so a table cannot
    change after it is built.  ``_derived`` is private to ``stats``, which
    keeps there the work every correlation matrix of the table shares; it
    takes no part in equality, hashing or ``repr``.
    """

    years: tuple[int, ...]
    labels: tuple[str, ...]
    columns: tuple[tuple[float | None, ...], ...]
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "years", tuple(self.years))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "columns", tuple(map(tuple, self.columns)))
        if len(self.labels) != len(self.columns):
            raise DataError("labels/columns length mismatch")
        for col in self.columns:
            if len(col) != len(self.years):
                raise DataError("column length does not match year axis")

    def column(self, label: str) -> tuple[float | None, ...]:
        try:
            return self.columns[self.labels.index(label)]
        except ValueError:
            raise UnknownSelectorError(f"no series labelled {label!r}") from None


def integrate_on_year(seriess: Sequence[AnnualSeries]) -> JoinedTable:
    """Inner-join series on year; every cell in the result is defined."""
    if not seriess:
        raise DataError("nothing to join")
    common = set(seriess[0].years)
    for s in seriess[1:]:
        common &= set(s.years)
    if not common:
        labels = ", ".join(s.label for s in seriess)
        raise EmptyIntersectionError(f"no common years among: {labels}")
    years = tuple(sorted(common))
    columns = tuple(tuple(s.get(y) for y in years) for s in seriess)
    return JoinedTable(years=years, labels=tuple(s.label for s in seriess), columns=columns)


def align_union(seriess: Sequence[AnnualSeries]) -> JoinedTable:
    """Outer-join series on year, leaving None where a series has no value."""
    if not seriess:
        raise DataError("nothing to align")
    all_years: set[int] = set()
    for s in seriess:
        all_years |= set(s.years)
    years = tuple(sorted(all_years))
    columns = []
    for s in seriess:
        lookup = dict(zip(s.years, s.values))
        columns.append(tuple(lookup.get(y) for y in years))
    return JoinedTable(years=years, labels=tuple(s.label for s in seriess), columns=tuple(columns))


def annual_totals(records: Iterable, measure: str, key: Callable) -> dict:
    """``{key(rec): {year: total of measure}}`` over disaster records.

    The one summation rule behind every series, share and map input: each
    total adds its records' values in record order, a null is skipped, and
    a key or year with no defined value is absent rather than zero.
    """
    totals: dict = {}
    for rec in records:
        value = rec.measures.get(measure)
        if value is not None:
            group = key(rec)
            by_year = totals.get(group)
            if by_year is None:
                by_year = totals[group] = {}
            by_year[rec.year] = by_year.get(rec.year, 0.0) + value
    return totals


def annualize_anomaly(records: Iterable[AnomalyRecord]) -> AnnualSeries:
    """Collapse (possibly monthly) anomaly records to annual means."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for rec in records:
        sums[rec.year] = sums.get(rec.year, 0.0) + rec.anomaly
        counts[rec.year] = counts.get(rec.year, 0) + 1
    return series_from_mapping(ANOMALY_LABEL, {y: sums[y] / counts[y] for y in sums})


@dataclass(eq=True)
class Corpus:
    region_records: tuple[DisasterRecord, ...] = ()
    type_records: tuple[TypeRecord, ...] = ()
    anomaly_records: tuple[AnomalyRecord, ...] = ()
    exclusions: dict[str, list[str]] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)
    null_reports: dict[str, NullReport] = field(default_factory=dict, compare=False)

    # (region_records tuple, its index); a plain class attribute rather than
    # a field, so it takes no part in equality or repr
    _region_index = (None, {})

    def _regions_matching(self, key: str) -> list[DisasterRecord]:
        """Region records whose casefolded entity or ISO code is *key*, in order.

        A record without a code is indexed under its entity alone.  The
        index is built once per ``region_records`` tuple and rebuilt when a
        different tuple is assigned.
        """
        records, index = self._region_index
        if records is not self.region_records:
            records, index = self.region_records, {}
            for rec in records:
                entity = rec.entity.casefold()
                index.setdefault(entity, []).append(rec)
                if rec.iso and rec.iso.casefold() != entity:
                    index.setdefault(rec.iso.casefold(), []).append(rec)
            self._region_index = (records, index)
        return index.get(key, [])

    def build_series(self, selector, measure: str) -> AnnualSeries:
        """Annual totals of *measure* for a disaster type or region entity.

        A region selector matches an entity name or ISO code, ignoring case
        and surrounding space, and is looked up in an index built once per
        record set; the label is the last matched record's entity.  Null
        observations are skipped; a year with no defined observation is
        absent from the result rather than zero.
        """
        if isinstance(selector, str):
            parsed = parse_disaster_type(selector)
            selector = parsed if parsed is not None else selector
        if isinstance(selector, DisasterType):
            label = selector.display
            matched = [rec for rec in self.type_records if rec.disaster_type is selector]
        else:
            label = selector.strip()
            matched = self._regions_matching(label.casefold())
            if not matched:
                raise UnknownSelectorError(f"unknown entity or disaster type {label!r}")
            label = matched[-1].entity
        # the matched records share one class, so keyed by it they make one group
        by_year = next(iter(annual_totals(matched, measure, type).values()), {})
        if not by_year:
            known = self._known_measures(selector)
            raise UnknownMeasureError(
                f"no defined {measure!r} observations for {label!r}"
                + (f"; available measures: {', '.join(known)}" if known else "")
            )
        return series_from_mapping(label, by_year)

    def _known_measures(self, selector) -> list[str]:
        records = self.type_records if isinstance(selector, DisasterType) else self.region_records
        seen = {m for rec in records for m, v in rec.measures.items() if v is not None}
        return _in_presentation_order(seen)

    def anomaly_series(self) -> AnnualSeries:
        if not self.anomaly_records:
            raise DataError("corpus has no anomaly records")
        return annualize_anomaly(self.anomaly_records)

    def default_series(self, measure: str) -> list[AnnualSeries]:
        """Anomaly, the all-disasters aggregate, then each type by name."""
        ordered = [DisasterType.ALL_NATURAL_DISASTERS] + sorted(
            (t for t in DisasterType if not t.is_aggregate), key=lambda t: t.display
        )
        return [self.anomaly_series()] + [self.build_series(t, measure) for t in ordered]

    def type_names(self) -> list[str]:
        present = {rec.disaster_type for rec in self.type_records}
        return [t.display for t in sorted(present, key=lambda t: (t.is_aggregate, t.display))]


def build_corpus(
    tables: Iterable[RawTable],
    *,
    null_threshold: float = DEFAULT_NULL_THRESHOLD,
) -> Corpus:
    """Detect, coerce, and merge source tables into a Corpus.

    Region records arrive ISO-normalised from ``coerce_records``.  Measure
    columns whose null fraction meets *null_threshold* are dropped and the
    exclusion recorded per source kind; key columns and the anomaly
    column are never excluded.
    """
    corpus = Corpus()
    for table in tables:
        kind = detect_schema(table)
        if kind.value in corpus.sources:
            raise DataError(f"duplicate {kind.value} table: {table.source_path}")
        result = coerce_records(table, kind)
        excluded = [
            measure for column, measure in result.measure_columns.items()
            if result.null_report.fraction(column) >= null_threshold
        ]
        # the measure dicts are fresh from coercion and held by nothing else
        for rec in result.records:
            for measure in excluded:
                rec.measures.pop(measure, None)
        corpus.sources[kind.value] = table.source_path
        corpus.exclusions[kind.value] = excluded
        corpus.null_reports[kind.value] = result.null_report
        setattr(corpus, _STORED[kind].field, tuple(result.records))
    return corpus


def check_aggregate_consistency(corpus: Corpus, measure: str, tol: float = 1e-9) -> list[str]:
    """Compare the all-disasters series against the per-type sum.

    Types absent in a year contribute zero.  Returns human-readable
    violation descriptions; an empty list means the identity holds.
    """
    totals = annual_totals(corpus.type_records, measure, BY_TYPE)
    aggregate = totals.pop(DisasterType.ALL_NATURAL_DISASTERS, {})
    parts = [totals[t] for t in DisasterType if t in totals]
    problems = []
    for year, value in sorted(aggregate.items()):
        summed = sum(p.get(year, 0.0) for p in parts)
        if abs(summed - value) > tol:
            problems.append(
                f"{measure} {year}: aggregate {value!r} != sum of types {summed!r}"
            )
    return problems


# -- persistence -------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_FLAGS = {"true": True, "false": False}
_NUMBER_KEYS = frozenset({"year", "month", "anomaly"})  # measure columns are numbers too
_NOT_WRITTEN = re.compile(r"[_\s]")


def _in_presentation_order(measures) -> list[str]:
    """Measure names in ``MEASURES`` order, any others after them by name."""
    return sorted(measures, key=lambda m: (MEASURES.index(m) if m in MEASURES else 99, m))


def _flag(cell: str) -> bool:
    if cell not in _FLAGS:
        raise ValueError(f"aggregate {cell!r} is neither 'true' nor 'false'")
    return _FLAGS[cell]


def _disaster_type(cell: str) -> DisasterType:
    dtype = parse_disaster_type(cell)
    if dtype is None:
        raise ValueError(f"unknown disaster type {cell!r}")
    return dtype


@dataclass(frozen=True)
class _Stored:
    """The stored layout of one record kind: key columns, then any measures."""

    file: str
    field: str  # the Corpus attribute holding the records
    keys: tuple[str, ...]
    measured: bool  # whether measure columns follow the keys
    cells: Callable  # record -> key cells, raw values for the csv writer
    record: Callable  # (row cells, measure map) -> record; ValueError on a bad cell


_STORED = {
    SchemaKind.REGION: _Stored(
        "region.table", "region_records", ("entity", "iso", "year", "aggregate"), True,
        lambda r: [r.entity, r.iso, r.year, "true" if r.aggregate else "false"],
        lambda c, m: DisasterRecord(entity=c[0], iso=c[1] or None, year=int(c[2]),
                                    measures=m, aggregate=_flag(c[3])),
    ),
    SchemaKind.DISASTER_TYPE: _Stored(
        "type.table", "type_records", ("disaster_type", "year"), True,
        lambda r: [r.disaster_type.display, r.year],
        lambda c, m: TypeRecord(disaster_type=_disaster_type(c[0]), year=int(c[1]), measures=m),
    ),
    SchemaKind.ANOMALY: _Stored(
        "anomaly.table", "anomaly_records", ("year", "month", "anomaly"), False,
        lambda r: [r.year, r.month, r.anomaly],
        lambda c, m: AnomalyRecord(year=int(c[0]), anomaly=float(c[2]),
                                   month=int(c[1]) if c[1] else None),
    ),
}


def save_corpus(corpus: Corpus, directory: str | Path) -> Path:
    """Write one table per non-empty record kind plus a digest manifest.

    Each table is csv: the key columns, then (for the disaster tables) the
    measure columns in presentation order.  A null is an empty cell, a
    float its ``repr``, and a cell holding a comma, quote or newline is
    quoted.  Returns the directory; a directory that cannot be made or
    written raises DataError.
    """
    directory = Path(directory)
    manifest: dict = {
        "tables": {},
        "exclusions": corpus.exclusions,
        "sources": corpus.sources,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for kind, stored in _STORED.items():
            records = getattr(corpus, stored.field)
            if not records:
                continue
            present = {m for rec in records for m in rec.measures} if stored.measured else ()
            measures = _in_presentation_order(present)
            # a generator, so that each row is freed once written and a save
            # triggers no garbage collection
            rows = (stored.cells(rec) + [rec.measures.get(m) for m in measures] for rec in records)
            payload = RawTable(stored.keys + tuple(measures), rows).serialize().encode("utf-8")
            (directory / stored.file).write_bytes(payload)
            manifest["tables"][kind.value] = {
                "file": stored.file,
                "rows": len(records),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        (directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
        )
    except OSError as exc:
        raise DataError(f"cannot write corpus to {directory}: {exc}") from None
    return directory


def _read_table(stored: _Stored, path: Path, payload: bytes) -> tuple:
    """The records of one stored table; any fault is a DataError naming *path*."""
    table = parse_delimited(payload, source_path=str(path))
    width = len(stored.keys)
    if table.header[:width] != stored.keys or (len(table.header) > width and not stored.measured):
        expected = ",".join(stored.keys) + (",<measures>" if stored.measured else "")
        raise DataError(f"{path}: expected columns {expected}, got {','.join(table.header)}")
    measures = table.header[width:]
    records = []
    try:
        for n, row in enumerate(table.rows, start=1):
            measure_map = {m: (float(c) if c else None) for m, c in zip(measures, row[width:])}
            records.append(stored.record(row, measure_map))
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: row {n}: {exc}") from None
    # int() and float() also take underscores and surrounding whitespace,
    # which the writer never writes; one scan per numeric column finds them
    for i, name in enumerate(table.header):
        if i < width and name not in _NUMBER_KEYS:
            continue
        column = [row[i] for row in table.rows]
        if _NOT_WRITTEN.search(",".join(column)):
            n, cell = next((n, c) for n, c in enumerate(column, start=1) if _NOT_WRITTEN.search(c))
            raise DataError(f"{path}: row {n}: malformed number {cell!r} in column {name!r}")
    return tuple(records)


def _read_manifest(path: Path) -> dict:
    """The manifest at *path*, its shape checked before any table is read."""
    if not path.exists():
        raise ManifestMissingError(f"{path}: manifest missing")
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest is not a JSON object")
    for key in ("tables", "exclusions", "sources"):
        if not isinstance(manifest.get(key, {}), dict):
            raise DataError(f"{path}: manifest {key!r} is not a JSON object")
    for kind, entry in manifest.get("tables", {}).items():
        if kind not in {k.value for k in _STORED}:
            raise DataError(f"{path}: unknown table kind {kind!r}")
        if not (isinstance(entry, dict) and all(
                isinstance(entry.get(key), str) for key in ("file", "sha256"))):
            raise DataError(f"{path}: table {kind!r} needs a 'file' and a 'sha256'")
        # the writer writes plain names only; anything else could leave the directory
        if entry["file"] in ("", ".", "..") or Path(entry["file"]).name != entry["file"]:
            raise DataError(f"{path}: table {kind!r} file {entry['file']!r} is not a plain name")
    return manifest


def load_corpus(directory: str | Path) -> Corpus:
    """Reload a saved corpus: it reproduces the saved records exactly or raises.

    Every listed table is checked against its digest, then its header and
    every cell are validated; a fault raises DataError naming the file and,
    for a bad cell, the row.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory / _MANIFEST_NAME)
    corpus = Corpus(
        exclusions=manifest.get("exclusions", {}),
        sources=manifest.get("sources", {}),
    )
    for kind, entry in manifest.get("tables", {}).items():
        path = directory / entry["file"]
        if not path.exists():
            raise ManifestMissingError(f"{path} listed in manifest but absent")
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise DataError(f"{path}: unreadable table: {exc}") from None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != entry["sha256"]:
            raise DigestMismatchError(f"{path}: expected {entry['sha256']}, got {digest}")
        stored = _STORED[SchemaKind(kind)]
        setattr(corpus, stored.field, _read_table(stored, path, payload))
    return corpus


_BUNDLED = {
    SchemaKind.REGION: "disasters_by_region.csv",
    SchemaKind.DISASTER_TYPE: "disasters_by_type.csv",
    SchemaKind.ANOMALY: "temperature_anomaly_monthly.csv",
}


def load_bundled_corpus(kinds: Iterable[SchemaKind] = tuple(SchemaKind)) -> Corpus:
    """Build the corpus from the data files shipped inside the package.

    Only the tables of *kinds* (by default all three) are read and built;
    the records of any other kind stay empty, and it has no entry in
    ``sources``, ``exclusions`` or ``null_reports``.  The region table is
    by far the largest, so a caller that never reads region records can
    leave ``SchemaKind.REGION`` out.
    """
    from importlib import resources

    wanted = frozenset(map(SchemaKind, kinds))
    root = resources.files("disclim.data").joinpath("bundled")
    return build_corpus([
        parse_delimited(root.joinpath(name).read_bytes(), source_path=name)
        for kind, name in _BUNDLED.items() if kind in wanted
    ])
