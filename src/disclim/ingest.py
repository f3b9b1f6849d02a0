"""Delimited-file ingestion: parsing, schema detection, typed coercion.

The three source layouts (disasters by region, disasters by type, and the
temperature-anomaly series) arrive as headered delimited text.  Parsing is
strict about shape, coercion is strict about numbers, and nulls are kept
explicit throughout.
"""

from __future__ import annotations

import csv
import enum
import io
import re
from dataclasses import dataclass, field

from .errors import (
    AmbiguousSchemaError,
    DataError,
    DuplicateHeaderError,
    EmptyInputError,
    ParseError,
    RaggedRowError,
    UnknownSchemaError,
    UnparseableNumberError,
    YearOutOfRangeError,
)
from .isocodes import NormalizedEntity, load_default_codes
from .records import (
    YEAR_MAX,
    YEAR_MIN,
    AnomalyRecord,
    DisasterRecord,
    NullReport,
    TypeRecord,
    parse_disaster_type,
)


@dataclass(frozen=True)
class Dialect:
    delimiter: str = ","


COMMA = Dialect(",")
TAB = Dialect("\t")

NULL_TOKENS = frozenset({"", "na", "null"})

# raw column name (upper-cased) -> canonical measure name
MEASURE_ALIASES = {
    "OCCURRENCES": "count",
    "OCCURRENCE": "count",
    "COUNT": "count",
    "DISASTER_COUNT": "count",
    "DEATHS": "deaths",
    "TOTAL_DEATHS": "deaths",
    "DEATH_RATE": "death_rate",
    "DEATH_RATE_PER_100K": "death_rate",
    "PERCENTAGE_SHARE_DEATHS": "percentage_share_deaths",
    "PERCENTAGE_SHARE_OF_DEATHS": "percentage_share_deaths",
    "INTERNALLY_DISPLACED_POPULATION": "internally_displaced",
    "INTERNALLY_DISPLACED": "internally_displaced",
    "AFFECTED": "affected",
    "TOTAL_AFFECTED": "affected",
    "HOMELESS": "homeless",
    "INJURED": "injured",
    "ECONOMIC_DAMAGE": "economic_damage",
    "TOTAL_DAMAGES": "economic_damage",
    "GDP_LOSS_SHARE": "gdp_loss_share",
    "NEWS_COVERAGE_SHARE": "news_coverage_share",
}

_YEAR_COLUMNS = ("YEAR", "DATE", "DT")
_YEAR_RE = re.compile(r"^(\d{4})(?:-(\d{1,2})(?:-(\d{1,2}))?)?$")


def canonical_measure(column: str) -> str:
    """Map a raw column name to its canonical measure name."""
    key = column.strip().upper()
    return MEASURE_ALIASES.get(key, key.lower())


@dataclass(frozen=True)
class RawTable:
    """A parsed delimited file: header, string cells, and provenance."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    source_path: str = "<memory>"

    def serialize(self, dialect: Dialect = COMMA) -> str:
        """Render back to delimited text; cell content round-trips exactly.

        Cells may also be raw values: ``None`` renders as an empty cell and
        a number as its ``repr``.
        """
        out = io.StringIO()
        # A single empty cell would otherwise serialize to a blank line,
        # which the parser treats as no row at all.
        quoting = csv.QUOTE_ALL if len(self.header) == 1 else csv.QUOTE_MINIMAL
        writer = csv.writer(
            out, delimiter=dialect.delimiter, lineterminator="\n", quoting=quoting
        )
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return out.getvalue()

    def column_index(self, name: str) -> int:
        wanted = name.strip().upper()
        for i, col in enumerate(self.header):
            if col.strip().upper() == wanted:
                return i
        raise KeyError(name)


def parse_delimited(
    data: bytes | str,
    dialect: Dialect = COMMA,
    source_path: str = "<memory>",
) -> RawTable:
    """Parse headered delimited text into a RawTable.

    The first line is the header; trailing blank lines are ignored; every
    data row must have exactly as many cells as the header, so a blank line
    followed by a row is a ragged row of no cells.  Text the csv reader
    cannot split raises ParseError naming the line.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source_path}: input is not UTF-8: {exc}") from exc
    else:
        text = data

    reader = csv.reader(io.StringIO(text), delimiter=dialect.delimiter)
    try:
        # a blank first line makes an empty header, which every row after it
        # is ragged against; blank lines alone are no content at all
        header = tuple(cell.strip() for cell in next(reader, ()))
        if any(not name for name in header):
            raise ParseError(f"{source_path}: header contains an empty column name")
        seen: set[str] = set()
        for name in header:
            if name in seen:
                raise DuplicateHeaderError(name, source_path)
            seen.add(name)

        width = len(header)
        rows: list[tuple[str, ...]] = []
        blank_line = 0  # the first blank line since the last row
        for cells in reader:
            if not cells:
                blank_line = blank_line or reader.line_num
            elif blank_line and width:
                raise RaggedRowError(blank_line, width, 0, source_path)
            elif len(cells) != width:
                raise RaggedRowError(reader.line_num, width, len(cells), source_path)
            else:
                rows.append(tuple(cells))
    except csv.Error as exc:
        raise ParseError(f"{source_path}: line {reader.line_num}: {exc}") from None
    if not width:
        raise EmptyInputError(f"{source_path}: no content")
    return RawTable(header=header, rows=tuple(rows), source_path=source_path)


class SchemaKind(enum.Enum):
    """Which of the three source layouts a table carries."""

    REGION = "region"
    DISASTER_TYPE = "disaster-type"
    ANOMALY = "anomaly"


# the key columns (upper-cased) of the two disaster layouts; every other
# column of those tables is a measure
_KEY_COLUMNS = {
    SchemaKind.REGION: frozenset({"ENTITY", "CODE", "YEAR"}),
    SchemaKind.DISASTER_TYPE: frozenset({"ENTITY", "YEAR"}),
}


def _upper_columns(table: RawTable) -> dict[str, str]:
    return {col.strip().upper(): col for col in table.header}


def _anomaly_columns(columns: dict[str, str]) -> list[str]:
    return [c for c in columns if "ANOMALY" in c]


def _match_schema(kind: SchemaKind, columns: dict[str, str]) -> frozenset[str] | None:
    """Return the set of (upper-cased) required columns if *kind* matches."""
    names = set(columns)
    if kind is SchemaKind.ANOMALY:
        year = next((c for c in _YEAR_COLUMNS if c in names), None)
        anomaly = _anomaly_columns(columns)
        return frozenset({year, anomaly[0]}) if year is not None and anomaly else None
    required = _KEY_COLUMNS[kind]
    return required if required <= names and names - required else None


def detect_schema(table: RawTable) -> SchemaKind:
    """Identify the unique schema whose required columns are all present.

    When one matching schema's requirements strictly contain another's
    (the region layout subsumes the type layout), the more specific one
    wins; genuinely incomparable multi-matches are ambiguous.
    """
    if not table.rows:
        raise DataError(f"{table.source_path}: table has no data rows")
    columns = _upper_columns(table)
    matches = {
        kind: req
        for kind in SchemaKind
        if (req := _match_schema(kind, columns)) is not None
    }
    keep = {
        kind
        for kind, req in matches.items()
        if not any(other != req and req < other for other in matches.values())
    }
    if not keep:
        raise UnknownSchemaError(
            f"{table.source_path}: columns {sorted(columns)} match no known layout"
        )
    if len(keep) > 1:
        names = ", ".join(sorted(k.value for k in keep))
        raise AmbiguousSchemaError(f"{table.source_path}: matches {names}")
    return keep.pop()


def parse_year_cell(cell: str) -> tuple[int, int | None]:
    """Parse '2008' or '2008-01-01' style cells to (year, optional month)."""
    m = _YEAR_RE.match(cell.strip())
    if m is None:
        raise ValueError(cell)
    year = int(m.group(1))
    month = int(m.group(2)) if m.group(2) else None
    return year, month


def _parse_number(cell: str, row: int, column: str) -> float | None:
    stripped = cell.strip()
    if stripped.lower() in NULL_TOKENS:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise UnparseableNumberError(cell, row, column) from None


@dataclass(frozen=True)
class RowError:
    """A hard per-row failure captured in collect mode."""

    row: int
    error: DataError

    def __str__(self) -> str:
        return f"row {self.row}: {self.error}"


@dataclass
class CoercionResult:
    kind: SchemaKind
    records: list = field(default_factory=list)
    null_report: NullReport = None  # type: ignore[assignment]
    errors: list[RowError] = field(default_factory=list)
    # raw measure column -> canonical measure; empty for anomaly tables
    measure_columns: dict[str, str] = field(default_factory=dict)


def coerce_records(
    table: RawTable, kind: SchemaKind, on_error: str = "raise"
) -> CoercionResult:
    """Turn string rows into typed records with an explicit null census.

    Region records come out ISO-normalised: each distinct entity name is
    looked up once in the bundled code table, and a recognised name takes
    its canonical spelling, its code (unless the row has one) and its
    aggregate flag; an unrecognised name passes through unchanged.  Every
    non-key column of a disaster table is a measure, listed in
    ``result.measure_columns``.

    ``on_error="raise"`` aborts on the first bad row; ``"collect"`` keeps
    going and files each failure as a RowError so that
    ``len(records) + len(errors) == len(table.rows)``.
    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', not {on_error!r}")
    columns = _upper_columns(table)
    null_counts = {col: 0 for col in table.header}
    result = CoercionResult(kind=kind)

    if kind is SchemaKind.ANOMALY:
        year_col = next(c for c in _YEAR_COLUMNS if c in columns)
        anomaly_col = _anomaly_columns(columns)[0]
        year_idx = table.column_index(columns[year_col])
        anomaly_idx = table.column_index(columns[anomaly_col])
        extractor = _coerce_anomaly_row(
            columns[year_col], columns[anomaly_col], year_idx, anomaly_idx
        )
    else:
        layout = _measure_layout(table, columns, skip=_KEY_COLUMNS[kind])
        result.measure_columns = {column: measure for column, _, measure in layout}
        make = _coerce_region_row if kind is SchemaKind.REGION else _coerce_type_row
        extractor = make(table, columns, layout)

    for i, cells in enumerate(table.rows, start=1):
        try:
            record = extractor(i, cells, null_counts)
        except DataError as exc:
            if on_error == "raise":
                raise
            result.errors.append(RowError(i, exc))
            continue
        if record is not None:
            result.records.append(record)

    result.null_report = NullReport(rows=len(table.rows), null_counts=null_counts)
    return result


def _require_year(cell: str, row: int, column: str) -> tuple[int, int | None]:
    try:
        year, month = parse_year_cell(cell)
    except ValueError:
        raise UnparseableNumberError(cell, row, column) from None
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise YearOutOfRangeError(year, row)
    return year, month


def _coerce_anomaly_row(year_col, anomaly_col, year_idx, anomaly_idx):
    def inner(row, cells, null_counts):
        year, month = _require_year(cells[year_idx], row, year_col)
        value = _parse_number(cells[anomaly_idx], row, anomaly_col)
        if value is None:
            null_counts[anomaly_col] += 1
            return None
        return AnomalyRecord(year=year, anomaly=value, month=month)

    return inner


def _measure_layout(table: RawTable, columns: dict[str, str], skip: frozenset[str]):
    """(column name, index, canonical measure) for each non-key column."""
    layout = []
    for upper, original in columns.items():
        if upper in skip:
            continue
        layout.append((original, table.column_index(original), canonical_measure(original)))
    layout.sort(key=lambda item: item[1])
    return layout


def _collect_measures(layout, row, cells, null_counts) -> dict[str, float | None]:
    measures: dict[str, float | None] = {}
    for column, idx, measure in layout:
        value = _parse_number(cells[idx], row, column)
        if value is None:
            null_counts[column] += 1
        measures[measure] = value
    return measures


def _coerce_region_row(table: RawTable, columns: dict[str, str], layout):
    entity_idx = table.column_index(columns["ENTITY"])
    code_idx = table.column_index(columns["CODE"])
    year_idx = table.column_index(columns["YEAR"])
    codes = load_default_codes()
    resolved: dict[str, NormalizedEntity | None] = {}

    def inner(row, cells, null_counts):
        entity = cells[entity_idx].strip()
        if not entity:
            raise DataError(f"row {row}: empty entity name")
        year, _ = _require_year(cells[year_idx], row, columns["YEAR"])
        code = cells[code_idx].strip().upper() or None
        if code is not None and code.lower() in NULL_TOKENS:
            code = None
        measures = _collect_measures(layout, row, cells, null_counts)
        if entity not in resolved:
            resolved[entity] = codes.normalize(entity)
        entry = resolved[entity]
        if entry is None:
            return DisasterRecord(entity=entity, iso=code, year=year, measures=measures)
        return DisasterRecord(
            entity=entry.canonical, iso=code or entry.code, year=year,
            measures=measures, aggregate=entry.aggregate,
        )

    return inner


def _coerce_type_row(table: RawTable, columns: dict[str, str], layout):
    entity_idx = table.column_index(columns["ENTITY"])
    year_idx = table.column_index(columns["YEAR"])

    def inner(row, cells, null_counts):
        name = cells[entity_idx].strip()
        disaster_type = parse_disaster_type(name)
        if disaster_type is None:
            raise DataError(f"row {row}: unknown disaster type {name!r}")
        year, _ = _require_year(cells[year_idx], row, columns["YEAR"])
        measures = _collect_measures(layout, row, cells, null_counts)
        return TypeRecord(disaster_type=disaster_type, year=year, measures=measures)

    return inner
