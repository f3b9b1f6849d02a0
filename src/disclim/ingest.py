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

from .errors import DataError
from .isocodes import CODE_RE, load_default_codes
from .records import (
    YEAR_MAX,
    YEAR_MIN,
    AnomalyRecord,
    DisasterRecord,
    DisasterType,
    NullReport,
    TypeRecord,
    parse_disaster_type,
)


COMMA = ","
TAB = "\t"

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

    def serialize(self, delimiter: str = COMMA) -> str:
        """Render back to delimited text; cell content round-trips exactly.

        Cells may also be raw values: ``None`` renders as an empty cell and
        a number as its ``repr``.
        """
        out = io.StringIO()
        # A single empty cell would otherwise serialize to a blank line,
        # which the parser treats as no row at all.
        quoting = csv.QUOTE_ALL if len(self.header) == 1 else csv.QUOTE_MINIMAL
        writer = csv.writer(out, delimiter=delimiter, lineterminator="\n", quoting=quoting)
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
    delimiter: str = COMMA,
    source_path: str = "<memory>",
) -> RawTable:
    """Parse headered delimited text into a RawTable.

    The first line is the header, whose names must differ after stripping
    and ignoring case; trailing blank lines are ignored; every data row
    must have exactly as many cells as the header, so a blank line
    followed by a row is a ragged row of no cells.  Text the csv reader
    cannot split raises DataError naming the line.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{source_path}: input is not UTF-8: {exc}") from exc
    else:
        text = data

    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        # a blank first line makes an empty header, which every row after it
        # is ragged against; blank lines alone are no content at all
        header = tuple(cell.strip() for cell in next(reader, ()))
        if any(not name for name in header):
            raise DataError(f"{source_path}: header contains an empty column name")
        # every lookup of a column ignores case, so neither may a duplicate
        seen: set[str] = set()
        for name in header:
            if name.upper() in seen:
                raise DataError(f"{source_path}: duplicate column name: {name!r}")
            seen.add(name.upper())

        width = len(header)
        rows: list[tuple[str, ...]] = []
        blank_line = 0  # the first blank line since the last row
        for cells in reader:
            if not cells:
                blank_line = blank_line or reader.line_num
            elif blank_line and width:
                raise DataError(f"{source_path}: line {blank_line}: expected {width} cells, got 0")
            elif len(cells) != width:
                raise DataError(f"{source_path}: line {reader.line_num}: "
                                f"expected {width} cells, got {len(cells)}")
            else:
                rows.append(tuple(cells))
    except csv.Error as exc:
        raise DataError(f"{source_path}: line {reader.line_num}: {exc}") from None
    if not width:
        raise DataError(f"{source_path}: no content")
    return RawTable(header=header, rows=tuple(rows), source_path=source_path)


class SchemaKind(enum.Enum):
    """Which of the three source layouts a table carries."""

    REGION = "region"
    DISASTER_TYPE = "disaster-type"
    ANOMALY = "anomaly"


def _upper_columns(table: RawTable) -> dict[str, str]:
    return {col.strip().upper(): col for col in table.header}


def _anomaly_columns(columns: dict[str, str]) -> list[str]:
    return [c for c in columns if "ANOMALY" in c]


def _match_schema(kind: SchemaKind, columns: dict[str, str]) -> bool:
    """Whether the (upper-cased) *columns* hold every column *kind* requires."""
    names = set(columns)
    if kind is SchemaKind.ANOMALY:
        return any(c in names for c in _YEAR_COLUMNS) and bool(_anomaly_columns(columns))
    required = {column for column, _ in _KEYS[kind]}
    return required <= names and bool(names - required)


def detect_schema(table: RawTable) -> SchemaKind:
    """Identify the unique schema whose required columns are all present.

    The region layout's key columns contain the type layout's, so a table
    that matches both is a region table; any other multi-match is ambiguous.
    """
    if not table.rows:
        raise DataError(f"{table.source_path}: table has no data rows")
    columns = _upper_columns(table)
    matches = {kind for kind in SchemaKind if _match_schema(kind, columns)}
    if SchemaKind.REGION in matches:
        matches.discard(SchemaKind.DISASTER_TYPE)
    if not matches:
        raise DataError(
            f"{table.source_path}: columns {sorted(columns)} match no known layout"
        )
    if len(matches) > 1:
        names = ", ".join(sorted(k.value for k in matches))
        raise DataError(f"{table.source_path}: matches {names}")
    return matches.pop()


def parse_year_cell(cell: str) -> tuple[int, int | None]:
    """Parse '2008' or '2008-01-01' style cells to (year, optional month)."""
    m = _YEAR_RE.match(cell.strip())
    if m is None:
        raise ValueError(cell)
    year, month, _ = m.groups()
    return int(year), int(month) if month else None


# converters: one cell -> its value, or DataError(reason); coerce_records
# words the reason with the file, row and column


def _parse_number(cell: str) -> float | None:
    stripped = cell.strip()
    if stripped.lower() in NULL_TOKENS:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise DataError(f"cannot parse {cell!r} as a number") from None


def _entity_name(cell: str) -> str:
    name = cell.strip()
    if not name:
        raise DataError("empty entity name")
    return name


def _disaster_type_cell(cell: str) -> DisasterType:
    disaster_type = parse_disaster_type(cell)
    if disaster_type is None:
        raise DataError(f"unknown disaster type {cell.strip()!r}")
    return disaster_type


def _require_year(cell: str) -> tuple[int, int | None]:
    try:
        year, month = parse_year_cell(cell)
    except ValueError:
        raise DataError(f"cannot parse {cell!r} as a number") from None
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year, month


def _year_only(cell: str) -> int:
    return _require_year(cell)[0]


def _code_cell(cell: str) -> str | None:
    code = cell.strip().upper()
    return code if CODE_RE.match(code) else None


# the key columns (upper-cased) of the two disaster layouts with their
# converters, in the order a row's faults are reported; every other column
# of those tables is a measure
_KEYS = {
    SchemaKind.REGION: (("ENTITY", _entity_name), ("YEAR", _year_only), ("CODE", _code_cell)),
    SchemaKind.DISASTER_TYPE: (("ENTITY", _disaster_type_cell), ("YEAR", _year_only)),
}


@dataclass
class CoercionResult:
    kind: SchemaKind
    records: list = field(default_factory=list)
    null_report: NullReport = None  # type: ignore[assignment]
    # raw measure column -> canonical measure; empty for anomaly tables
    measure_columns: dict[str, str] = field(default_factory=dict)


def coerce_records(table: RawTable, kind: SchemaKind) -> CoercionResult:
    """Turn string rows into typed records with an explicit null census.

    Region records come out ISO-normalised: each distinct entity name is
    looked up once in the bundled code table, and a recognised name takes
    its canonical spelling, its code (unless the row has one) and its
    aggregate flag; an unrecognised name passes through unchanged.  A CODE
    cell that is not three letters A-Z counts as absent.  Every non-key column
    of a disaster table is a measure, listed in ``result.measure_columns``.

    Conversion runs a column at a time and converts each distinct cell of a
    column once; records are then built row by row.  The first bad row
    raises: its fault is its first cell that does not convert, key columns
    before measures, and its error names the file, row and column.  A
    record that fails validation names the file and row.
    """
    columns = _upper_columns(table)
    result = CoercionResult(kind=kind)

    # the plan: (column, converter) of each key column in fault order, the
    # null-counted columns, and make (converted values -> record or None)
    if kind is SchemaKind.ANOMALY:
        keys = [(columns[next(c for c in _YEAR_COLUMNS if c in columns)], _require_year)]
        counted = [columns[_anomaly_columns(columns)[0]]]

        def make(year_month, value):
            if value is None:
                return None  # counted, never a record
            year, month = year_month
            return AnomalyRecord(year, value, month)
    else:
        keys = [(columns[upper], convert) for upper, convert in _KEYS[kind]]
        key_columns = {column for column, _ in keys}
        counted = [column for column in columns.values() if column not in key_columns]
        result.measure_columns = {column: canonical_measure(column) for column in counted}
        measures = list(result.measure_columns.values())
        if kind is SchemaKind.REGION:
            make = _region_record_maker(measures)
        else:
            def make(disaster_type, year, *values):
                return TypeRecord(disaster_type, year, dict(zip(measures, values)))
    plan = keys + [(column, _parse_number) for column in counted]

    cells_by_column = list(zip(*table.rows)) or [()] * len(table.header)
    faults: dict[int, tuple[str, DataError]] = {}  # bad row -> its first (column, fault)
    converted = [
        _convert_column(cells_by_column[table.column_index(column)], convert, column, faults)
        for column, convert in plan
    ]
    null_counts = dict.fromkeys(table.header, 0)
    for column, values in zip(counted, converted[len(keys):]):
        null_counts[column] = values.count(None)

    for i, values in enumerate(zip(*converted), start=1):
        if i in faults:
            column, reason = faults[i]
            raise DataError(f"{table.source_path}: row {i}, column {column!r}: {reason}")
        try:
            record = make(*values)
        except DataError as reason:
            raise DataError(f"{table.source_path}: row {i}: {reason}") from None
        if record is not None:
            result.records.append(record)

    result.null_report = NullReport(rows=len(table.rows), null_counts=null_counts)
    return result


def _convert_column(cells, convert, column: str, faults: dict) -> list:
    """Convert each distinct cell once; a cell that does not convert is its DataError.

    A row with such a cell files (*column*, its DataError) in *faults*,
    unless an earlier column of the plan already has.
    """
    memo = {}
    failed = False
    for cell in dict.fromkeys(cells):
        try:
            memo[cell] = convert(cell)
        except DataError as exc:
            memo[cell] = exc
            failed = True
    values = list(map(memo.__getitem__, cells))
    if failed:
        for i, value in enumerate(values, start=1):
            if isinstance(value, DataError):
                faults.setdefault(i, (column, value))
    return values


def _region_record_maker(measures: list[str]):
    """make (entity, year, code, *measure values) -> ISO-normalised DisasterRecord."""
    codes = load_default_codes()
    # stripped name -> (entity, code when the row has none, aggregate)
    resolved: dict[str, tuple[str, str | None, bool]] = {}

    def make(name, year, code, *values):
        entry = resolved.get(name)
        if entry is None:
            found = codes.normalize(name)
            entry = resolved[name] = (
                (name, None, False) if found is None
                else (found.canonical, found.code, found.aggregate)
            )
        entity, default_code, aggregate = entry
        return DisasterRecord(
            entity, code or default_code, year, dict(zip(measures, values)), aggregate
        )

    return make
