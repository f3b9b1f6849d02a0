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
    cannot split raises ParseError naming the line.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source_path}: input is not UTF-8: {exc}") from exc
    else:
        text = data

    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        # a blank first line makes an empty header, which every row after it
        # is ragged against; blank lines alone are no content at all
        header = tuple(cell.strip() for cell in next(reader, ()))
        if any(not name for name in header):
            raise ParseError(f"{source_path}: header contains an empty column name")
        # every lookup of a column ignores case, so neither may a duplicate
        seen: set[str] = set()
        for name in header:
            if name.upper() in seen:
                raise DuplicateHeaderError(name, source_path)
            seen.add(name.upper())

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


def _match_schema(kind: SchemaKind, columns: dict[str, str]) -> bool:
    """Whether the (upper-cased) *columns* hold every column *kind* requires."""
    names = set(columns)
    if kind is SchemaKind.ANOMALY:
        return any(c in names for c in _YEAR_COLUMNS) and bool(_anomaly_columns(columns))
    required = _KEY_COLUMNS[kind]
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
        raise UnknownSchemaError(
            f"{table.source_path}: columns {sorted(columns)} match no known layout"
        )
    if len(matches) > 1:
        names = ", ".join(sorted(k.value for k in matches))
        raise AmbiguousSchemaError(f"{table.source_path}: matches {names}")
    return matches.pop()


def parse_year_cell(cell: str) -> tuple[int, int | None]:
    """Parse '2008' or '2008-01-01' style cells to (year, optional month)."""
    m = _YEAR_RE.match(cell.strip())
    if m is None:
        raise ValueError(cell)
    year, month, _ = m.groups()
    return int(year), int(month) if month else None


def _parse_number(cell: str, row: int = 0, column: str = "") -> float | None:
    stripped = cell.strip()
    if stripped.lower() in NULL_TOKENS:
        return None
    try:
        return float(stripped)
    except ValueError:
        raise UnparseableNumberError(cell, row, column) from None


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
    before measures, and its error names the row and column.  A record that
    fails validation names its row too.
    """
    columns = _upper_columns(table)
    null_counts = {col: 0 for col in table.header}
    result = CoercionResult(kind=kind)

    # a plan: (column, index, converter) of each key column in the order a
    # row's faults are reported, the null-counted (column, index) pairs, and
    # make (converted values -> record or None)
    if kind is SchemaKind.ANOMALY:
        keys, counted, make = _anomaly_plan(table, columns)
    else:
        layout = _measure_layout(table, columns, skip=_KEY_COLUMNS[kind])
        result.measure_columns = {column: measure for column, _, measure in layout}
        plan_keys = _region_plan if kind is SchemaKind.REGION else _type_plan
        keys, make = plan_keys(table, columns, layout)
        counted = [(column, idx) for column, idx, _ in layout]
    plan = keys + [(column, idx, _parse_number) for column, idx in counted]

    cells_by_column = list(zip(*table.rows)) or [()] * len(table.header)
    faults: dict[int, int] = {}  # bad row -> position of its first failing column
    converted = [
        _convert_column(cells_by_column[idx], convert, position, faults)
        for position, (_, idx, convert) in enumerate(plan)
    ]
    for position in range(len(keys), len(plan)):
        null_counts[plan[position][0]] += converted[position].count(None)

    for i, values in enumerate(zip(*converted), start=1):
        if i in faults:
            column, idx, convert = plan[faults[i]]
            convert(table.rows[i - 1][idx], i, column)  # raises, naming row and column
        try:
            record = make(*values)
        except DataError as exc:
            # a record that fails validation does not know its row
            raise type(exc)(f"row {i}: {exc}") from None
        if record is not None:
            result.records.append(record)

    result.null_report = NullReport(rows=len(table.rows), null_counts=null_counts)
    return result


_FAILED = object()  # a cell that did not convert


def _convert_column(cells, convert, position: int, faults: dict[int, int]) -> list:
    """Convert each distinct cell once, without a row or column to name.

    A failed row whose first fault this is gets *position* in *faults*.
    """
    memo = {}
    for cell in dict.fromkeys(cells):
        try:
            memo[cell] = convert(cell)
        except DataError:
            memo[cell] = _FAILED
    values = list(map(memo.__getitem__, cells))
    if any(value is _FAILED for value in memo.values()):
        for i, value in enumerate(values, start=1):
            if value is _FAILED:
                faults.setdefault(i, position)
    return values


# key converters: (cell, row, column) -> value, or the row's worded DataError


def _entity_name(cell: str, row: int = 0, column: str = "") -> str:
    name = cell.strip()
    if not name:
        raise DataError(f"row {row}: empty entity name")
    return name


def _disaster_type_cell(cell: str, row: int = 0, column: str = "") -> DisasterType:
    disaster_type = parse_disaster_type(cell)
    if disaster_type is None:
        raise DataError(f"row {row}: unknown disaster type {cell.strip()!r}")
    return disaster_type


def _require_year(cell: str, row: int = 0, column: str = "") -> tuple[int, int | None]:
    try:
        year, month = parse_year_cell(cell)
    except ValueError:
        raise UnparseableNumberError(cell, row, column) from None
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise YearOutOfRangeError(year, row)
    return year, month


def _year_only(cell: str, row: int = 0, column: str = "") -> int:
    return _require_year(cell, row, column)[0]


def _code_cell(cell: str, row: int = 0, column: str = "") -> str | None:
    code = cell.strip().upper()
    return code if CODE_RE.match(code) else None


def _key(table: RawTable, columns: dict[str, str], upper: str, convert):
    column = columns[upper]
    return column, table.column_index(column), convert


def _anomaly_plan(table: RawTable, columns: dict[str, str]):
    """The coercion plan of an anomaly table: a null anomaly makes no record."""
    year = next(c for c in _YEAR_COLUMNS if c in columns)
    anomaly_col = columns[_anomaly_columns(columns)[0]]

    def make(year_month, value):
        if value is None:
            return None  # counted, never a record
        year, month = year_month
        return AnomalyRecord(year, value, month)

    keys = [_key(table, columns, year, _require_year)]
    return keys, [(anomaly_col, table.column_index(anomaly_col))], make


def _measure_layout(table: RawTable, columns: dict[str, str], skip: frozenset[str]):
    """(column name, index, canonical measure) for each non-key column."""
    layout = []
    for upper, original in columns.items():
        if upper in skip:
            continue
        layout.append((original, table.column_index(original), canonical_measure(original)))
    layout.sort(key=lambda item: item[1])
    return layout


def _region_plan(table: RawTable, columns: dict[str, str], layout):
    """The coercion plan of a region table, less its measure columns."""
    measures = [measure for _, _, measure in layout]
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

    keys = [
        _key(table, columns, "ENTITY", _entity_name),
        _key(table, columns, "YEAR", _year_only),
        _key(table, columns, "CODE", _code_cell),
    ]
    return keys, make


def _type_plan(table: RawTable, columns: dict[str, str], layout):
    """The coercion plan of a disaster-type table, less its measure columns."""
    measures = [measure for _, _, measure in layout]

    def make(disaster_type, year, *values):
        return TypeRecord(disaster_type, year, dict(zip(measures, values)))

    keys = [
        _key(table, columns, "ENTITY", _disaster_type_cell),
        _key(table, columns, "YEAR", _year_only),
    ]
    return keys, make
