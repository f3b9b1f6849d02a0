import contextlib
import csv
import io
import re
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raises_data_error
from disclim.errors import DataError
from disclim.ingest import (
    _YEAR_COLUMNS,
    _YEAR_RE,
    COMMA,
    NULL_TOKENS,
    TAB,
    CoercionResult,
    RawTable,
    SchemaKind,
    _anomaly_columns,
    _upper_columns,
    canonical_measure,
    coerce_records,
    detect_schema,
    parse_delimited,
    parse_year_cell,
)
from disclim.isocodes import IsoCodeTable, NormalizedEntity, load_default_codes
from disclim.records import (
    YEAR_MAX,
    YEAR_MIN,
    AnomalyRecord,
    DisasterRecord,
    DisasterType,
    NullReport,
    TypeRecord,
    parse_disaster_type,
)


class TestParse:
    def test_basic(self):
        table = parse_delimited("A,B\n1,2\n3,4\n")
        assert table.header == ("A", "B")
        assert table.rows == (("1", "2"), ("3", "4"))

    def test_quoted_cells_round_trip(self):
        table = RawTable(header=("name", "note"), rows=(('x,y', 'he said "hi"\nbye'),))
        again = parse_delimited(table.serialize())
        assert again.header == table.header
        assert again.rows == table.rows

    def test_single_column_empty_cell_round_trip(self):
        table = RawTable(header=("only",), rows=(("",), ("v",)))
        again = parse_delimited(table.serialize())
        assert again.rows == table.rows

    def test_trailing_blank_lines_ignored(self):
        table = parse_delimited("A,B\n1,2\n\n\n")
        assert len(table.rows) == 1

    def test_interior_blank_line_is_ragged(self):
        with raises_data_error("<memory>: line 3: expected 2 cells, got 0"):
            parse_delimited("A,B\n1,2\n\n3,4\n")

    def test_ragged_row_reports_physical_line(self):
        with raises_data_error("<memory>: line 3: expected 2 cells, got 3"):
            parse_delimited("A,B\n1,2\n1,2,3\n")

    def test_empty_input(self):
        with raises_data_error("<memory>: no content"):
            parse_delimited("")
        with raises_data_error("<memory>: no content"):
            parse_delimited("\n\n")

    def test_header_only_is_fine(self):
        assert parse_delimited("A,B\n").rows == ()

    def test_duplicate_header_after_trim(self):
        with raises_data_error("<memory>: duplicate column name: 'A'"):
            parse_delimited("A, A \n1,2\n")

    def test_duplicate_header_differing_in_case(self):
        # lookups ignore case, so one of the two columns would be dropped unseen
        with raises_data_error("<memory>: duplicate column name: 'DEATHS'"):
            parse_delimited("ENTITY,YEAR,Deaths,DEATHS\nFlood,2001,5,7\n")

    def test_empty_header_name(self):
        with raises_data_error("<memory>: header contains an empty column name"):
            parse_delimited("A,,C\n1,2,3\n")

    def test_tab_dialect(self):
        table = parse_delimited("A\tB\n1\t2\n", TAB)
        assert table.rows == (("1", "2"),)
        assert parse_delimited(table.serialize(TAB), TAB).rows == table.rows

    def test_bytes_decoded_as_utf8(self):
        table = parse_delimited("ENTITY,YEAR\nCôte d'Ivoire,2001\n".encode())
        assert table.rows[0][0] == "Côte d'Ivoire"

    def test_bad_utf8(self):
        with raises_data_error("<memory>: input is not UTF-8: 'utf-8' codec can't decode "
                               "byte 0xff in position 4: invalid start byte"):
            parse_delimited(b"A,B\n\xff\xfe,2\n")

    def test_unsplittable_line_is_parse_error(self):
        # a bare carriage return inside a row is not a line ending the csv
        # reader accepts; the rest of the message is the reader's own, and
        # differs between Python versions
        with pytest.raises(DataError, match=r"^t\.csv: line 2: new-line character"):
            parse_delimited("A,B\n1,2\rx\n", source_path="t.csv")

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["", "A,B\n", "A,B,C\n", "A, A\n", "A\tB\n"]),
        # a bare "\r" makes the reader fail, so it is drawn less often
        st.lists(st.sampled_from(
            ["a", "b", " ", ",", "\t", "\n", "\n\n", '"', '""', '"x\ny"', '"p,q"', "\r\n"] * 8
            + ["\r"]
        ), max_size=30).map("".join),
        st.sampled_from([COMMA, TAB]),
    )
    def test_matches_the_two_pass_parser(self, header, body, delimiter):
        text = header + body
        expected = _outcome(_two_pass_parse, text, delimiter)
        got = _outcome(parse_delimited, text, delimiter)
        if expected[0] == "csv.Error":
            # the two-pass parser let the reader's error escape; this one
            # stops at the first fault it meets, in the header or on a line
            assert got[0] == "error" and got[1] is DataError
            assert re.match(r"<memory>: (line \d+: |duplicate column name: "
                            r"|header contains an empty column name\Z)", got[2])
        else:
            assert got == expected

    def test_column_index_is_case_insensitive(self):
        table = parse_delimited("Entity,Year\nx,2001\n")
        assert table.column_index("ENTITY") == 0
        with pytest.raises(KeyError):
            table.column_index("CODE")


def _two_pass_parse(data, delimiter=COMMA, source_path="<memory>"):
    """The parser as it was before rows were built straight from the reader.

    Kept verbatim as the oracle for ``parse_delimited``: it held every row
    as a ``(cells, line_num)`` pair before building the row tuples.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{source_path}: input is not UTF-8: {exc}") from exc
    else:
        text = data

    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    raw: list[tuple[list[str], int]] = []
    for row in reader:
        raw.append((row, reader.line_num))
    while raw and raw[-1][0] == []:
        raw.pop()
    if not raw:
        raise DataError(f"{source_path}: no content")

    header_cells, _ = raw[0]
    header = tuple(cell.strip() for cell in header_cells)
    if any(not name for name in header):
        raise DataError(f"{source_path}: header contains an empty column name")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DataError(f"{source_path}: duplicate column name: {name!r}")
        seen.add(name)

    rows: list[tuple[str, ...]] = []
    for cells, line_num in raw[1:]:
        if len(cells) != len(header):
            raise DataError(f"{source_path}: line {line_num}: "
                            f"expected {len(header)} cells, got {len(cells)}")
        rows.append(tuple(cells))
    return RawTable(header=header, rows=tuple(rows), source_path=source_path)


def _outcome(parse, text: str, delimiter: str) -> tuple:
    try:
        table = parse(text, delimiter)
    except csv.Error:
        return ("csv.Error",)
    except DataError as exc:
        return ("error", type(exc), str(exc))
    return ("table", table.header, table.rows)


class TestDetect:
    def test_fixture_kinds(self, region_table, type_table, anomaly_table):
        assert detect_schema(region_table) is SchemaKind.REGION
        assert detect_schema(type_table) is SchemaKind.DISASTER_TYPE
        assert detect_schema(anomaly_table) is SchemaKind.ANOMALY

    def test_region_wins_over_type(self):
        # region requires a strict superset of the type columns, so a
        # table carrying CODE is never read as a per-type layout
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\n")
        assert detect_schema(table) is SchemaKind.REGION

    def test_column_order_irrelevant(self):
        a = parse_delimited("DEATHS,YEAR,CODE,ENTITY\n5,2001,IND,India\n")
        assert detect_schema(a) is SchemaKind.REGION

    def test_ambiguous_type_vs_anomaly(self):
        table = parse_delimited("ENTITY,YEAR,TEMPERATURE_ANOMALY\nx,2001,0.3\n")
        with raises_data_error("<memory>: matches anomaly, disaster-type"):
            detect_schema(table)

    def test_ambiguous_region_vs_anomaly(self):
        table = parse_delimited("ENTITY,CODE,YEAR,TEMPERATURE_ANOMALY\nx,XXA,2001,0.3\n")
        with raises_data_error("<memory>: matches anomaly, region"):
            detect_schema(table)

    def test_unknown(self):
        with raises_data_error("<memory>: columns ['BAR', 'FOO'] match no known layout"):
            detect_schema(parse_delimited("FOO,BAR\n1,2\n"))

    def test_needs_a_measure_column(self):
        with raises_data_error("<memory>: columns ['ENTITY', 'YEAR'] match no known layout"):
            detect_schema(parse_delimited("ENTITY,YEAR\nx,2001\n"))

    def test_no_data_rows(self):
        with pytest.raises(DataError):
            detect_schema(parse_delimited("ENTITY,CODE,YEAR,DEATHS\n"))

    def test_anomaly_accepts_date_column(self):
        table = parse_delimited("DATE,TEMPERATURE_ANOMALY\n1990-01,0.2\n")
        assert detect_schema(table) is SchemaKind.ANOMALY


def test_parse_year_cell_forms():
    assert parse_year_cell("2008") == (2008, None)
    assert parse_year_cell("2008-01-01") == (2008, 1)
    assert parse_year_cell("1990-11") == (1990, 11)
    with pytest.raises(ValueError):
        parse_year_cell("19x0")


def test_canonical_measure_aliases():
    assert canonical_measure("OCCURRENCES") == "count"
    assert canonical_measure("deaths") == "deaths"
    assert canonical_measure("Total_Damages") == "economic_damage"
    assert canonical_measure("INTERNALLY_DISPLACED_POPULATION") == "internally_displaced"
    # unknown columns pass through lowercased
    assert canonical_measure("SOMETHING_ELSE") == "something_else"


class TestCoerceRegion:
    def test_fixture_values(self, region_table):
        result = coerce_records(region_table, SchemaKind.REGION)
        assert len(result.records) == 9
        first = result.records[0]
        assert (first.entity, first.iso, first.year) == ("India", "IND", 2008)
        assert first.measures["deaths"] == pytest.approx(1734.947159)
        assert first.measures["death_rate"] == pytest.approx(0.143342031)
        assert first.measures["percentage_share_deaths"] == pytest.approx(0.019412573)
        assert first.measures["internally_displaced"] == 6662000
        assert result.null_report.rows == 9

    def test_null_tokens(self):
        table = parse_delimited(
            "ENTITY,CODE,YEAR,DEATHS,AFFECTED\nIndia,IND,2001,NA,5\nIndia,IND,2002,null,\n"
        )
        result = coerce_records(table, SchemaKind.REGION)
        assert result.records[0].measures["deaths"] is None
        assert result.records[1].measures["affected"] is None
        assert result.null_report.null_counts["DEATHS"] == 2
        assert result.null_report.fraction("AFFECTED") == 0.5

    def test_names_resolved_once_against_iso_table(self, monkeypatch):
        from disclim import isocodes

        lookups = []
        normalize = isocodes.IsoCodeTable.normalize
        monkeypatch.setattr(isocodes.IsoCodeTable, "normalize",
                            lambda self, name: lookups.append(name) or normalize(self, name))
        table = parse_delimited(
            "ENTITY,CODE,YEAR,DEATHS\n"
            "Czech Republic,,2001,5\nCzech Republic,,2002,6\n"
            "World,,2001,7\nRussia,SUN,1989,5\nAtlantis,ATL,2003,1\n"
        )
        result = coerce_records(table, SchemaKind.REGION)
        assert [(r.entity, r.iso, r.aggregate) for r in result.records] == [
            ("Czechia", "CZE", False), ("Czechia", "CZE", False),
            ("World", None, True), ("Russia", "SUN", False), ("Atlantis", "ATL", False),
        ]
        assert sorted(lookups) == ["Atlantis", "Czech Republic", "Russia", "World"]

    def test_measure_layout_reported(self, region_table, anomaly_table):
        assert coerce_records(region_table, SchemaKind.REGION).measure_columns == {
            "DEATHS": "deaths",
            "DEATH_RATE": "death_rate",
            "PERCENTAGE_SHARE_DEATHS": "percentage_share_deaths",
            "INTERNALLY_DISPLACED_POPULATION": "internally_displaced",
        }
        assert coerce_records(anomaly_table, SchemaKind.ANOMALY).measure_columns == {}

    def test_empty_code_becomes_none(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nWorld,,2001,5\n")
        assert coerce_records(table, SchemaKind.REGION).records[0].iso is None

    def test_code_that_is_not_alpha3_is_absent(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nWorld,OWID_WRL,2001,5\n")
        record = coerce_records(table, SchemaKind.REGION).records[0]
        assert (record.entity, record.iso, record.aggregate) == ("World", None, True)

    def test_code_uppercased(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,ind,2001,5\n")
        assert coerce_records(table, SchemaKind.REGION).records[0].iso == "IND"

    def test_unparseable_number_location(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nIndia,IND,2002,x\n")
        with raises_data_error(
            "<memory>: row 2, column 'DEATHS': cannot parse 'x' as a number"
        ):
            coerce_records(table, SchemaKind.REGION)

    def test_year_out_of_range(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,1700,5\n")
        with raises_data_error("<memory>: row 1, column 'YEAR': year 1700 outside [1850, 2100]"):
            coerce_records(table, SchemaKind.REGION)

    def test_negative_measure_rejected(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,-5\n")
        with raises_data_error("<memory>: row 1: measure 'deaths' is negative: -5.0"):
            coerce_records(table, SchemaKind.REGION)

    def test_empty_entity_rejected(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\n ,IND,2001,5\n")
        with raises_data_error("<memory>: row 1, column 'ENTITY': empty entity name"):
            coerce_records(table, SchemaKind.REGION)



class TestCoerceType:
    def test_fixture_values(self, type_table):
        result = coerce_records(type_table, SchemaKind.DISASTER_TYPE)
        assert len(result.records) == 9
        first = result.records[0]
        assert first.disaster_type is DisasterType.FLOOD
        assert first.year == 1982
        assert first.measures == {
            "deaths": 4648.0,
            "affected": 36917037.0,
            "homeless": 372410.0,
            "injured": 25292.0,
        }
        assert not first.aggregate

    def test_aggregate_row(self):
        table = parse_delimited("ENTITY,YEAR,OCCURRENCES\nAll natural disasters,2001,410\n")
        rec = coerce_records(table, SchemaKind.DISASTER_TYPE).records[0]
        assert rec.disaster_type is DisasterType.ALL_NATURAL_DISASTERS
        assert rec.aggregate
        assert rec.measures["count"] == 410

    def test_unknown_type_rejected(self):
        table = parse_delimited("ENTITY,YEAR,DEATHS\nMeteor strike,2001,5\n")
        with pytest.raises(DataError, match="Meteor strike"):
            coerce_records(table, SchemaKind.DISASTER_TYPE)


class TestCoerceAnomaly:
    def test_months_and_nulls(self, anomaly_table):
        result = coerce_records(anomaly_table, SchemaKind.ANOMALY)
        # two null cells never become records, they are only counted
        assert len(result.records) == 7
        assert result.null_report.null_counts["TEMPERATURE_ANOMALY"] == 2
        first = result.records[0]
        assert (first.year, first.month, first.anomaly) == (1990, 1, 0.25)

    def test_annual_rows_have_no_month(self):
        table = parse_delimited("YEAR,TEMPERATURE_ANOMALY\n1990,0.25\n")
        rec = coerce_records(table, SchemaKind.ANOMALY).records[0]
        assert rec.month is None

    def test_extra_columns_ignored(self):
        table = parse_delimited("YEAR,TEMPERATURE_ANOMALY,UNCERTAINTY\n1990,0.25,0.05\n")
        result = coerce_records(table, SchemaKind.ANOMALY)
        assert result.records[0].anomaly == 0.25

    def test_implausible_anomaly_rejected(self):
        table = parse_delimited("YEAR,TEMPERATURE_ANOMALY\n1990,25.0\n")
        with pytest.raises(DataError):
            coerce_records(table, SchemaKind.ANOMALY)


class TestRecordFaultsNameTheRow:
    @pytest.mark.parametrize("text, kind, message", [
        ("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nIndia,IND,2002,-3\n",
         SchemaKind.REGION, "<memory>: row 2: measure 'deaths' is negative: -3.0"),
        ("DATE,TEMPERATURE_ANOMALY\n2008-01-01,0.1\n2008-13-01,0.2\n",
         SchemaKind.ANOMALY, "<memory>: row 2: month 13 outside 1..12"),
        ("ENTITY,YEAR,DEATHS\nFlood,2001,nan\n",
         SchemaKind.DISASTER_TYPE, "<memory>: row 1: measure 'deaths' is not finite: nan"),
    ])
    def test_raised_and_collected(self, text, kind, message):
        table = parse_delimited(text)
        with raises_data_error(message) as err:
            coerce_records(table, kind)
        assert type(err.value) is DataError

    def test_cli_names_the_row(self, tmp_path, capsys):
        from disclim.cli import main

        source = tmp_path / "region.csv"
        source.write_text("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nIndia,IND,2002,-3\n")
        assert main(["ingest", "--region", str(source),
                     "--corpus", str(tmp_path / "corpus")]) == 2
        assert capsys.readouterr().err == (
            f"disclim: {source}: row 2: measure 'deaths' is negative: -3.0\n"
        )


# cells drawn for the oracle sweep: well-formed ones first and more often, so
# that shrinking heads for clean rows and most tables keep some records
_ENTITIES = (["India", " India ", "india", "Czech Republic", "CZE", "World", "Atlantis"] * 3
             + ["Atlantis ", " cze", "Lemuria", "", "   "])
_CODES = ["IND", "", "ind", " IND ", "NA", " null ", "XXA", "SUN"]
_YEARS = (["2001", "1990", "2008-01-01", " 2001 ", "1850", "2100", "2008-1"] * 3
          + ["2008-13-01", "1849", "2101", "1700", "19x0", "", "NA", "2001.0"])
_MEASURES = (["0", "5", "", "3.5", " 5 ", "1e3", "-0", "NA", "null", " Null "] * 3
             + ["-3", "nan", "inf", "-inf", "x", "1_000"])
_ANOMALIES = (["0.25", "-0.4", " 0.1 ", "9.99", "", "NA", "null"] * 3
              + ["25.0", "-10", "nan", "inf", "warm"])
_TYPES = (["Flood", " flood ", "Volcanic activity", "volcanic-activity",
           "All natural disasters", "all-disasters"] * 3 + ["Meteor strike", "", " "])


@st.composite
def _source_tables(draw):
    kind = draw(st.sampled_from(list(SchemaKind)))
    if kind is SchemaKind.ANOMALY:
        pools = {draw(st.sampled_from(["YEAR", "DATE", "Dt"])): _YEARS,
                 "TEMPERATURE_ANOMALY": _ANOMALIES}
        if draw(st.booleans()):
            pools["UNCERTAINTY"] = _MEASURES
    else:
        pools = {"ENTITY": _ENTITIES if kind is SchemaKind.REGION else _TYPES, "YEAR": _YEARS}
        if kind is SchemaKind.REGION:
            pools["CODE"] = _CODES
        # DEATHS and TOTAL_DEATHS are the same measure
        for column in draw(st.lists(st.sampled_from(
                ["DEATHS", "TOTAL_DEATHS", "Affected", "injured", "SOMETHING_ELSE"]),
                unique=True, max_size=3)):
            pools[column] = _MEASURES
    header = tuple(draw(st.permutations(list(pools))))
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(pools[column]) for column in header]), max_size=25
    ))
    return RawTable(header=header, rows=tuple(rows)), kind


@contextlib.contextmanager
def _counted_lookups():
    names = []
    normalize = IsoCodeTable.normalize
    IsoCodeTable.normalize = lambda self, name: names.append(name) or normalize(self, name)
    try:
        yield names
    finally:
        IsoCodeTable.normalize = normalize


def _coercion(coerce, table, kind) -> tuple:
    with _counted_lookups() as lookups:
        try:
            result = coerce(table, kind)
        except DataError as exc:
            return ("raised", type(exc), str(exc), lookups)
    return ("result", result.records, result.null_report.rows,
            result.null_report.null_counts, result.measure_columns, lookups)


class TestColumnWiseCoercion:
    @settings(max_examples=500, deadline=None)
    @given(_source_tables())
    def test_matches_the_row_wise_coercion(self, table_and_kind):
        table, kind = table_and_kind
        expected = _coercion(_row_wise_coerce, table, kind)
        got = _coercion(coerce_records, table, kind)
        if expected[0] == "raised":
            expected = (*expected[:2], _as_worded_now(table, kind, expected[2]), *expected[3:])
        assert got == expected

    def test_sweep_reaches_every_outcome(self):
        # the strategy is only useful if it makes clean, faulty and
        # validation-failing tables of every kind
        seen = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(_source_tables())
        def sweep(table_and_kind):
            table, kind = table_and_kind
            result = _row_wise_coerce(table, kind, on_error="collect")
            seen.add((kind, "records", bool(result.records)))
            for row_error in result.errors:
                text = str(row_error.error)
                seen.add((kind, "fault", "row" if text.startswith("row ") else "record"))

        sweep()
        for kind in SchemaKind:
            assert {(kind, "records", True), (kind, "fault", "row"),
                    (kind, "fault", "record")} <= seen


def _as_worded_now(table: RawTable, kind: SchemaKind, message: str) -> str:
    """The oracle's fault *message* as ``coerce_records`` words it.

    Every fault now starts with the file.  A key fault (empty entity,
    unknown type, year out of range) names its column too, and a
    record-validation fault names its row; the reason is unchanged.
    """
    columns = _upper_columns(table)
    located = re.match(r"row (\d+)(, column |: )", message)
    if located is None:  # a record-validation fault, which knew no row
        first = _row_wise_coerce(table, kind, on_error="collect").errors[0]
        return f"{table.source_path}: row {first.row}: {message}"
    if located[2] == ": ":  # a key fault, which named no column
        reason = message[located.end():]
        key = "ENTITY" if reason.startswith(("empty entity", "unknown disaster")) else next(
            c for c in _YEAR_COLUMNS if c in columns)
        return f"{table.source_path}: row {located[1]}, column {columns[key]!r}: {reason}"
    return f"{table.source_path}: {message}"


# -- the row-wise coercion, kept verbatim as the oracle for coerce_records ----
# It converted every cell of every row, one row at a time.  Its collect mode,
# which files each bad row and goes on, shows the sweep's faults and the row
# a raised validation fault names.

# the key columns (upper-cased) of the two disaster layouts
_KEY_COLUMNS = {
    SchemaKind.REGION: frozenset({"ENTITY", "CODE", "YEAR"}),
    SchemaKind.DISASTER_TYPE: frozenset({"ENTITY", "YEAR"}),
}


@dataclass(frozen=True)
class _RowError:
    row: int
    error: DataError


@dataclass
class _CollectedResult(CoercionResult):
    errors: list[_RowError] = field(default_factory=list)


def _row_wise_coerce(
    table: RawTable, kind: SchemaKind, on_error: str = "raise"
) -> _CollectedResult:
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', not {on_error!r}")
    columns = _upper_columns(table)
    null_counts = {col: 0 for col in table.header}
    result = _CollectedResult(kind=kind)

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
            result.errors.append(_RowError(i, exc))
            continue
        if record is not None:
            result.records.append(record)

    result.null_report = NullReport(rows=len(table.rows), null_counts=null_counts)
    return result


def _parse_year_cell(cell: str) -> tuple[int, int | None]:
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
        raise DataError(
            f"row {row}, column {column!r}: cannot parse {cell!r} as a number"
        ) from None


def _require_year(cell: str, row: int, column: str) -> tuple[int, int | None]:
    try:
        year, month = _parse_year_cell(cell)
    except ValueError:
        raise DataError(
            f"row {row}, column {column!r}: cannot parse {cell!r} as a number"
        ) from None
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"row {row}: year {year} outside [1850, 2100]")
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
