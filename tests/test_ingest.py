import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclim.errors import (
    AmbiguousSchemaError,
    DataError,
    DuplicateHeaderError,
    EmptyInputError,
    NegativeValueError,
    ParseError,
    RaggedRowError,
    UnknownSchemaError,
    UnparseableNumberError,
    YearOutOfRangeError,
)
from disclim.ingest import (
    COMMA,
    TAB,
    Dialect,
    RawTable,
    SchemaKind,
    canonical_measure,
    coerce_records,
    detect_schema,
    parse_delimited,
    parse_year_cell,
)
from disclim.records import DisasterType


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
        with pytest.raises(RaggedRowError) as err:
            parse_delimited("A,B\n1,2\n\n3,4\n")
        assert err.value.line_number == 3
        assert err.value.got == 0

    def test_ragged_row_reports_physical_line(self):
        with pytest.raises(RaggedRowError) as err:
            parse_delimited("A,B\n1,2\n1,2,3\n")
        assert (err.value.line_number, err.value.expected, err.value.got) == (3, 2, 3)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_delimited("")
        with pytest.raises(EmptyInputError):
            parse_delimited("\n\n")

    def test_header_only_is_fine(self):
        assert parse_delimited("A,B\n").rows == ()

    def test_duplicate_header_after_trim(self):
        with pytest.raises(DuplicateHeaderError) as err:
            parse_delimited("A, A \n1,2\n")
        assert err.value.name == "A"

    def test_empty_header_name(self):
        with pytest.raises(ParseError):
            parse_delimited("A,,C\n1,2,3\n")

    def test_tab_dialect(self):
        table = parse_delimited("A\tB\n1\t2\n", TAB)
        assert table.rows == (("1", "2"),)
        assert parse_delimited(table.serialize(TAB), TAB).rows == table.rows

    def test_bytes_decoded_as_utf8(self):
        table = parse_delimited("ENTITY,YEAR\nCôte d'Ivoire,2001\n".encode())
        assert table.rows[0][0] == "Côte d'Ivoire"

    def test_bad_utf8(self):
        with pytest.raises(ParseError):
            parse_delimited(b"A,B\n\xff\xfe,2\n")

    def test_unsplittable_line_is_parse_error(self):
        # a bare carriage return inside a row is not a line ending the csv
        # reader accepts
        with pytest.raises(ParseError, match=r"^t\.csv: line 2: new-line character"):
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
    def test_matches_the_two_pass_parser(self, header, body, dialect):
        text = header + body
        expected = _outcome(_two_pass_parse, text, dialect)
        got = _outcome(parse_delimited, text, dialect)
        if expected[0] == "csv.Error":
            # the two-pass parser let the reader's error escape; this one
            # stops at the first fault it meets and always raises a ParseError
            assert got[0] == "error" and issubclass(got[1], ParseError)
        else:
            assert got == expected

    def test_column_index_is_case_insensitive(self):
        table = parse_delimited("Entity,Year\nx,2001\n")
        assert table.column_index("ENTITY") == 0
        with pytest.raises(KeyError):
            table.column_index("CODE")


def _two_pass_parse(data, dialect=COMMA, source_path="<memory>"):
    """The parser as it was before rows were built straight from the reader.

    Kept verbatim as the oracle for ``parse_delimited``: it held every row
    as a ``(cells, line_num)`` pair before building the row tuples.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source_path}: input is not UTF-8: {exc}") from exc
    else:
        text = data

    reader = csv.reader(io.StringIO(text), delimiter=dialect.delimiter)
    raw: list[tuple[list[str], int]] = []
    for row in reader:
        raw.append((row, reader.line_num))
    while raw and raw[-1][0] == []:
        raw.pop()
    if not raw:
        raise EmptyInputError(f"{source_path}: no content")

    header_cells, _ = raw[0]
    header = tuple(cell.strip() for cell in header_cells)
    if any(not name for name in header):
        raise ParseError(f"{source_path}: header contains an empty column name")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DuplicateHeaderError(name, source_path)
        seen.add(name)

    rows: list[tuple[str, ...]] = []
    for cells, line_num in raw[1:]:
        if len(cells) != len(header):
            raise RaggedRowError(line_num, len(header), len(cells), source_path)
        rows.append(tuple(cells))
    return RawTable(header=header, rows=tuple(rows), source_path=source_path)


def _outcome(parse, text: str, dialect: Dialect) -> tuple:
    try:
        table = parse(text, dialect)
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
        with pytest.raises(AmbiguousSchemaError):
            detect_schema(table)

    def test_ambiguous_region_vs_anomaly(self):
        table = parse_delimited("ENTITY,CODE,YEAR,TEMPERATURE_ANOMALY\nx,XXA,2001,0.3\n")
        with pytest.raises(AmbiguousSchemaError):
            detect_schema(table)

    def test_unknown(self):
        with pytest.raises(UnknownSchemaError):
            detect_schema(parse_delimited("FOO,BAR\n1,2\n"))

    def test_needs_a_measure_column(self):
        with pytest.raises(UnknownSchemaError):
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
        assert result.errors == []

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

    def test_code_uppercased(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,ind,2001,5\n")
        assert coerce_records(table, SchemaKind.REGION).records[0].iso == "IND"

    def test_unparseable_number_location(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,5\nIndia,IND,2002,x\n")
        with pytest.raises(UnparseableNumberError) as err:
            coerce_records(table, SchemaKind.REGION)
        assert (err.value.row, err.value.column, err.value.cell) == (2, "DEATHS", "x")

    def test_year_out_of_range(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,1700,5\n")
        with pytest.raises(YearOutOfRangeError):
            coerce_records(table, SchemaKind.REGION)

    def test_negative_measure_rejected(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\nIndia,IND,2001,-5\n")
        with pytest.raises(NegativeValueError):
            coerce_records(table, SchemaKind.REGION)

    def test_empty_entity_rejected(self):
        table = parse_delimited("ENTITY,CODE,YEAR,DEATHS\n ,IND,2001,5\n")
        with pytest.raises(DataError):
            coerce_records(table, SchemaKind.REGION)

    def test_collect_mode_accounts_for_every_row(self):
        table = parse_delimited(
            "ENTITY,CODE,YEAR,DEATHS\n"
            "India,IND,2001,5\nIndia,IND,1700,5\nIndia,IND,2002,x\nIndia,IND,2003,7\n"
        )
        result = coerce_records(table, SchemaKind.REGION, on_error="collect")
        assert len(result.records) == 2
        assert len(result.errors) == 2
        assert len(result.records) + len(result.errors) == len(table.rows)
        assert result.errors[0].row == 2

    def test_bad_on_error_value(self, region_table):
        with pytest.raises(ValueError):
            coerce_records(region_table, SchemaKind.REGION, on_error="ignore")


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
