import json
import xml.etree.ElementTree as ET

import pytest

from disclim.charts import (
    ChartDocument,
    ChartKind,
    emit_chart,
    parse_chart_kind,
    ramp_position,
    render_heatmap_svg,
)
from disclim.corpus import AnnualSeries, align_union
from disclim.errors import (
    DataError,
    EmptyMatrixError,
    KindMismatchError,
    MissingIsoCodesError,
)
from disclim.metrics import shares_by_group, sunburst_deaths_affected
from disclim.stats import CorrelationMatrix, correlation_matrix


def _two_series():
    return [
        AnnualSeries("a", (2001, 2002, 2003), (1.0, 2.0, 3.0)),
        AnnualSeries("b", (2002, 2003, 2004), (5.0, 6.0, 7.0)),
    ]


def _two_joined():
    return align_union(_two_series())


def _small_matrix() -> CorrelationMatrix:
    return correlation_matrix(align_union(_two_series()[:1] + [
        AnnualSeries("b", (2001, 2002, 2003), (5.0, 6.0, 9.0)),
    ]))


class TestKindParsing:
    def test_spellings(self):
        assert parse_chart_kind("dualaxis") is ChartKind.DUAL_AXIS
        assert parse_chart_kind("stackedarea") is ChartKind.STACKED_AREA
        assert parse_chart_kind("heatmap") is ChartKind.HEATMAP

    def test_unknown(self):
        for name in ("scatter", "dual-axis", "Dual_Axis", " heatmap "):
            with pytest.raises(KindMismatchError):
                parse_chart_kind(name)


class TestDocumentSerialization:
    def test_canonical_json(self):
        doc = emit_chart("timeseries", _two_joined())
        text = doc.to_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        assert parsed["kind"] == "timeseries"

    def test_bytes_deterministic(self):
        first = emit_chart("timeseries", _two_joined()).to_bytes()
        second = emit_chart("timeseries", _two_joined()).to_bytes()
        assert first == second

    def test_unicode_kept_readable(self):
        doc = ChartDocument(ChartKind.TIME_SERIES, "Côte d'Ivoire", {}, {})
        assert "Côte d'Ivoire" in doc.to_text()


class TestTimeSeries:
    def test_payload(self):
        doc = emit_chart("timeseries", _two_joined())
        assert doc.kind is ChartKind.TIME_SERIES
        assert doc.axes == {"x": "year", "y": ""}
        assert doc.payload["years"] == [2001, 2002, 2003, 2004]
        by_label = {s["label"]: s["values"] for s in doc.payload["series"]}
        assert by_label["a"] == [1.0, 2.0, 3.0, None]
        assert by_label["b"] == [None, 5.0, 6.0, 7.0]

    def test_joined_table_accepted(self):
        assert emit_chart("timeseries", _two_joined()).payload["years"] == [2001, 2002, 2003, 2004]

    def test_wrong_input(self):
        for data in ({"not": "series"}, _two_series()):
            for kind in ("timeseries", "dualaxis"):
                with pytest.raises(KindMismatchError, match="JoinedTable"):
                    emit_chart(kind, data)

    def test_duplicate_labels(self):
        twice = align_union([_two_series()[0], _two_series()[0]])
        with pytest.raises(DataError, match="not unique"):
            emit_chart("timeseries", twice)


class TestDualAxis:
    def test_axes_and_title(self):
        doc = emit_chart("dualaxis", _two_joined())
        assert doc.axes == {"x": "year", "left": "a", "right": "b"}
        assert doc.title == "a vs b"

    def test_needs_exactly_two(self):
        series = _two_series() + [AnnualSeries("c", (2001,), (1.0,))]
        with pytest.raises(KindMismatchError, match="exactly 2"):
            emit_chart("dualaxis", align_union(series))
        with pytest.raises(KindMismatchError):
            emit_chart("dualaxis", align_union(series[:1]))


def test_unknown_option_raises():
    with pytest.raises(TypeError, match="year"):
        emit_chart("choropleth", {"IND": 4.0}, year=2016)


def test_option_of_another_kind_raises():
    with pytest.raises(TypeError, match="units"):
        emit_chart("stackedarea", shares_by_group({2001: {"a": 1.0}}), units="events")


@pytest.mark.parametrize("kind, option", [("timeseries", "units"), ("dualaxis", "secondary")])
def test_former_options_raise(kind, option):
    with pytest.raises(TypeError, match=option):
        emit_chart(kind, _two_joined(), **{option: "b"})


class TestStackedArea:
    def test_payload_row_order(self):
        table = shares_by_group(
            {2001: {"a": 1.0, "b": 3.0}, 2002: {"a": 0.0, "b": 0.0}}
        )
        doc = emit_chart("stackedarea", table)
        assert doc.payload["labels"] == ["a", "b"]
        assert doc.payload["years"] == [2001, 2002]
        assert doc.payload["shares"] == [[0.25, 0.75], [0.0, 0.0]]
        assert doc.payload["zero_total_years"] == [2002]

    def test_wrong_input(self):
        with pytest.raises(KindMismatchError):
            emit_chart("stackedarea", {"a": 1.0})


class TestSunburst:
    def test_nested_payload(self):
        root, _ = sunburst_deaths_affected({"Flood": 2.0}, {"Flood": 10.0})
        doc = emit_chart("sunburst", root)
        assert doc.payload["label"] == "All natural disasters"
        assert doc.payload["children"][0]["label"] == "Flood"
        assert doc.payload["children"][0]["children"][0] == {
            "label": "deaths",
            "value": 2.0,
            "children": [],
        }

    def test_wrong_input(self):
        with pytest.raises(KindMismatchError):
            emit_chart("sunburst", {"label": "x"})


class TestChoropleth:
    def test_codes_pass_through_and_names_resolve(self):
        doc = emit_chart("choropleth", {"IND": 4, "RUS": 2.5})
        assert doc.payload["values"] == {"IND": 4.0, "RUS": 2.5}
        assert doc.axes == {"key": "ISO 3166-1 alpha-3"}
        # a name is not resolved here: ingest gave each region its code
        with pytest.raises(MissingIsoCodesError) as err:
            emit_chart("choropleth", {"IND": 4.0, "Russia": 2.5})
        assert err.value.entities == ["Russia"]

    def test_all_unresolved_names_reported(self):
        with pytest.raises(MissingIsoCodesError) as err:
            emit_chart("choropleth", {"Atlantis": 1.0, "Mu": 2.0, "IND": 3.0})
        assert err.value.entities == ["Atlantis", "Mu"]

    def test_name_and_code_collision(self):
        # a name beside the code it would resolve to is reported, not merged
        with pytest.raises(MissingIsoCodesError) as err:
            emit_chart("choropleth", {"India": 1.0, "IND": 2.0, "ind": 3.0})
        assert err.value.entities == ["India", "ind"]

    def test_wrong_input(self):
        with pytest.raises(KindMismatchError):
            emit_chart("choropleth", [("IND", 1.0)])


class TestHeatmapDocument:
    def test_payload(self):
        matrix = _small_matrix()
        doc = emit_chart("heatmap", matrix)
        assert doc.payload["labels"] == ["a", "b"]
        assert doc.payload["method"] == "pearson"
        assert doc.payload["values"][0][0] == 1.0

    def test_none_survives_as_null(self):
        matrix = CorrelationMatrix(
            ("a", "b"),
            ((1.0, None), (None, 1.0)),
            ((3, 0), (0, 3)),
            "pearson",
        )
        text = emit_chart("heatmap", matrix).to_text()
        assert "null" in text

    def test_wrong_input(self):
        with pytest.raises(KindMismatchError):
            emit_chart("heatmap", [[1.0]])


def _cell_fills(svg: str) -> list[str]:
    """The fill of each matrix cell, row by row."""
    return [line.split('fill="')[1].split('"')[0]
            for line in svg.splitlines() if line.startswith('<rect x="') and "#ramp" not in line]


class TestRamp:
    def test_position_endpoints(self):
        assert ramp_position(-1.0) == 0.0
        assert ramp_position(0.0) == 0.5
        assert ramp_position(1.0) == 1.0

    def test_position_monotone(self):
        grid = [i / 50.0 - 1.0 for i in range(101)]
        positions = [ramp_position(v) for v in grid]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_position_bounds(self):
        with pytest.raises(DataError):
            ramp_position(1.0001)
        with pytest.raises(DataError):
            ramp_position(-1.0001)

    def test_color_anchors(self):
        matrix = CorrelationMatrix(
            ("a", "b", "c"),
            ((1.0, -1.0, 0.0), (-1.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
            ((3, 3, 3), (3, 3, 3), (3, 3, 3)),
            "pearson",
        )
        cells = _cell_fills(render_heatmap_svg(matrix).decode())
        negative, neutral, positive = "#2166ac", "#f7f7f7", "#b2182b"
        assert cells == [positive, negative, neutral,
                         negative, positive, neutral,
                         neutral, neutral, positive]

    def test_color_is_valid_hex_everywhere(self):
        for i in range(-10, 11):
            r = i / 10.0
            matrix = CorrelationMatrix(("a", "b"), ((1.0, r), (r, 1.0)), ((3, 3), (3, 3)),
                                       "pearson")
            for color in _cell_fills(render_heatmap_svg(matrix).decode()):
                assert len(color) == 7 and color.startswith("#")
                int(color[1:], 16)


class TestHeatmapSvg:
    def test_cell_rects_and_annotations(self):
        matrix = _small_matrix()
        svg = render_heatmap_svg(matrix).decode()
        # k*k positioned cells plus the legend bar carry an x attribute
        assert svg.count('<rect x="') == 2 * 2 + 1
        assert svg.count('text-anchor="middle"') == 4
        assert "1.00" in svg

    def test_undefined_cells_hatched(self):
        matrix = CorrelationMatrix(
            ("a", "b"),
            ((1.0, None), (None, 1.0)),
            ((3, 0), (0, 3)),
            "pearson",
        )
        svg = render_heatmap_svg(matrix).decode()
        assert svg.count('fill="url(#undef)"') == 2
        assert svg.count('text-anchor="middle"') == 2

    def test_annotation_contrast_follows_cell_darkness(self):
        matrix = CorrelationMatrix(
            ("a", "b"),
            ((1.0, 0.0), (0.0, 1.0)),
            ((3, 3), (3, 3)),
            "pearson",
        )
        svg = render_heatmap_svg(matrix).decode()
        annotations = {}
        for line in svg.splitlines():
            if 'text-anchor="middle"' in line:
                value = line.rsplit(">", 2)[-2].rstrip("</text")
                fill = line.split('fill="')[1].split('"')[0]
                annotations[value] = fill
        # the dark +1 anchor needs white text, the pale 0 cell dark text
        assert annotations["1.00"] == "#ffffff"
        assert annotations["0.00"] == "#111111"
        assert 'fill="#b2182b"' in svg

    def test_legend_present(self):
        svg = render_heatmap_svg(_small_matrix()).decode()
        assert 'url(#ramp)' in svg
        for tick in (">+1<", ">0<", ">-1<"):
            assert tick in svg

    def test_deterministic(self):
        matrix = _small_matrix()
        assert render_heatmap_svg(matrix) == render_heatmap_svg(matrix)

    def test_well_formed_xml(self):
        root = ET.fromstring(render_heatmap_svg(_small_matrix()))
        assert root.tag.endswith("svg")

    def test_labels_escaped(self):
        matrix = CorrelationMatrix(
            ("x & y", "z"),
            ((1.0, 0.5), (0.5, 1.0)),
            ((3, 3), (3, 3)),
            "pearson",
        )
        svg = render_heatmap_svg(matrix).decode()
        assert "x &amp; y" in svg
        ET.fromstring(svg)

    def test_empty_matrix(self):
        empty = CorrelationMatrix((), (), (), "pearson")
        with pytest.raises(EmptyMatrixError):
            render_heatmap_svg(empty)

    def test_style_precision(self):
        svg = render_heatmap_svg(_small_matrix()).decode()
        annotations = [line.rsplit(">", 2)[-2].removesuffix("</text")
                       for line in svg.splitlines() if 'text-anchor="middle"' in line]
        assert annotations and all(len(a.rpartition(".")[2]) == 2 for a in annotations)
