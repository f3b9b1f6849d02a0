"""Renderer-agnostic chart documents, plus a direct SVG heatmap.

A chart document is a canonical JSON text (sorted keys, two-space indent,
shortest round-trip numbers) so identical inputs always serialize to
identical bytes.  Actual plotting is someone else's job; the heatmap is
the one exception because the matrix figure is self-contained enough to
emit as standalone SVG.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from dataclasses import dataclass

from .corpus import JoinedTable
from .errors import DataError
from .isocodes import CODE_RE
from .metrics import ShareTable, SunburstNode
from .stats import CorrelationMatrix


class ChartKind(enum.Enum):
    TIME_SERIES = "timeseries"
    DUAL_AXIS = "dualaxis"
    STACKED_AREA = "stackedarea"
    SUNBURST = "sunburst"
    CHOROPLETH = "choropleth"
    HEATMAP = "heatmap"


def parse_chart_kind(name: str) -> ChartKind:
    try:
        return ChartKind(name)
    except ValueError:
        raise DataError(f"unknown chart kind {name!r}") from None


@dataclass(frozen=True)
class ChartDocument:
    kind: ChartKind
    title: str
    axes: dict
    payload: dict

    def to_text(self) -> str:
        doc = {
            "kind": self.kind.value,
            "title": self.title,
            "axes": self.axes,
            "payload": self.payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

    def to_bytes(self) -> bytes:
        return self.to_text().encode("utf-8")


def _series_payload(data) -> dict:
    if not isinstance(data, JoinedTable):
        raise DataError(f"expected a JoinedTable, got {type(data).__name__}")
    if len(set(data.labels)) != len(data.labels):
        raise DataError("series labels are not unique")
    return {
        "years": list(data.years),
        "series": [
            {"label": label, "values": list(column)}
            for label, column in zip(data.labels, data.columns)
        ],
    }


def _timeseries(data, title) -> ChartDocument:
    return ChartDocument(
        kind=ChartKind.TIME_SERIES,
        title=title or "Time series",
        axes={"x": "year", "y": ""},
        payload=_series_payload(data),
    )


def _dualaxis(data, title) -> ChartDocument:
    payload = _series_payload(data)
    if len(data.labels) != 2:
        raise DataError(f"dual-axis needs exactly 2 series, got {len(data.labels)}")
    primary, secondary = data.labels
    return ChartDocument(
        kind=ChartKind.DUAL_AXIS,
        title=title or f"{primary} vs {secondary}",
        axes={"x": "year", "left": primary, "right": secondary},
        payload=payload,
    )


def _stackedarea(data, title) -> ChartDocument:
    if not isinstance(data, ShareTable):
        raise DataError(f"stacked area needs a ShareTable, got {type(data).__name__}")
    return ChartDocument(
        kind=ChartKind.STACKED_AREA,
        title=title or "Share of total by year",
        axes={"x": "year", "y": "share of total"},
        payload={
            "years": list(data.years),
            "labels": list(data.labels),
            "shares": [[data.shares[y][label] for label in data.labels] for y in data.years],
            "zero_total_years": sorted(data.zero_total_years),
        },
    )


def _sunburst_node(node: SunburstNode) -> dict:
    return {
        "label": node.label,
        "value": node.value,
        "children": [_sunburst_node(c) for c in node.children],
    }


def _sunburst(data, title) -> ChartDocument:
    if not isinstance(data, SunburstNode):
        raise DataError(f"sunburst needs a SunburstNode, got {type(data).__name__}")
    return ChartDocument(
        kind=ChartKind.SUNBURST,
        title=title or "Hierarchy",
        axes={},
        payload=_sunburst_node(data),
    )


def _choropleth(data, title) -> ChartDocument:
    if not isinstance(data, Mapping):
        raise DataError(f"choropleth needs a code->value mapping, got {type(data).__name__}")
    keys = sorted(data)
    missing = [key for key in keys if not CODE_RE.match(key)]
    if missing:
        raise DataError(f"entities without ISO codes: {', '.join(missing)}")
    return ChartDocument(
        kind=ChartKind.CHOROPLETH,
        title=title or "World map values",
        axes={"key": "ISO 3166-1 alpha-3"},
        payload={"values": {code: float(data[code]) for code in keys}},
    )


def _heatmap(data, title) -> ChartDocument:
    if not isinstance(data, CorrelationMatrix):
        raise DataError(f"heatmap needs a CorrelationMatrix, got {type(data).__name__}")
    return ChartDocument(
        kind=ChartKind.HEATMAP,
        title=title or f"{data.method} correlation",
        axes={"rows": "series", "columns": "series"},
        payload={
            "labels": list(data.labels),
            "method": data.method,
            "values": [list(row) for row in data.values],
        },
    )


_EMITTERS = {
    ChartKind.TIME_SERIES: _timeseries,
    ChartKind.DUAL_AXIS: _dualaxis,
    ChartKind.STACKED_AREA: _stackedarea,
    ChartKind.SUNBURST: _sunburst,
    ChartKind.CHOROPLETH: _choropleth,
    ChartKind.HEATMAP: _heatmap,
}


def emit_chart(kind: ChartKind | str, data, title: str | None = None) -> ChartDocument:
    """Build the document for *kind*; inputs must match the kind's schema.

    A time series or dual-axis chart takes a ``JoinedTable``, and a
    dual-axis chart's right-hand series is its second column.  A choropleth
    takes a mapping keyed by ISO alpha-3 code only; any other key raises
    DataError.  There are no options.
    """
    if isinstance(kind, str):
        kind = parse_chart_kind(kind)
    return _EMITTERS[kind](data, title)


# -- heatmap SVG -------------------------------------------------------------


# the diverging ramp's colours at -1, 0 and +1, and a cell's side in pixels
_NEGATIVE, _NEUTRAL, _POSITIVE = "#2166ac", "#f7f7f7", "#b2182b"
_CELL = 52


def ramp_position(value: float) -> float:
    """Map a coefficient in [-1, 1] to [0, 1], strictly increasing."""
    if not -1.0 <= value <= 1.0:
        raise DataError(f"coefficient out of range: {value!r}")
    return (value + 1.0) / 2.0


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    return tuple(int(color[i : i + 2], 16) for i in (1, 3, 5))  # type: ignore[return-value]


def _rgb_to_hex(rgb: tuple[int, int, int]) -> str:
    return "#%02x%02x%02x" % rgb


_RAMP_ENDS = tuple(_hex_to_rgb(c) for c in (_NEGATIVE, _NEUTRAL, _POSITIVE))


def _ramp_rgb(value: float) -> tuple[int, int, int]:
    """The rounded fill RGB for a coefficient: linear in each half of the ramp."""
    ramp_position(value)  # bounds check
    negative, neutral, positive = _RAMP_ENDS
    a, b, t = (negative, neutral, value + 1.0) if value < 0 else (neutral, positive, value)
    return tuple(int(round(a[i] + (b[i] - a[i]) * t)) for i in range(3))  # type: ignore[return-value]


def _luminance(rgb: tuple[int, int, int]) -> float:
    r, g, b = rgb
    return 0.2126 * r + 0.7152 * g + 0.0722 * b


def render_heatmap_svg(matrix: CorrelationMatrix) -> bytes:
    """Standalone SVG: one annotated cell per pair, hatch for undefined."""
    if matrix.size == 0:
        raise DataError("matrix has no series")
    k = matrix.size
    cell = _CELL
    left, top = 190, 150
    legend_w, pad = 60, 20
    width = left + k * cell + legend_w + pad
    height = top + k * cell + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs>",
        '<pattern id="undef" width="8" height="8" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<rect width="8" height="8" fill="#ececec"/>'
        '<line x1="0" y1="0" x2="0" y2="8" stroke="#9a9a9a" stroke-width="2"/>'
        "</pattern>",
        '<linearGradient id="ramp" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{_NEGATIVE}"/>'
        f'<stop offset="0.5" stop-color="{_NEUTRAL}"/>'
        f'<stop offset="1" stop-color="{_POSITIVE}"/>'
        "</linearGradient>",
        "</defs>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="16" '
        f'fill="#111111">{_escape(matrix.method)} correlation</text>',
    ]

    for j, label in enumerate(matrix.labels):
        x = left + j * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{top - 8}" font-family="sans-serif" font-size="11" '
            f'fill="#111111" text-anchor="start" '
            f'transform="rotate(-55 {x} {top - 8})">{_escape(label)}</text>'
        )
    for i, label in enumerate(matrix.labels):
        y = top + i * cell + cell // 2 + 4
        parts.append(
            f'<text x="{left - 8}" y="{y}" font-family="sans-serif" font-size="11" '
            f'fill="#111111" text-anchor="end">{_escape(label)}</text>'
        )

    # the matrix is symmetric: style each unordered pair once, for both cells
    styles = {}
    for i in range(k):
        for j in range(i, k):
            value = matrix.values[i][j]
            if value is not None:
                rgb = _ramp_rgb(value)
                text_fill = "#111111" if _luminance(rgb) > 140 else "#ffffff"
                styles[i, j] = styles[j, i] = (_rgb_to_hex(rgb), text_fill, f"{value:.2f}")

    for i in range(k):
        for j in range(k):
            x = left + j * cell
            y = top + i * cell
            style = styles.get((i, j))
            if style is None:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                    f'fill="url(#undef)" stroke="#ffffff"/>'
                )
                continue
            fill, text_fill, label = style
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'font-family="sans-serif" font-size="11" fill="{text_fill}" '
                f'text-anchor="middle">{label}</text>'
            )

    bar_x = left + k * cell + pad
    bar_h = k * cell
    parts.append(
        f'<rect x="{bar_x}" y="{top}" width="16" height="{bar_h}" fill="url(#ramp)" '
        f'stroke="#cccccc"/>'
    )
    for tick, frac in (("+1", 0.0), ("0", 0.5), ("-1", 1.0)):
        y = top + int(bar_h * frac)
        parts.append(
            f'<text x="{bar_x + 22}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11" fill="#111111">{tick}</text>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
