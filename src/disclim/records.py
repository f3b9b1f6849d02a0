"""Typed records for the two disaster tables and the anomaly table.

Measures are kept as ``name -> float | None`` mappings so that nulls stay
first-class: a missing count is ``None``, never a sentinel zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DataError

YEAR_MIN = 1850
YEAR_MAX = 2100

#: Canonical measure names, in presentation order.  ``count`` is the annual
#: number of recorded events; the rest mirror the source columns.
MEASURES = (
    "count",
    "deaths",
    "death_rate",
    "percentage_share_deaths",
    "internally_displaced",
    "affected",
    "homeless",
    "injured",
    "economic_damage",
    "gdp_loss_share",
    "news_coverage_share",
)


class DisasterType(enum.Enum):
    """The closed set of disaster types, plus the all-types aggregate."""

    FLOOD = "Flood"
    EARTHQUAKE = "Earthquake"
    DROUGHT = "Drought"
    LANDSLIDE = "Landslide"
    VOLCANIC_ACTIVITY = "Volcanic activity"
    WILDFIRE = "Wildfire"
    EXTREME_TEMPERATURE = "Extreme temperature"
    EXTREME_WEATHER = "Extreme weather"
    ALL_NATURAL_DISASTERS = "All natural disasters"

    @property
    def display(self) -> str:
        return self.value

    @property
    def is_aggregate(self) -> bool:
        return self is DisasterType.ALL_NATURAL_DISASTERS


_TYPE_LOOKUP = {t.value.lower(): t for t in DisasterType}
# slug forms used on the command line: "volcanic-activity", "all-disasters"
_TYPE_LOOKUP.update({t.value.lower().replace(" ", "-"): t for t in DisasterType})
_TYPE_LOOKUP["all-disasters"] = DisasterType.ALL_NATURAL_DISASTERS


def parse_disaster_type(name: str) -> DisasterType | None:
    """Resolve a display name or CLI slug to a DisasterType, or None."""
    return _TYPE_LOOKUP.get(name.strip().lower())


def _check_year(year: int) -> None:
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise DataError(f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")


def _check_measures(measures: dict[str, float | None]) -> None:
    for name, value in measures.items():
        if value is None:
            continue
        if not math.isfinite(value):
            raise DataError(f"measure {name!r} is not finite: {value!r}")
        if value < 0:
            raise DataError(f"measure {name!r} is negative: {value!r}")


@dataclass(frozen=True)
class DisasterRecord:
    """One (entity, year) row of losses from the by-region table."""

    entity: str
    iso: str | None
    year: int
    measures: dict[str, float | None]
    aggregate: bool = False

    def __post_init__(self):
        _check_year(self.year)
        _check_measures(self.measures)


@dataclass(frozen=True)
class TypeRecord:
    """One (disaster type, year) row of losses from the by-type table."""

    disaster_type: DisasterType
    year: int
    measures: dict[str, float | None]

    def __post_init__(self):
        _check_year(self.year)
        _check_measures(self.measures)

    @property
    def aggregate(self) -> bool:
        return self.disaster_type.is_aggregate


@dataclass(frozen=True)
class AnomalyRecord:
    """One observation of global temperature deviation from the source baseline."""

    year: int
    anomaly: float
    month: int | None = None

    def __post_init__(self):
        _check_year(self.year)
        if self.month is not None and not 1 <= self.month <= 12:
            raise DataError(f"month {self.month} outside 1..12")
        if not math.isfinite(self.anomaly) or abs(self.anomaly) >= 10:
            raise DataError(f"implausible anomaly value: {self.anomaly!r}")


@dataclass(frozen=True)
class NullReport:
    """Per-column null counts from one coercion pass."""

    rows: int
    null_counts: dict[str, int] = field(default_factory=dict)

    def fraction(self, column: str) -> float:
        if self.rows == 0:
            return 0.0
        return self.null_counts.get(column, 0) / self.rows

    def render_text(self, title: str = "null report") -> str:
        lines = [f"{title}: {self.rows} rows"]
        for column in sorted(self.null_counts):
            count = self.null_counts[column]
            lines.append(f"  {column}: {count} nulls ({self.fraction(column):.1%})")
        if not self.null_counts:
            lines.append("  no nulls")
        return "\n".join(lines)
