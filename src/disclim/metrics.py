"""Derived quantities: share-of-total tables, the deaths-within-affected
hierarchy, news-coverage intensity, and the per-type and per-region
totals behind the sunburst and choropleth.

Corpus readers take every sum from `corpus.annual_totals`; the rest are
pure functions over plain mappings.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .corpus import BY_TYPE, Corpus, annual_totals
from .errors import DataError, NegativeValueError
from .records import DisasterType

SHARE_SUM_TOL = 1e-9


def share_of_total(values: Mapping[str, float]) -> dict[str, float]:
    """Each label's fraction of the total; zero total yields all zeros."""
    for label, value in values.items():
        if value < 0:
            raise NegativeValueError(f"negative count for {label!r}: {value!r}")
    total = sum(values.values())
    if total == 0:
        return {label: 0.0 for label in values}
    return {label: value / total for label, value in values.items()}


@dataclass(frozen=True)
class ShareTable:
    """Per-year share of total for a fixed label set.

    Years whose total is zero carry all-zero shares and are flagged in
    ``zero_total_years`` instead of being dropped, so a stacked-area
    x-axis stays contiguous.
    """

    labels: tuple[str, ...]
    years: tuple[int, ...]
    shares: dict[int, dict[str, float]]
    zero_total_years: frozenset[int]

    def __post_init__(self):
        for year in self.years:
            row = self.shares[year]
            total = 0.0
            for label in self.labels:
                share = row[label]
                if share < 0:
                    raise NegativeValueError(f"{year}/{label}: negative share")
                total += share
            if year in self.zero_total_years:
                if total != 0.0:
                    raise DataError(f"{year}: flagged zero-total year has nonzero shares")
            elif abs(total - 1.0) > SHARE_SUM_TOL:
                raise DataError(f"{year}: shares sum to {total!r}, not 1")

    def row(self, year: int) -> dict[str, float]:
        return dict(self.shares[year])


def shares_by_group(per_year: Mapping[int, Mapping[str, float]]) -> ShareTable:
    """Normalize per-year counts to shares of the yearly total."""
    labels: set[str] = set()
    for counts in per_year.values():
        labels.update(counts)
    ordered = tuple(sorted(labels))
    years = tuple(sorted(per_year))
    shares: dict[int, dict[str, float]] = {}
    zero_years = set()
    for year in years:
        counts = {label: float(per_year[year].get(label, 0.0)) for label in ordered}
        normalized = share_of_total(counts)
        if sum(counts.values()) == 0:
            zero_years.add(year)
        shares[year] = normalized
    return ShareTable(
        labels=ordered, years=years, shares=shares, zero_total_years=frozenset(zero_years)
    )


def share_table(corpus: Corpus, measure: str = "count") -> ShareTable:
    """Per-year, per-type shares of *measure*, excluding the aggregate row."""
    per_year: dict[int, dict[str, float]] = {}
    for t, by_year in annual_totals(corpus.type_records, measure, BY_TYPE).items():
        if not t.is_aggregate:
            for year, total in by_year.items():
                per_year.setdefault(year, {})[t.display] = total
    if not per_year:
        raise DataError(f"no per-type {measure!r} observations in corpus")
    return shares_by_group(per_year)


def _type_totals(corpus: Corpus, measure: str) -> dict[str, float]:
    """All-years totals of *measure* by type display name, the aggregate left out."""
    by_type = annual_totals(corpus.type_records, measure, BY_TYPE)
    return {t.display: sum(years.values()) for t, years in by_type.items() if not t.is_aggregate}


def overall_share(corpus: Corpus, disaster_type: DisasterType, measure: str = "count") -> float:
    """One type's fraction of the all-years, all-types total of *measure*."""
    totals = _type_totals(corpus, measure)
    grand = sum(totals.values())
    if grand == 0:
        raise DataError(f"no nonzero {measure!r} observations in corpus")
    return totals.get(disaster_type.display, 0.0) / grand


def deaths_and_affected(corpus: Corpus) -> tuple[dict[str, float], dict[str, float]]:
    """All-years deaths and affected totals per type: the sunburst's inputs."""
    return _type_totals(corpus, "deaths"), _type_totals(corpus, "affected")


def region_totals(corpus: Corpus, measure: str, year: int | None = None) -> dict[str, float]:
    """Per-region totals of *measure*, over all years or one: the choropleth's input.

    Keyed by ISO code, or by name for a region without one, which the
    choropleth then reports as missing; aggregate rows are left out, and two
    entity names sharing one code raise DataError, as does a corpus with no
    region records.
    """
    if not corpus.region_records:
        raise DataError("corpus has no region records")
    records = [rec for rec in corpus.region_records
               if not rec.aggregate and (year is None or rec.year == year)]
    values: dict[str, float] = {}
    by_region = annual_totals(records, measure, lambda rec: (rec.iso or rec.entity, rec.entity))
    for (key, _entity), by_year in by_region.items():
        if key in values:  # each (key, entity) is one group, so this is a second entity
            raise DataError(f"two entities map to {key}")
        values[key] = sum(by_year.values())
    if not values:
        where = "" if year is None else f" for year {year}"
        raise DataError(f"no {measure!r} values{where}")
    return values


@dataclass(frozen=True)
class SunburstNode:
    """One ring segment: a label, a nonnegative value, nested children."""

    label: str
    value: float
    children: tuple["SunburstNode", ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DataError(f"{self.label}: non-finite value")
        if self.value < 0:
            raise NegativeValueError(f"{self.label}: negative value")


def sunburst_deaths_affected(
    deaths: Mapping[str, float], affected: Mapping[str, float]
) -> tuple[SunburstNode, list[str]]:
    """Nest each type's deaths inside its affected count, under one root.

    Types where deaths exceed affected are kept as-is and reported in the
    warnings list; the data is never clamped to fit the ring.
    """
    labels = sorted(set(deaths) | set(affected))
    warnings: list[str] = []
    children = []
    for label in labels:
        d = float(deaths.get(label, 0.0))
        a = float(affected.get(label, 0.0))
        if d == 0.0 and a == 0.0:
            continue
        if d > a:
            warnings.append(f"{label}: deaths {d:g} exceed affected {a:g}")
        children.append(
            SunburstNode(label=label, value=a, children=(SunburstNode("deaths", d),))
        )
    root = SunburstNode(
        label="All natural disasters",
        value=sum(c.value for c in children),
        children=tuple(children),
    )
    if not children:
        warnings.append("all values are zero; tree is empty")
    return root, warnings


@dataclass(frozen=True)
class NewsIntensity:
    """How many deaths a type needs per unit of coverage share.

    ``deaths_per_story`` is None (and ``covered`` False) when the type has
    zero coverage share, which makes the intensity undefined rather than
    infinite.
    """

    label: str
    deaths_per_story: float | None
    coverage_share: float

    @property
    def covered(self) -> bool:
        return self.deaths_per_story is not None


def news_intensity(
    deaths: Mapping[str, float], coverage_share: Mapping[str, float]
) -> list[NewsIntensity]:
    """Rank types by deaths needed per coverage point, most ignored first.

    Coverage shares are percentages and must not exceed 100 in total.
    Zero-coverage types sort to the end, flagged undefined.
    """
    labels = sorted(set(deaths) | set(coverage_share))
    total_share = 0.0
    entries = []
    for label in labels:
        d = float(deaths.get(label, 0.0))
        share = float(coverage_share.get(label, 0.0))
        if d < 0:
            raise NegativeValueError(f"{label}: negative deaths")
        if share < 0:
            raise NegativeValueError(f"{label}: negative coverage share")
        total_share += share
        per_story = d / share if share > 0 else None
        entries.append(NewsIntensity(label=label, deaths_per_story=per_story, coverage_share=share))
    if total_share > 100.0 + SHARE_SUM_TOL:
        raise DataError(f"coverage shares sum to {total_share!r}%, past 100%")
    entries.sort(
        key=lambda e: (e.deaths_per_story is None, -(e.deaths_per_story or 0.0), e.label)
    )
    return entries


def intensity_ratio(a: NewsIntensity, b: NewsIntensity) -> float:
    """How many of a's deaths match one of b's in newsworthiness."""
    if a.deaths_per_story is None or b.deaths_per_story is None:
        raise DataError("intensity undefined for uncovered type")
    if b.deaths_per_story == 0:
        raise DataError(f"{b.label}: zero intensity, ratio undefined")
    return a.deaths_per_story / b.deaths_per_story
