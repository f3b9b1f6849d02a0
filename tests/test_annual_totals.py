"""annual_totals and every corpus reader built on it, against the loops it replaced.

Each ``old_*`` function below is the per-reader loop as it stood before the
readers shared ``annual_totals``, kept verbatim apart from taking the
corpus as an argument and calling ``old_build_series``.  On random type
and region records (nulls, aggregates, shared ISO codes, duplicate
``(key, year)`` rows) the new readers must give ``==`` results when no
``(key, year)`` repeats, and agree within 1e-12 relative otherwise.  The
one intended difference is ``share_table``: the old loop kept the last of
duplicate ``(type, year)`` rows where every other reader summed them, so
with duplicates it is compared against the old loop run on the records
merged per ``(type, year)``.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclim.corpus import (
    BY_TYPE,
    Corpus,
    annual_totals,
    check_aggregate_consistency,
    series_from_mapping,
)
from disclim.errors import DataError
from disclim.metrics import (
    deaths_and_affected,
    overall_share,
    region_totals,
    share_table,
    shares_by_group,
)
from disclim.records import DisasterRecord, DisasterType, TypeRecord, parse_disaster_type

# -- the loops annual_totals replaced ----------------------------------------


def old_build_series(self, selector, measure: str):
    if isinstance(selector, str):
        parsed = parse_disaster_type(selector)
        selector = parsed if parsed is not None else selector
    by_year: dict[int, float] = {}
    if isinstance(selector, DisasterType):
        label = selector.display
        for rec in self.type_records:
            if rec.disaster_type is selector:
                value = rec.measures.get(measure)
                if value is not None:
                    by_year[rec.year] = by_year.get(rec.year, 0.0) + value
    else:
        label = selector.strip()
        matched = self._regions_matching(label.casefold())
        if not matched:
            raise DataError(f"unknown entity or disaster type {label!r}")
        for rec in matched:
            value = rec.measures.get(measure)
            if value is not None:
                by_year[rec.year] = by_year.get(rec.year, 0.0) + value
        label = matched[-1].entity
    if not by_year:
        known = self._known_measures(selector)
        raise DataError(
            f"no defined {measure!r} observations for {label!r}"
            + (f"; available measures: {', '.join(known)}" if known else "")
        )
    return series_from_mapping(label, by_year)


def old_check_aggregate_consistency(corpus: Corpus, measure: str, tol: float = 1e-9) -> list[str]:
    try:
        total = old_build_series(corpus, DisasterType.ALL_NATURAL_DISASTERS, measure)
    except DataError:
        return []
    parts = {}
    for t in DisasterType:
        if t.is_aggregate:
            continue
        try:
            parts[t] = old_build_series(corpus, t, measure)
        except DataError:
            continue
    problems = []
    for year, value in zip(total.years, total.values):
        summed = sum(p.get(year) or 0.0 for p in parts.values())
        if abs(summed - value) > tol:
            problems.append(
                f"{measure} {year}: aggregate {value!r} != sum of types {summed!r}"
            )
    return problems


def old_share_table(corpus: Corpus, measure: str = "count"):
    per_year: dict[int, dict[str, float]] = {}
    for rec in corpus.type_records:
        if rec.aggregate:
            continue
        value = rec.measures.get(measure)
        if value is None:
            continue
        per_year.setdefault(rec.year, {})[rec.disaster_type.display] = value
    if not per_year:
        raise DataError(f"no per-type {measure!r} observations in corpus")
    return shares_by_group(per_year)


def old_overall_share(corpus: Corpus, disaster_type: DisasterType, measure: str = "count"):
    totals: dict[DisasterType, float] = {}
    for rec in corpus.type_records:
        if rec.aggregate:
            continue
        value = rec.measures.get(measure)
        if value is not None:
            totals[rec.disaster_type] = totals.get(rec.disaster_type, 0.0) + value
    grand = sum(totals.values())
    if grand == 0:
        raise DataError(f"no nonzero {measure!r} observations in corpus")
    return totals.get(disaster_type, 0.0) / grand


def old_sunburst_inputs(corpus: Corpus) -> tuple[dict, dict]:
    deaths: dict[str, float] = {}
    affected: dict[str, float] = {}
    for rec in corpus.type_records:
        if rec.aggregate:
            continue
        label = rec.disaster_type.display
        for name, bucket in (("deaths", deaths), ("affected", affected)):
            value = rec.measures.get(name)
            if value is not None:
                bucket[label] = bucket.get(label, 0.0) + value
    return deaths, affected


def old_choropleth_inputs(corpus: Corpus, measure: str, year: int | None) -> dict[str, float]:
    values: dict[str, float] = {}
    entities: dict[str, str] = {}
    for rec in corpus.region_records:
        if rec.aggregate or (year is not None and rec.year != year):
            continue
        value = rec.measures.get(measure)
        if value is not None:
            key = rec.iso or rec.entity
            if entities.setdefault(key, rec.entity) != rec.entity:
                raise DataError(f"two entities map to {key}")
            values[key] = values.get(key, 0.0) + value
    if not values:
        where = "" if year is None else f" for year {year}"
        raise DataError(f"no {measure!r} values{where}")
    return values


# -- random corpora ----------------------------------------------------------

MEASURES = ("count", "deaths", "affected", "economic_damage")  # the last is never drawn
YEARS = (2000, 2001, 2002)
# "BBB" is an entity with no code and also another entity's code; "SUN" is
# shared by two entities; "Alpha" appears both with and without a code
ENTITIES = (("Alpha", "AAA"), ("Alpha", None), ("Beta", "BBB"), ("BBB", None),
            ("Russia", "SUN"), ("USSR", "SUN"), ("World", None))
SELECTORS = ("Alpha", " alpha ", "aaa", "bbb", "Beta", "sun", "USSR", "world", "Nowhere",
             "flood", "All natural disasters", "drought")

_values = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 3.0, 0.1, 0.7]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_measures = st.fixed_dictionaries({m: _values for m in MEASURES[:3]})
_type_records = st.lists(
    st.builds(TypeRecord, disaster_type=st.sampled_from(list(DisasterType)),
              year=st.sampled_from(YEARS), measures=_measures),
    max_size=14,
)
_region_records = st.lists(
    st.builds(lambda named, year, measures, aggregate: DisasterRecord(
        entity=named[0], iso=named[1], year=year, measures=measures, aggregate=aggregate),
        st.sampled_from(ENTITIES), st.sampled_from(YEARS), _measures, st.booleans()),
    max_size=14,
)


def _repeats(keys) -> bool:
    return any(n > 1 for n in Counter(keys).values())


def _merged(records, measure: str) -> Corpus:
    """The type records holding *measure*, merged per (type, year) in row order.

    Each merged record sits where its (type, year) first holds a value.
    """
    merged: dict = {}
    for rec in records:
        value = rec.measures.get(measure)
        if value is not None:
            key = (rec.disaster_type, rec.year)
            merged[key] = merged.get(key, 0.0) + value
    return Corpus(type_records=tuple(
        TypeRecord(disaster_type=t, year=y, measures={measure: v}) for (t, y), v in merged.items()
    ))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DataError as exc:
        return "raised", type(exc), str(exc)


def _close(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(math.isclose(a[k], b[k], rel_tol=1e-12) for k in a)


# -- tests -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_type_records, _region_records, st.sampled_from(MEASURES))
def test_annual_totals_sums_in_record_order(types, regions, measure):
    for records, key in ((types, BY_TYPE), (regions, lambda rec: (rec.iso, rec.entity))):
        expected: dict = {}
        for rec in records:
            value = rec.measures.get(measure)
            if value is not None:
                expected.setdefault(key(rec), {}).setdefault(rec.year, []).append(value)
        got = annual_totals(records, measure, key)
        assert list(got) == list(expected)  # groups in order of first defined value
        for group, by_year in expected.items():
            assert list(got[group]) == list(by_year)
            for year, values in by_year.items():
                total = 0.0
                for value in values:
                    total += value
                assert got[group][year] == total


def _counts(*pairs) -> list[TypeRecord]:
    return [TypeRecord(disaster_type=t, year=2000, measures={"count": v}) for t, v in pairs]


@settings(max_examples=300, deadline=None)
@given(_type_records, _region_records, st.sampled_from(MEASURES))
# the types summed in record order would give 1e16 + 2, in enum order 1e16
@example(_counts((DisasterType.FLOOD, 1.0), (DisasterType.DROUGHT, 1.0),
                 (DisasterType.EARTHQUAKE, 1e16), (DisasterType.ALL_NATURAL_DISASTERS, 0.0)),
         [], "count")
def test_series_and_consistency_match_the_old_loops(types, regions, measure):
    # build_series sums its matched records in the order the old loop did,
    # so it is == even with duplicate rows
    corpus = Corpus(region_records=tuple(regions), type_records=tuple(types))
    for selector in SELECTORS + tuple(DisasterType):
        assert _outcome(corpus.build_series, selector, measure) == \
            _outcome(old_build_series, corpus, selector, measure)
    assert check_aggregate_consistency(corpus, measure) == \
        old_check_aggregate_consistency(corpus, measure)


@settings(max_examples=300, deadline=None)
@given(_type_records, st.sampled_from(MEASURES))
def test_type_readers_match_the_old_loops(types, measure):
    corpus = Corpus(type_records=tuple(types))
    merged = _merged(types, measure)
    repeats = _repeats((rec.disaster_type, rec.year) for rec in types if not rec.aggregate)

    # share_table now sums duplicate rows, as the old loop did on merged rows
    assert _outcome(share_table, corpus, measure) == _outcome(old_share_table, merged, measure)
    if not repeats:
        assert _outcome(share_table, corpus, measure) == \
            _outcome(old_share_table, corpus, measure)

    for t in DisasterType:
        got = _outcome(overall_share, corpus, t, measure)
        old = _outcome(old_overall_share, corpus, t, measure)
        assert got == _outcome(old_overall_share, merged, t, measure)
        if repeats and got[0] == old[0] == "ok":
            assert math.isclose(got[1], old[1], rel_tol=1e-12)
        else:
            assert got == old

    got, old = deaths_and_affected(corpus), old_sunburst_inputs(corpus)
    assert got == (old_sunburst_inputs(_merged(types, "deaths"))[0],
                   old_sunburst_inputs(_merged(types, "affected"))[1])
    assert all(map(_close, got, old)) if repeats else got == old


@settings(max_examples=300, deadline=None)
@given(_region_records, st.sampled_from(MEASURES), st.sampled_from((None,) + YEARS))
def test_region_totals_match_the_old_loop(regions, measure, year):
    corpus = Corpus(region_records=tuple(regions))
    got = _outcome(region_totals, corpus, measure, year)
    if not regions:  # the oracle has no check of its own for an empty region table
        assert got == ("raised", DataError, "corpus has no region records")
        return
    old = _outcome(old_choropleth_inputs, corpus, measure, year)
    repeats = _repeats((rec.iso or rec.entity, rec.year) for rec in regions if not rec.aggregate)
    if repeats and got[0] == old[0] == "ok":
        assert _close(got[1], old[1])
    else:
        assert got == old


def test_sweep_reaches_every_case():
    # the comparisons above only mean something if the records hold nulls,
    # aggregates, duplicate rows, shared codes and both reader outcomes
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(_type_records, _region_records, st.sampled_from(MEASURES[:3]))
    def sweep(types, regions, measure):
        values = [rec.measures[measure] for rec in (*types, *regions)]
        seen.add(("null", None in values))
        seen.add(("type aggregate", any(rec.aggregate for rec in types)))
        seen.add(("region aggregate", any(rec.aggregate for rec in regions)))
        seen.add(("type repeat", _repeats((rec.disaster_type, rec.year) for rec in types)))
        seen.add(("region repeat", _repeats((rec.iso or rec.entity, rec.year)
                                            for rec in regions if not rec.aggregate)))
        corpus = Corpus(region_records=tuple(regions), type_records=tuple(types))
        seen.add(("share", _outcome(share_table, corpus, measure)[0]))
        outcome = _outcome(region_totals, corpus, measure, None)
        seen.add(("map", outcome[0] if outcome[0] == "ok" else outcome[2].split()[0]))
        seen.add(("problems", bool(check_aggregate_consistency(corpus, measure))))

    sweep()
    for case in ("null", "type aggregate", "region aggregate", "type repeat", "region repeat",
                 "problems"):
        assert (case, True) in seen, case
    assert {("share", "ok"), ("share", "raised"),
            ("map", "ok"), ("map", "two"), ("map", "no")} <= seen
