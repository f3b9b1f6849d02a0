"""Seeded source tables for the in-process workloads (stdlib only).

``generate(seed, code_table_path)`` returns the three delimited sources as
bytes plus the facts the benchmark checks disclim's outputs against.  The
same seed always gives the same bytes.  disclim receives only these bytes;
nothing here imports it.

Why the region table looks the way it does:

* 190 coded entities (every non-aggregate row of the package's ISO table)
  with start years staggered from 1870 to 2019, so series lengths and the
  pairwise-complete n of matrix cells vary.
* Exactly ``REGION_ROWS`` rows whatever the seed (about 5% of entity-years
  are dropped to get there), so run-to-run timings do not follow the seed.
* Entities that have aliases are written under an alias for their early
  years, so ISO normalisation has names to resolve and merge.
* A few names the ISO table does not know, so ``isocodes.unresolved`` > 0
  and the unresolved path keeps its cost in the measurement.
* Integer deaths with about 40% zero years, so Spearman takes its rank route
  and Kendall tau-b its tie correction.
* A sparse measure (internally displaced, about 45% null) above the 30%
  null threshold, so measure exclusion runs on every build.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

FIRST_YEAR = 1870
LAST_YEAR = 2019
REGION_ROWS = 18_000
ZERO_DEATH_SHARE = 0.40
DEATHS_NULL_SHARE = 0.02
SPARSE_NULL_SHARE = 0.45
UNRESOLVED = (("Atlantis", "XAT"), ("Lemuria", "XLM"), ("Zubrowka", "XZB"))
TYPES = (
    "Drought", "Earthquake", "Extreme temperature", "Extreme weather",
    "Flood", "Landslide", "Volcanic activity", "Wildfire",
)
REGION_HEADER = ("ENTITY", "CODE", "YEAR", "DEATHS", "DEATH_RATE",
                 "INTERNALLY_DISPLACED_POPULATION")


@dataclass(frozen=True)
class Sources:
    region: bytes
    types: bytes
    anomaly: bytes
    rows: dict[str, int]                   # source kind -> data rows
    region_nulls: dict[str, int]           # region column -> null cells
    excluded: list[str]                    # canonical region measures past the threshold
    deaths: dict[str, dict[int, float]]    # canonical entity -> year -> deaths (non-null)
    codes: dict[str, str]                  # canonical entity -> ISO code
    anomaly_by_year: dict[int, float]      # annual mean, summed in file order
    unresolved: tuple[str, ...]


def read_code_table(path: str) -> list[tuple[str, str, list[str]]]:
    """(canonical, code, aliases) for each non-aggregate row of the ISO table."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    return [
        (r["canonical"], r["code"], [a for a in r["aliases"].split(";") if a])
        for r in rows
        if r["aggregate"] != "true" and r["code"]
    ]


def _csv_bytes(header, rows) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def _anomaly(rng: random.Random) -> tuple[bytes, int, dict[int, float]]:
    rows, by_year = [], {}
    for year in range(FIRST_YEAR, LAST_YEAR + 1):
        trend = (year - FIRST_YEAR) / (LAST_YEAR - FIRST_YEAR) * 1.1 - 0.3
        total = 0.0
        for month in range(1, 13):
            cell = f"{trend + rng.gauss(0.0, 0.12):.4f}"
            total += float(cell)
            rows.append((f"{year}-{month:02d}", cell))
        by_year[year] = total / 12
    return _csv_bytes(("DATE", "TEMPERATURE_ANOMALY"), rows), len(rows), by_year


def _types(rng: random.Random, anomaly_by_year: dict[int, float]) -> tuple[bytes, int]:
    starts = {t: rng.randint(1900, 1960) for t in TYPES}
    rows = []
    for year in range(1900, LAST_YEAR + 1):
        totals = [0, 0, 0]
        for t in TYPES:
            if year < starts[t]:
                continue
            lift = 1.0 + max(anomaly_by_year[year], 0.0)
            cells = [int(rng.expovariate(1 / (8 * lift))), int(rng.expovariate(1 / 900)),
                     int(rng.expovariate(1 / 5e7))]
            totals = [a + b for a, b in zip(totals, cells)]
            rows.append((t, f"{year}-01-01", *cells))
        rows.append(("All natural disasters", f"{year}-01-01", *totals))
    return _csv_bytes(("ENTITY", "YEAR", "OCCURRENCES", "DEATHS", "ECONOMIC_DAMAGE"), rows), len(rows)


def generate(seed: int, code_table_path: str) -> Sources:
    rng = random.Random(seed)
    anomaly, anomaly_rows, anomaly_by_year = _anomaly(rng)
    types, type_rows = _types(rng, anomaly_by_year)

    entities = read_code_table(code_table_path) + [(name, code, []) for name, code in UNRESOLVED]
    # one fixed multiset of start years, dealt out by the seed: the grid has
    # the same size for every seed, about 5% above REGION_ROWS
    span = LAST_YEAR - FIRST_YEAR
    starts = [FIRST_YEAR + int(span * (k / (len(entities) - 1)) ** 1.9)
              for k in range(len(entities))]
    rng.shuffle(starts)
    grid = []
    for (canonical, code, aliases), start in zip(entities, starts):
        alias_until = start + (LAST_YEAR - start) // 3 if aliases else start - 1
        for year in range(start, LAST_YEAR + 1):
            written = rng.choice(aliases) if year <= alias_until else canonical
            grid.append((canonical, code, year, written))
    if len(grid) < REGION_ROWS:
        raise RuntimeError(f"grid of {len(grid)} rows is below {REGION_ROWS}")
    keep = sorted(rng.sample(range(len(grid)), REGION_ROWS))

    rows = []
    nulls = {name: 0 for name in REGION_HEADER}
    deaths: dict[str, dict[int, float]] = {}
    for index in keep:
        canonical, code, year, written = grid[index]
        scale = rng.choice((4, 15, 60))
        if rng.random() < DEATHS_NULL_SHARE:
            count = rate = ""
            nulls["DEATHS"] += 1
            nulls["DEATH_RATE"] += 1
        else:
            value = 0 if rng.random() < ZERO_DEATH_SHARE else 1 + int(rng.expovariate(1 / scale))
            count, rate = str(value), f"{value / 3.7:.6f}"
            deaths.setdefault(canonical, {})[year] = float(value)
        if rng.random() < SPARSE_NULL_SHARE:
            displaced = ""
            nulls["INTERNALLY_DISPLACED_POPULATION"] += 1
        else:
            displaced = str(int(rng.expovariate(1 / 4000)))
        rows.append((written, code, f"{year}-01-01", count, rate, displaced))

    excluded = []
    for column, measure in (("DEATHS", "deaths"), ("DEATH_RATE", "death_rate"),
                            ("INTERNALLY_DISPLACED_POPULATION", "internally_displaced")):
        if nulls[column] / REGION_ROWS >= 0.30:
            excluded.append(measure)
    return Sources(
        region=_csv_bytes(REGION_HEADER, rows),
        types=types,
        anomaly=anomaly,
        rows={"region": REGION_ROWS, "disaster-type": type_rows, "anomaly": anomaly_rows},
        region_nulls=nulls,
        excluded=excluded,
        deaths=deaths,
        codes={canonical: code for canonical, code, _ in entities},
        anomaly_by_year=anomaly_by_year,
        unresolved=tuple(name for name, _ in UNRESOLVED),
    )
