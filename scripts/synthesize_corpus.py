"""Regenerate the bundled corpus snapshot under src/disclim/data/bundled/.

The snapshot is synthetic but statistically calibrated: the anomaly series
follows the observed shape of the global record (slow drift plus a
post-1975 rise), and the all-disasters occurrence and damage series are
constructed so their Pearson correlation with the annualized anomaly hits
the published targets.  Run from the repository root:

    python3 scripts/synthesize_corpus.py

Deterministic: fixed seeds, no timestamps.  Asserts every calibration
target before writing, and prints the achieved numbers.
"""

from __future__ import annotations

import csv
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from disclim import pearson  # noqa: E402
from disclim.isocodes import NormalizedEntity  # noqa: E402

OUT = REPO / "src" / "disclim" / "data" / "bundled"

TARGET_OCCURRENCE_R = 0.865128
TARGET_DAMAGE_R = 0.647406
TARGET_FLOOD_SHARE = 0.43

ANOMALY_YEARS = range(1880, 2016)       # monthly rows 1880-01 .. 2015-12
TYPE_YEARS = range(1900, 2017)          # 117 years for the long-running types
REGION_YEARS = range(1980, 2017)        # 37 years

# First reporting year per type; chosen so the row count matches the
# published table size (117*3 + 114 + 91 + 64 + 53 + 44 + 40 = 757).
TYPE_START = {
    "All natural disasters": 1900,
    "Flood": 1900,
    "Earthquake": 1900,
    "Drought": 1903,
    "Extreme weather": 1926,
    "Extreme temperature": 1953,
    "Landslide": 1964,
    "Volcanic activity": 1973,
    "Wildfire": 1977,
}

# Static split weights; flood gets a ramp on top (solved below) so its
# overall share of events lands on the target.
BASE_WEIGHTS = {
    "Earthquake": 0.20,
    "Drought": 0.10,
    "Extreme weather": 0.12,
    "Extreme temperature": 0.06,
    "Landslide": 0.05,
    "Volcanic activity": 0.03,
    "Wildfire": 0.04,
}

# Countries that report from 1981 only, trimming the region table to the
# published 6469 rows (175*37 - 6).
LATE_REPORTERS = {"Armenia", "Azerbaijan", "Belarus", "Estonia", "Latvia", "Lithuania"}

# Microstates left out of the region snapshot (175 of the 190 coded names).
SKIPPED_MICROSTATES = {
    "Antigua and Barbuda", "Dominica", "Grenada", "Kiribati", "Marshall Islands",
    "Micronesia", "Nauru", "Palau", "Saint Kitts and Nevis", "Saint Lucia",
    "Saint Vincent and the Grenadines", "Samoa", "Sao Tome and Principe",
    "Tonga", "Tuvalu",
}


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def monthly_anomaly(rng) -> list[tuple[str, float]]:
    """GISTEMP-shaped monthly series: drift + late rise + AR(1) noise."""
    years = np.asarray(ANOMALY_YEARS)
    trend = -0.25 + 0.0009 * (years - 1880) + 0.35 * sigmoid((years - 1975) / 12.0)
    noise = np.zeros(years.size)
    eps = rng.normal(0.0, 0.09, years.size)
    for i in range(years.size):
        noise[i] = 0.55 * noise[i - 1] + eps[i] if i else eps[i]
    annual = trend + noise
    rows = []
    for year, level in zip(years, annual):
        dev = rng.normal(0.0, 0.05, 12)
        dev -= dev.mean()
        for month in range(12):
            rows.append((f"{year}-{month + 1:02d}", round(float(level + dev[month]), 4)))
    return rows


def annualize(rows: list[tuple[str, float]]) -> dict[int, float]:
    sums: dict[int, list[float]] = {}
    for date, value in rows:
        sums.setdefault(int(date[:4]), []).append(value)
    return {year: float(np.mean(vals)) for year, vals in sums.items()}


def correlated_values(x: np.ndarray, target_r: float, rng) -> np.ndarray:
    """Unit-variance values whose sample Pearson r against x is exact."""
    n = x.size
    xc = x - x.mean()
    xu = xc / np.linalg.norm(xc)
    z = rng.normal(0.0, 1.0, n)
    zc = z - z.mean()
    zo = zc - np.dot(zc, xu) * xu
    zu = zo / np.linalg.norm(zo)
    y = target_r * xu + np.sqrt(1.0 - target_r**2) * zu
    return y / y.std()


def calibrated_integer_series(
    x: np.ndarray, target_r: float, alpha: float, beta: float, rng, rounds: int = 6
) -> np.ndarray:
    """Integers alpha + beta*y rounded so pearson(x, result) ~ target_r.

    Rounding nudges the coefficient, so the pre-rounding target is
    adjusted a few times and the best attempt wins.
    """
    aim = target_r
    best, best_err = None, np.inf
    for _ in range(rounds):
        y = correlated_values(x, aim, rng)
        values = np.rint(alpha + beta * y).astype(int)
        assert values.min() >= 1, "count series dipped below 1; raise alpha"
        achieved = pearson(x.tolist(), values.tolist())
        err = abs(achieved - target_r)
        if err < best_err:
            best, best_err = values, err
        aim = min(0.999, max(-0.999, aim + (target_r - achieved)))
    return best


def largest_remainder_split(total: int, weights: dict[str, float]) -> dict[str, int]:
    scale = sum(weights.values())
    quotas = {k: total * w / scale for k, w in weights.items()}
    floors = {k: int(np.floor(q)) for k, q in quotas.items()}
    shortfall = total - sum(floors.values())
    by_remainder = sorted(quotas, key=lambda k: (quotas[k] - floors[k], k), reverse=True)
    for k in by_remainder[:shortfall]:
        floors[k] += 1
    return floors


def weight_jitter(rng) -> dict[tuple[int, str], float]:
    """Per-year, per-type multiplicative noise, drawn once so the flood
    ramp can be solved against the same realization."""
    jitter = {}
    for year in TYPE_YEARS:
        for name in BASE_WEIGHTS | {"Flood": 0.0}:
            jitter[(year, name)] = float(rng.lognormal(0.0, 0.22))
    return jitter


def split_counts(
    all_counts: dict[int, int], flood_w0: float, jitter: dict[tuple[int, str], float]
) -> dict[str, dict[int, int]]:
    per_type: dict[str, dict[int, int]] = {name: {} for name in TYPE_START if name != "All natural disasters"}
    for year, total in all_counts.items():
        tau = (year - 1900) / 116.0
        weights = {"Flood": flood_w0 + 0.15 * tau}
        weights.update(BASE_WEIGHTS)
        active = {
            k: w * jitter[(year, k)] for k, w in weights.items() if TYPE_START[k] <= year
        }
        for name, count in largest_remainder_split(total, active).items():
            per_type[name][year] = count
    return per_type


def flood_share(per_type: dict[str, dict[int, int]]) -> float:
    totals = {name: sum(series.values()) for name, series in per_type.items()}
    return totals["Flood"] / sum(totals.values())


def solve_flood_ramp(
    all_counts: dict[int, int], jitter: dict[tuple[int, str], float]
) -> float:
    lo, hi = 0.10, 0.90
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if flood_share(split_counts(all_counts, mid, jitter)) < TARGET_FLOOD_SHARE:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def split_damage(all_damage: dict[int, int], rng) -> dict[str, dict[int, int]]:
    """Jittered-weight damage split; flood takes the exact remainder."""
    weights = {
        "Earthquake": 0.30,
        "Extreme weather": 0.25,
        "Drought": 0.12,
        "Extreme temperature": 0.04,
        "Landslide": 0.03,
        "Volcanic activity": 0.02,
        "Wildfire": 0.05,
    }
    per_type: dict[str, dict[int, int]] = {name: {} for name in TYPE_START if name != "All natural disasters"}
    for year, total in all_damage.items():
        active = {
            k: w * float(rng.lognormal(0.0, 0.35))
            for k, w in weights.items()
            if TYPE_START[k] <= year
        }
        scale = sum(active.values()) + 0.36  # leaves roughly a third to flood
        rest = 0
        for name, w in active.items():
            value = int(np.floor(total * w / scale))
            per_type[name][year] = value
            rest += value
        assert total - rest >= 0
        per_type["Flood"][year] = total - rest
    return per_type


def severity_series(rng, years: np.ndarray, base: float, swing: float) -> np.ndarray:
    """Positive, loosely trending integer magnitudes for loss measures."""
    walk = np.cumsum(rng.normal(0.0, 0.18, years.size))
    walk -= walk.mean()
    level = base * np.exp(0.004 * (years - years[0]) + swing * walk)
    spikes = np.exp(rng.normal(0.0, 0.9, years.size))
    return np.rint(level * spikes).astype(int)


TYPE_SEVERITY = {
    # base annual deaths, affected, homeless, injured
    "Flood": (4200, 30_000_000, 350_000, 24_000),
    "Earthquake": (9000, 2_500_000, 210_000, 31_000),
    "Drought": (6500, 40_000_000, 22_000, 900),
    "Extreme weather": (5200, 18_000_000, 280_000, 15_000),
    "Extreme temperature": (3100, 800_000, 4_000, 2_600),
    "Landslide": (900, 300_000, 32_000, 1_400),
    "Volcanic activity": (420, 250_000, 18_000, 1_100),
    "Wildfire": (160, 600_000, 21_000, 1_300),
}


def build_type_table(anomaly_annual: dict[int, float], rng) -> tuple[list[str], dict]:
    years = np.asarray(TYPE_YEARS)
    overlap = np.asarray([y for y in years if y in anomaly_annual])
    x = np.asarray([anomaly_annual[y] for y in overlap])

    counts_overlap = calibrated_integer_series(x, TARGET_OCCURRENCE_R, 420.0, 95.0, rng)
    damage_overlap = calibrated_integer_series(
        x, TARGET_DAMAGE_R, 2_600_000_000.0, 750_000_000.0, rng
    )
    all_counts = dict(zip(overlap.tolist(), counts_overlap.tolist()))
    all_damage = dict(zip(overlap.tolist(), damage_overlap.tolist()))
    for year in years:
        if year not in all_counts:  # 2016 sits outside the anomaly span
            all_counts[year] = int(counts_overlap[-5:].mean())
            all_damage[year] = int(damage_overlap[-5:].mean())

    jitter = weight_jitter(rng)
    flood_w0 = solve_flood_ramp(all_counts, jitter)
    per_type_counts = split_counts(all_counts, flood_w0, jitter)
    per_type_damage = split_damage(all_damage, rng)

    losses: dict[str, dict[str, dict[int, int]]] = {}
    for name, (deaths, affected, homeless, injured) in TYPE_SEVERITY.items():
        span = np.asarray([y for y in years if TYPE_START[name] <= y])
        losses[name] = {
            "DEATHS": dict(zip(span.tolist(), severity_series(rng, span, deaths, 0.10))),
            "AFFECTED": dict(zip(span.tolist(), severity_series(rng, span, affected, 0.12))),
            "HOMELESS": dict(zip(span.tolist(), severity_series(rng, span, homeless, 0.15))),
            "INJURED": dict(zip(span.tolist(), severity_series(rng, span, injured, 0.15))),
        }

    header = "ENTITY,YEAR,OCCURRENCES,DEATHS,AFFECTED,HOMELESS,INJURED,ECONOMIC_DAMAGE"
    lines = [header]
    for name in TYPE_START:
        for year in years:
            if TYPE_START[name] > year:
                continue
            if name == "All natural disasters":
                active = [t for t in TYPE_SEVERITY if TYPE_START[t] <= year]
                row = [
                    all_counts[year],
                    sum(losses[t]["DEATHS"][year] for t in active),
                    sum(losses[t]["AFFECTED"][year] for t in active),
                    sum(losses[t]["HOMELESS"][year] for t in active),
                    sum(losses[t]["INJURED"][year] for t in active),
                    all_damage[year],
                ]
            else:
                row = [
                    per_type_counts[name][year],
                    losses[name]["DEATHS"][year],
                    losses[name]["AFFECTED"][year],
                    losses[name]["HOMELESS"][year],
                    losses[name]["INJURED"][year],
                    per_type_damage[name][year],
                ]
            lines.append(f"{name},{year}-01-01," + ",".join(str(v) for v in row))

    stats = {
        "rows": len(lines) - 1,
        "occurrence_r": pearson(x.tolist(), [all_counts[y] for y in overlap.tolist()]),
        "damage_r": pearson(x.tolist(), [all_damage[y] for y in overlap.tolist()]),
        "flood_share": flood_share(per_type_counts),
        "flood_w0": flood_w0,
    }
    return lines, stats


def load_countries() -> list[NormalizedEntity]:
    """The code table's non-aggregate entries, sorted by canonical name."""
    path = REPO / "src" / "disclim" / "data" / "country_codes.csv"
    with path.open(encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["aggregate"] != "true"]
    entries = (NormalizedEntity(row["canonical"], row["code"] or None, False) for row in rows)
    return sorted(entries, key=attrgetter("canonical"))


def build_region_table(entries, rng) -> tuple[list[str], dict]:
    countries = [e for e in entries if e.canonical not in SKIPPED_MICROSTATES]
    assert len(countries) == 175, len(countries)

    populations = {}
    growth = {}
    scale = {}
    for entry in countries:
        populations[entry.canonical] = float(rng.uniform(4e5, 3e8))
        growth[entry.canonical] = float(rng.uniform(0.002, 0.025))
        scale[entry.canonical] = float(rng.lognormal(0.0, 1.4))
    # a few demographic anchors so the big names look right
    populations.update({"China": 9.9e8, "India": 7.0e8, "United States": 2.3e8,
                        "Indonesia": 1.5e8, "Brazil": 1.2e8})

    deaths: dict[tuple[str, int], float] = {}
    for entry in countries:
        name = entry.canonical
        for year in REGION_YEARS:
            if name in LATE_REPORTERS and year == 1980:
                continue
            level = scale[name] * rng.lognormal(2.6, 1.1)
            deaths[(name, year)] = round(float(level), 6)

    year_totals = {
        year: sum(v for (n, y), v in deaths.items() if y == year) for year in REGION_YEARS
    }

    header = "ENTITY,CODE,YEAR,DEATHS,DEATH_RATE,PERCENTAGE_SHARE_DEATHS,INTERNALLY_DISPLACED_POPULATION"
    lines = [header]
    null_counts = {"DEATHS": 0, "DEATH_RATE": 0, "PERCENTAGE_SHARE_DEATHS": 0,
                   "INTERNALLY_DISPLACED_POPULATION": 0}
    for entry in countries:
        name = entry.canonical
        for year in REGION_YEARS:
            if (name, year) not in deaths:
                continue
            d = deaths[(name, year)]
            population = populations[name] * (1.0 + growth[name]) ** (year - 1980)
            rate = round(d / population * 100_000.0, 9)
            share = round(d / year_totals[year], 9)
            displaced = int(rng.lognormal(8.5, 2.0)) if rng.random() < 0.55 else 0
            cells = {
                "DEATHS": f"{d:.6f}",
                "DEATH_RATE": f"{rate:.9f}",
                "PERCENTAGE_SHARE_DEATHS": f"{share:.9f}",
                "INTERNALLY_DISPLACED_POPULATION": str(displaced),
            }
            for column, chance in (("DEATHS", 0.02), ("DEATH_RATE", 0.03),
                                   ("PERCENTAGE_SHARE_DEATHS", 0.04),
                                   ("INTERNALLY_DISPLACED_POPULATION", 0.08)):
                if rng.random() < chance:
                    cells[column] = ""
                    null_counts[column] += 1
            lines.append(
                f"{name},{entry.code},{year}-01-01,"
                + ",".join(cells[c] for c in null_counts)
            )

    rows = len(lines) - 1
    stats = {"rows": rows,
             "null_fractions": {c: null_counts[c] / rows for c in null_counts}}
    return lines, stats


def main() -> None:
    rng = np.random.default_rng(20160211)

    anomaly_rows = monthly_anomaly(rng)
    anomaly_annual = annualize(anomaly_rows)
    anomaly_lines = ["DATE,TEMPERATURE_ANOMALY"] + [
        f"{date},{value}" for date, value in anomaly_rows
    ]

    type_lines, type_stats = build_type_table(anomaly_annual, rng)
    region_lines, region_stats = build_region_table(load_countries(), rng)

    assert type_stats["rows"] == 757, type_stats["rows"]
    assert region_stats["rows"] == 6469, region_stats["rows"]
    assert len(anomaly_rows) == 136 * 12, len(anomaly_rows)
    assert abs(type_stats["occurrence_r"] - TARGET_OCCURRENCE_R) < 0.005
    assert abs(type_stats["damage_r"] - TARGET_DAMAGE_R) < 0.005
    assert abs(type_stats["flood_share"] - TARGET_FLOOD_SHARE) < 0.02
    assert all(f < 0.30 for f in region_stats["null_fractions"].values())

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "temperature_anomaly_monthly.csv").write_text("\n".join(anomaly_lines) + "\n")
    (OUT / "disasters_by_type.csv").write_text("\n".join(type_lines) + "\n")
    (OUT / "disasters_by_region.csv").write_text("\n".join(region_lines) + "\n")

    print(f"anomaly rows:   {len(anomaly_rows)}")
    print(f"type rows:      {type_stats['rows']}")
    print(f"region rows:    {region_stats['rows']}")
    print(f"occurrence r:   {type_stats['occurrence_r']:.6f} (target {TARGET_OCCURRENCE_R})")
    print(f"damage r:       {type_stats['damage_r']:.6f} (target {TARGET_DAMAGE_R})")
    print(f"flood share:    {type_stats['flood_share']:.4f} (target {TARGET_FLOOD_SHARE})")
    print(f"flood ramp w0:  {type_stats['flood_w0']:.4f}")
    print("null fractions: " + ", ".join(
        f"{c}={f:.3f}" for c, f in region_stats["null_fractions"].items()
    ))


if __name__ == "__main__":
    main()
