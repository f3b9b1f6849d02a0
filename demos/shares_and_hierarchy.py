"""
Composition views: shares, stacked areas, and the deaths hierarchy
==================================================================

Which disaster types dominate the record?  Floods account for roughly
43 percent of recorded events, and the per-year share table behind the
stacked-area chart shows how that mix drifts over time.
"""

from pathlib import Path

import disclim
from disclim.records import DisasterType

corpus = disclim.load_bundled_corpus()

# one number first: floods as a fraction of every recorded event
flood = disclim.overall_share(corpus, DisasterType.FLOOD, "count")
print(f"flood share of recorded events: {flood:.1%}")

# the per-year table normalizes each row to sum to one
shares = disclim.share_table(corpus, "count")
print("types:", ", ".join(shares.labels))
latest = shares.years[-1]
row = shares.row(latest)
print(f"{latest} mix:")
for label in sorted(row, key=row.get, reverse=True):
    print(f"  {row[label]:6.1%}  {label}")

# the same table feeds the stacked-area chart document
out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
area = disclim.emit_chart("stackedarea", shares, title="Share of recorded events")
(out / "share_of_events.stackedarea.json").write_bytes(area.to_bytes())

# deaths nest inside affected counts, type by type, under a single root
deaths, affected = disclim.deaths_and_affected(corpus)
root, warnings = disclim.sunburst_deaths_affected(deaths, affected)
for note in warnings:
    print("note:", note)
print(f"{root.label}: {root.value:.3g} affected across {len(root.children)} types")
ring = disclim.emit_chart("sunburst", root, title="Deaths within affected")
(out / "deaths_within_affected.sunburst.json").write_bytes(ring.to_bytes())
print("artifacts in", out)
