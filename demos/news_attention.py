"""
Mortality versus media attention
================================

A disaster type's news intensity is its death toll divided by its share
of coverage.  High values mark hazards that kill quietly; low values
mark hazards the cameras chase.  Coverage shares are inputs here, not
something the corpus provides, so supply your own measurements.
"""

import disclim
from disclim.metrics import intensity_ratio

# all-time deaths by type, from the bundled record
corpus = disclim.load_bundled_corpus()
deaths, _affected = disclim.deaths_and_affected(corpus)

# coverage shares in percent, e.g. from a media-monitoring study;
# they need not reach 100 because outlets also cover everything else
coverage = {
    "Drought": 2.0,
    "Earthquake": 21.0,
    "Extreme temperature": 4.0,
    "Extreme weather": 38.0,
    "Flood": 9.0,
    "Landslide": 1.5,
    "Volcanic activity": 2.5,
    "Wildfire": 11.0,
}

rows = disclim.news_intensity(deaths, coverage)
print(f"{'type':22s} {'deaths':>12s} {'coverage':>9s} {'deaths/point':>13s}")
for row in rows:
    shown = f"{row.deaths_per_story:13.0f}" if row.covered else f"{'undefined':>13s}"
    print(f"{row.label:22s} {deaths.get(row.label, 0.0):12.0f} {row.coverage_share:8.1f}% {shown}")

# how many times more newsworthy is one death than another?
quiet, loud = rows[0].label, rows[-1].label
ratio = intensity_ratio(rows[0], rows[-1])
print(f"\nit takes {ratio:.0f} {quiet} deaths to draw the coverage of one {loud} death")
