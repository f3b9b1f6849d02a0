"""
Persisting a corpus and mapping the toll
========================================

Corpora save to a plain directory of delimited tables plus a manifest of
content digests, so a reload either reproduces the exact values or
refuses loudly.  While the corpus is open we also build the two chart
documents that need it whole: the dual-axis overlay and the world map.
"""

import tempfile
from pathlib import Path

import disclim

corpus = disclim.load_bundled_corpus()

# round-trip through disk; the manifest pins every table's digest
with tempfile.TemporaryDirectory() as scratch:
    target = Path(scratch) / "corpus"
    disclim.save_corpus(corpus, target)
    print("saved:", sorted(p.name for p in target.iterdir()))

    again = disclim.load_corpus(target)
    print("reloaded rows:", len(again.region_records), "region,",
          len(again.type_records), "type,", len(again.anomaly_records), "anomaly")
    assert again.anomaly_series().values == corpus.anomaly_series().values

# the dual-axis document overlays raw counts with the anomaly curve, which as
# the table's second column goes on the right-hand axis
counts = corpus.build_series("all-disasters", "count")
anomaly = corpus.anomaly_series()
overlay = disclim.emit_chart("dualaxis", disclim.integrate_on_year([counts, anomaly]))
print("dual-axis years:", overlay.payload["years"][0], "to", overlay.payload["years"][-1])

# the choropleth wants one value per country, keyed by ISO alpha-3
deaths_2016 = disclim.region_totals(corpus, "deaths", 2016)
world = disclim.emit_chart("choropleth", deaths_2016, title="Deaths in 2016")
codes = sorted(world.payload["values"])
print(f"choropleth covers {len(codes)} countries ({codes[0]} .. {codes[-1]})")

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
(out / "counts_vs_anomaly.dualaxis.json").write_bytes(overlay.to_bytes())
(out / "deaths_2016.choropleth.json").write_bytes(world.to_bytes())
print("artifacts in", out)
