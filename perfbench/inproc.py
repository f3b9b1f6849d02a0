"""The in-process workloads, each run in a child process of its own so that
its peak RSS is its own.

    python [-X importtime] perfbench/inproc.py WORKLOAD SEED SECONDS TRACE RESULT_JSON WORKDIR

The child sets up SETUP_REPEATS times, then runs a closed loop of iterations
for SECONDS.  With TRACE=1 traced and untraced iterations alternate, the
tracer installed for each traced one and removed after it.  Timings, checks,
per-layer values and the loop's peak RSS go to RESULT_JSON.

The peak RSS is the high-water mark of the timed loop alone: set-up's
leftovers are dropped and the kernel's mark is reset (``/proc/self/clear_refs``)
just before the loop starts.
"""

import sys

import disclim  # first, so that -X importtime charges the package with what it loads

import gc
import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import calibration
import generate
import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
CODE_TABLE = ROOT / "src" / "disclim" / "data" / "country_codes.csv"
TOLERANCE = 1e-9


def _parse_sources(src):
    parse = disclim.ingest.parse_delimited
    return [
        parse(src.region, source_path="region.csv"),
        parse(src.types, source_path="types.csv"),
        parse(src.anomaly, source_path="anomaly.csv"),
    ]


class IngestBulk:
    """parse_delimited -> build_corpus -> save_corpus -> load_corpus."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.directory = workdir / "corpus"

    def setup(self) -> None:
        self.src = self.reference_outputs = None  # hold one generation at a time
        self.src = generate.generate(self.seed, str(CODE_TABLE))
        self.work = sum(self.src.rows.values())
        self.reference_outputs = self.iterate(calibration.Steps())

    def prepare_checks(self) -> None:
        """Nothing to precompute: checks compare with the generator's facts."""

    def iterate(self, steps):
        tables = steps.run("parse", lambda: _parse_sources(self.src))
        corpus = steps.run("build", lambda: disclim.corpus.build_corpus(tables))
        steps.run("save", lambda: disclim.corpus.save_corpus(corpus, self.directory))
        loaded = steps.run("reload", lambda: disclim.corpus.load_corpus(self.directory))
        return corpus, loaded

    def check(self, outputs) -> list[str]:
        corpus, loaded = outputs
        src, problems = self.src, []
        if loaded != corpus:
            problems.append("reloaded corpus differs from the built one")
        found = {"region": len(corpus.region_records), "disaster-type": len(corpus.type_records),
                 "anomaly": len(corpus.anomaly_records)}
        if found != src.rows:
            problems.append(f"record counts {found} != generated rows {src.rows}")
        if corpus.null_reports["region"].null_counts != src.region_nulls:
            problems.append("region null census differs from the generated nulls")
        if corpus.exclusions.get("region") != src.excluded:
            problems.append(f"region exclusions {corpus.exclusions.get('region')} != {src.excluded}")
        if {r.entity for r in corpus.region_records} != set(src.codes):
            problems.append("normalised entity names differ from the generated canonical names")
        return problems


def _one_per_stratum(rng, ordered, strata):
    bounds = [len(ordered) * k // strata for k in range(strata + 1)]
    return [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


class CorrelateWide:
    """Select 40 series, build the four METHODS matrices, render each to CSV and SVG."""

    SHORT, LONG = 4, 35         # entities picked from the 15 shortest / the rest
    SAMPLED_CELLS = 16          # per method, checked against the reference

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.src = self.corpus = self.reference_outputs = None  # one generation at a time
        self.src = generate.generate(self.seed, str(CODE_TABLE))
        self.corpus = disclim.corpus.build_corpus(_parse_sources(self.src))
        rng = random.Random(self.seed)
        resolved = sorted(
            (name for name in self.src.deaths if name not in self.src.unresolved),
            key=lambda name: (len(self.src.deaths[name]), name),
        )
        # one entity from each of SHORT strata of the 15 shortest series and
        # LONG strata of the rest, so that the seed barely moves the work
        chosen = _one_per_stratum(rng, resolved[:15], self.SHORT)
        chosen += _one_per_stratum(rng, resolved[15:], self.LONG)
        # every other series is selected by its ISO code rather than its name
        self.entities = chosen
        self.selectors = [self.src.codes[n] if i % 2 else n for i, n in enumerate(chosen)]
        k = len(chosen) + 1
        self.work = len(disclim.stats.METHODS) * k * (k - 1) // 2
        self.reference_outputs = self.iterate(calibration.Steps())

    def _select(self):
        corpus = self.corpus
        series = [corpus.anomaly_series()]
        series += [corpus.build_series(s, "deaths") for s in self.selectors]
        return disclim.corpus.align_union(series)

    def iterate(self, steps):
        stats = disclim.stats
        table = steps.run("select", self._select)
        matrices = [steps.run(m, lambda m=m: stats.correlation_matrix(table, m))
                    for m in stats.METHODS]
        rendered = steps.run("render", lambda: [
            (m.to_delimited().encode("utf-8"), disclim.charts.render_heatmap_svg(m))
            for m in matrices
        ])
        return table, matrices, rendered

    def prepare_checks(self) -> None:
        """Reference cells and pair counts, from the generator's own numbers."""
        years = list(range(generate.FIRST_YEAR, generate.LAST_YEAR + 1))
        columns = [[self.src.anomaly_by_year.get(y) for y in years]]
        columns += [[self.src.deaths[n].get(y) for y in years] for n in self.entities]
        k = len(columns)
        self.labels = ("Temperature Anomaly", *self.entities)
        self.counts = tuple(
            tuple(len(reference.complete_pairs(columns[i], columns[j])) for j in range(k))
            for i in range(k)
        )
        rng = random.Random(f"{self.seed}/cells")
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        self.cells = {
            method: [(i, j, reference.cell(method, columns[i], columns[j])[1])
                     for i, j in rng.sample(pairs, self.SAMPLED_CELLS)]
            for method in disclim.stats.METHODS
        }
        self.digests = self._digests(self.reference_outputs[2])

    @staticmethod
    def _digests(rendered):
        return [hashlib.sha256(csv + svg).hexdigest() for csv, svg in rendered]

    def check(self, outputs) -> list[str]:
        table, matrices, rendered = outputs
        problems = []
        if table.labels != self.labels:
            problems.append("selected series labels differ from the chosen entities")
        for matrix in matrices:
            if matrix.counts != self.counts:
                problems.append(f"{matrix.method}: pair counts differ from the generated overlaps")
            for i, j, expected in self.cells[matrix.method]:
                got = matrix.values[i][j]
                if (got is None) != (expected is None) or (
                    got is not None and abs(got - expected) > TOLERANCE
                ):
                    problems.append(f"{matrix.method}[{i}][{j}] = {got!r}, reference {expected!r}")
        if self._digests(rendered) != self.digests:
            problems.append("rendered CSV/SVG bytes differ from the warm-up iteration's")
        return problems


WORKLOADS = {"ingest-bulk": IngestBulk, "correlate-wide": CorrelateWide}


def iteration(workload, tracer=None) -> dict:
    """One timed, checked iteration, traced when *tracer* is given."""
    if tracer is not None:
        tracer.reset()
        tracing.install(tracer)
    # every iteration starts from an empty collector, so that where the
    # collections fall does not differ from run to run
    gc.collect()
    steps = calibration.Steps()
    try:
        outputs = workload.iterate(steps)
    except Exception as exc:  # a program failure is a failed operation, not a crash
        return {"ok": False, "problems": [repr(exc)]}
    finally:
        if tracer is not None:
            tracing.uninstall(tracer)
    timings = steps.record
    if tracer is not None:
        timings["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
    problems = workload.check(outputs)
    return {**timings, "ok": not problems, "problems": problems[:5]}


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    name, seed, seconds, trace, result_path, workdir = sys.argv[1:]
    workload = WORKLOADS[name](int(seed), Path(workdir))
    setup = []
    for _ in range(calibration.SETUP_REPEATS):
        steps = calibration.Steps()
        steps.run("setup", workload.setup)
        setup.append(steps.record)
    workload.prepare_checks()
    for problem in workload.check(workload.reference_outputs)[:5]:
        print(f"warm-up iteration: {problem}", file=sys.stderr)
    workload.reference_outputs = None  # the checks have what they need from it
    tracer = tracing.Tracer() if trace == "1" else None
    gc.collect()
    reset_peak_rss()
    records = calibration.closed_loop(
        float(seconds), lambda i: iteration(workload, tracer if i % 2 else None)
    )
    rss_mb = peak_rss_mb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"setup": setup, "work": workload.work, "rss_mb": rss_mb,
                   "untraced": records[::2] if tracer else records,
                   "traced": records[1::2] if tracer else []}, handle)


if __name__ == "__main__":
    main()
