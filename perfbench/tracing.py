"""Per-layer spans and counts, recorded from outside the package.

``install(tracer)`` wraps disclim's public functions and the records'
``__post_init__``, patching each name where its caller looks it up (for
example ``disclim.corpus.coerce_records`` as well as
``disclim.ingest.coerce_records``).  Spans (name, parent, start, end) and
counts stay in memory until ``dump`` or ``layer_metrics`` reads them.
``uninstall(tracer)`` puts every patched name back, so that traced and
untraced iterations can alternate in one process.

A layer's time is the self time of its spans: span duration minus the
child spans inside it.  ``cli.main_ms`` is the exception; it is the whole
command, so that process wall time minus it is the process overhead.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> the (module, attribute) it wraps; "Class.method" patches the class
SPANNED = (
    ("ingest.parse", "disclim.ingest", "parse_delimited"),
    ("ingest.detect", "disclim.ingest", "detect_schema"),
    ("ingest.coerce", "disclim.ingest", "coerce_records"),
    ("isocodes.load", "disclim.isocodes", "load_default_codes"),
    ("corpus.build", "disclim.corpus", "build_corpus"),
    ("corpus.save", "disclim.corpus", "save_corpus"),
    ("corpus.load", "disclim.corpus", "load_corpus"),
    ("corpus.series", "disclim.corpus", "Corpus.build_series"),
    ("corpus.series", "disclim.corpus", "Corpus.anomaly_series"),
    ("corpus.align", "disclim.corpus", "align_union"),
    ("corpus.align", "disclim.corpus", "integrate_on_year"),
    ("stats.matrix", "disclim.stats", "correlation_matrix"),
    ("metrics.share", "disclim.metrics", "share_table"),
    ("metrics.share", "disclim.metrics", "overall_share"),
    ("metrics.sunburst", "disclim.metrics", "sunburst_deaths_affected"),
    ("charts.emit", "disclim.charts", "emit_chart"),
    ("charts.emit", "disclim.charts", "ChartDocument.to_bytes"),
    ("charts.svg", "disclim.charts", "render_heatmap_svg"),
    ("cli.main", "disclim.cli", "main"),
)

# per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "ingest.parse_ms": ("ingest.parse",),
    "ingest.detect_ms": ("ingest.detect",),
    "ingest.coerce_ms": ("ingest.coerce",),
    "isocodes.load_ms": ("isocodes.load",),
    "corpus.build_self_ms": ("corpus.build",),
    "corpus.save_ms": ("corpus.save",),
    "corpus.load_ms": ("corpus.load",),
    "corpus.series_ms": ("corpus.series",),
    "corpus.align_ms": ("corpus.align",),
    "stats.pearson_ms": ("stats.pearson",),
    "stats.spearman_ms": ("stats.spearman",),
    "stats.kendall_tau_a_ms": ("stats.kendall_tau_a",),
    "stats.kendall_tau_b_ms": ("stats.kendall_tau_b",),
    "metrics.share_ms": ("metrics.share",),
    "metrics.sunburst_ms": ("metrics.sunburst",),
    "charts.emit_ms": ("charts.emit",),
    "charts.svg_ms": ("charts.svg",),
}

COUNT_METRICS = (
    "ingest.rows", "ingest.null_cells", "isocodes.lookups", "isocodes.unresolved",
    "records.constructed", "corpus.bytes_written", "corpus.digest_checks",
    "stats.estimator_calls", "charts.bytes",
)


_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.open: dict[str, int] = defaultdict(int)
        self.patched: list[tuple] = []       # (owner, attribute, original value)
        self._stack: list[int] = []

    def reset(self) -> None:
        """Start a new iteration: drop the spans and counts recorded so far."""
        self.spans, self.counts = [], defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self.open[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self.open[name] -= 1
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _set(tracer: Tracer, owner, attr: str, value) -> None:
    tracer.patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
    setattr(owner, attr, value)


def _patch_name(tracer: Tracer, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "disclim" or name.startswith("disclim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    _set(tracer, module, attr, replacement)


def _patch(tracer: Tracer, module_name: str, attr: str, make) -> None:
    module = sys.modules[module_name]
    if "." in attr:
        owner_name, method = attr.split(".")
        owner = getattr(module, owner_name)
        _set(tracer, owner, method, make(owner.__dict__[method]))
    else:
        original = getattr(module, attr)
        _patch_name(tracer, original, make(original))


def uninstall(tracer: Tracer) -> None:
    """Undo ``install(tracer)``: every patched name gets its original back."""
    while tracer.patched:
        owner, attr, original = tracer.patched.pop()
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap disclim's layers so that every call records into *tracer*."""
    import disclim.cli  # noqa: F401  (load every module before patching)
    from disclim import corpus, ingest, records, stats

    def after_coerce(span, args, kwargs, result):
        table, kind = args[0], args[1]
        tracer.counts["ingest.rows"] += len(table.rows)
        tracer.counts["ingest.null_cells"] += sum(result.null_report.null_counts.values())
        if kind is ingest.SchemaKind.REGION and tracer.open["corpus.build"]:
            tracer.counts["build.region_rows"] += len(table.rows)

    def after_save(span, args, kwargs, result):
        tracer.counts["corpus.bytes_written"] += sum(
            p.stat().st_size for p in result.iterdir() if p.is_file()
        )

    def after_matrix(span, args, kwargs, result):
        span[0] = "stats." + result.method.replace("-", "_")
        k = result.size
        off_diagonal = result.defined_cells() - sum(
            result.values[i][i] is not None for i in range(k)
        )
        tracer.counts["stats.defined_cells"] += off_diagonal
        tracer.counts["stats.pairs"] += k * (k - 1)

    def after_bytes(span, args, kwargs, result):
        tracer.counts["charts.bytes"] += len(result)

    afters = {
        "coerce_records": after_coerce,
        "save_corpus": after_save,
        "correlation_matrix": after_matrix,
        "render_heatmap_svg": after_bytes,
        "ChartDocument.to_bytes": after_bytes,
    }
    for span_name, module_name, attr in SPANNED:
        after = afters.get(attr)
        _patch(tracer, module_name, attr, lambda fn, n=span_name, a=after: tracer.wrap(n, fn, a))

    def count_records(cls):
        original = cls.__post_init__

        def post_init(self):
            tracer.counts["records.constructed"] += 1
            if cls is records.DisasterRecord and tracer.open["corpus.build"]:
                tracer.counts["build.region_records"] += 1
            original(self)

        _set(tracer, cls, "__post_init__", post_init)

    for cls in (records.DisasterRecord, records.TypeRecord, records.AnomalyRecord):
        count_records(cls)

    original_normalize = disclim.isocodes.IsoCodeTable.normalize

    def normalize(self, name):
        entry = original_normalize(self, name)
        tracer.counts["isocodes.lookups"] += 1
        tracer.counts["isocodes.unresolved"] += entry is None
        return entry

    _set(tracer, disclim.isocodes.IsoCodeTable, "normalize", normalize)

    hashlib = corpus.hashlib

    class CountingHashlib:
        @staticmethod
        def sha256(payload):
            if tracer.open["corpus.load"]:
                tracer.counts["corpus.digest_checks"] += 1
            return hashlib.sha256(payload)

    _set(tracer, corpus, "hashlib", CountingHashlib)

    estimator_depth = [0]

    def count_estimator(fn):
        @functools.wraps(fn)
        def counted(x, y, *args, **kwargs):
            if estimator_depth[0] == 0:
                tracer.counts["stats.estimator_calls"] += 1
                if len(set(x)) < len(x) or len(set(y)) < len(y):
                    tracer.counts["stats.tied_calls"] += 1
            estimator_depth[0] += 1
            try:
                return fn(x, y, *args, **kwargs)
            finally:
                estimator_depth[0] -= 1

        return counted

    for name in ("pearson", "spearman", "kendall"):
        _patch_name(tracer, getattr(stats, name), count_estimator(getattr(stats, name)))


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, parent, start, end), children in zip(spans, child_time):
        totals[name] += end - start - children
    return totals


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer values for one iteration's spans and counts."""
    own = self_times(spans)
    out = {
        metric: 1000.0 * sum(own.get(n, 0.0) for n in names)
        for metric, names in TIME_METRICS.items()
    }
    out["cli.main_ms"] = 1000.0 * sum(e - s for n, _, s, e in spans if n == "cli.main")
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    region_rows = counts.get("build.region_rows", 0)
    out["records.constructed_per_row"] = (
        counts.get("build.region_records", 0) / region_rows if region_rows else 0.0
    )
    pairs, calls = counts.get("stats.pairs", 0), counts.get("stats.estimator_calls", 0)
    out["stats.defined_ratio"] = counts.get("stats.defined_cells", 0) / pairs if pairs else 0.0
    out["stats.tied_call_share"] = counts.get("stats.tied_calls", 0) / calls if calls else 0.0
    return out


def import_times(stderr: str) -> dict[str, float]:
    """import.* metrics in ms from ``-X importtime`` lines on *stderr*.

    ``import.self_ms`` is disclim's import time without numpy's: its own
    modules plus the stdlib modules it is first to load.
    """
    disclim_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        stripped = name.strip()
        top_level = name.startswith(" ") and not name.startswith("  ")
        if top_level and (stripped == "disclim" or stripped.startswith("disclim.")):
            disclim_us += int(cumulative)
        elif stripped == "numpy":
            numpy_us += int(cumulative)
    return {
        "import.disclim_ms": disclim_us / 1000.0,
        "import.numpy_ms": numpy_us / 1000.0,
        "import.self_ms": (disclim_us - numpy_us) / 1000.0,
    }
