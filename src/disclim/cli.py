"""Command-line interface: ingest -> corr -> chart -> report.

Exit codes are a stable contract: 0 success, 1 usage or configuration
problem, 2 data problem (parse, schema, persistence), 3 analysis problem
(starved or degenerate computation).  Every artifact is written via a
temp-then-rename so a crash never leaves a half-written file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import charts, metrics, stats
from .corpus import (
    DEFAULT_NULL_THRESHOLD,
    Corpus,
    align_union,
    build_corpus,
    integrate_on_year,
    load_bundled_corpus,
    load_corpus,
    save_corpus,
)
from .errors import AnalysisError, DataError
from .ingest import COMMA, TAB, SchemaKind, parse_delimited
from .records import DisasterType, parse_disaster_type

CORPUS_ENV = "DISCLIM_CORPUS_DIR"

_AGAINST = {"occurrence": "count", "damage": "economic_damage"}

# the chart flags each kind reads; another of them on the command line is an error
_CHART_FLAGS = {
    charts.ChartKind.TIME_SERIES: ("series",),
    charts.ChartKind.DUAL_AXIS: ("left", "right"),
    charts.ChartKind.STACKED_AREA: ("measure",),
    charts.ChartKind.CHOROPLETH: ("measure", "year"),
    charts.ChartKind.HEATMAP: ("method", "against"),
    charts.ChartKind.SUNBURST: (),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our contract reserves 2
    # for data errors, so route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    region: str | None = None
    types: str | None = None
    anomaly: str | None = None
    corpus: str | None = None
    out: str = "out"
    method: str = "pearson"
    against: str = "occurrence"
    significance: float = stats.DEFAULT_SIGNIFICANCE
    null_threshold: float = DEFAULT_NULL_THRESHOLD
    tab: bool = False

    def __post_init__(self):
        # flags go through argparse, but config files can carry anything
        for name in ("region", "types", "anomaly", "corpus"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise UsageError(f"{name} must be a string path, not {value!r}")
        if not isinstance(self.out, str):
            raise UsageError(f"out must be a string path, not {self.out!r}")
        if not isinstance(self.tab, bool):
            raise UsageError(f"tab must be true or false, not {self.tab!r}")
        for name in ("significance", "null_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise UsageError(f"{name} must be a number, not {value!r}")
        if not 0.0 <= self.null_threshold <= 1.0:
            raise UsageError(f"null threshold {self.null_threshold} outside [0, 1]")
        if not 0.0 < self.significance <= 1.0:
            raise UsageError(f"significance {self.significance} outside (0, 1]")
        try:
            stats.normalize_method(self.method)
        except (ValueError, AttributeError):
            raise UsageError(f"unknown correlation method {self.method!r}") from None
        if not isinstance(self.against, str) or self.against not in _AGAINST:
            raise UsageError(
                f"against must be one of {', '.join(sorted(_AGAINST))}, not {self.against!r}"
            )


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return payload


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < flags (flags win)."""
    file_values = _load_config_file(getattr(args, "config", None))
    unknown = set(file_values) - {f.name for f in RunConfig.__dataclass_fields__.values()}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for name in RunConfig.__dataclass_fields__:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
        elif name in file_values:
            merged[name] = file_values[name]
    return RunConfig(**merged)


def _write_atomic(path: Path, payload: bytes) -> None:
    # a temp name of its own per call, created exclusively, so that two runs
    # writing into one --out never clobber each other's half-written files
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp.exists():
            tmp.unlink()
        raise DataError(f"cannot write {path}: {exc}") from None


def _parse_selector(selector: str) -> tuple[str, str] | None:
    """The (entity-or-type, measure) a series selector names; None for 'anomaly'."""
    if selector.strip().lower() == "anomaly":
        return None
    target, sep, measure = selector.rpartition("/")
    if not sep:
        raise UsageError(
            f"series selector {selector!r} must be 'anomaly' or '<entity-or-type>/<measure>'"
        )
    return target, _AGAINST.get(measure, measure)


def _reads_regions(args, kind: charts.ChartKind | None) -> bool:
    """Whether a command on the bundled corpus reads region records.

    *kind* is the chart kind of a ``chart`` command, None for the others.
    ``report`` and the choropleth always do.  A timeseries or dualaxis
    selector does when it names neither the anomaly nor a disaster type,
    the test ``Corpus.build_series`` applies; a malformed one raises
    UsageError here.  ``corr`` and the other charts never do.
    """
    if kind is None:
        return args.command == "report"
    if kind is charts.ChartKind.TIME_SERIES:
        selectors = args.series or []
    elif kind is charts.ChartKind.DUAL_AXIS:
        selectors = [s for s in (args.left, args.right) if s]
    else:
        return kind is charts.ChartKind.CHOROPLETH
    parsed = [p for p in map(_parse_selector, selectors) if p is not None]
    return any(parse_disaster_type(target) is None for target, _ in parsed)


def _resolve_corpus(config: RunConfig, args, kind: charts.ChartKind | None = None) -> Corpus:
    """The --corpus directory, fully validated, or else the bundled corpus.

    From the bundled data only the tables the command reads are built; a
    corpus directory always has every listed table checked.
    """
    directory = config.corpus or os.environ.get(CORPUS_ENV)
    if directory:
        return load_corpus(directory)
    if _reads_regions(args, kind):
        return load_bundled_corpus()
    return load_bundled_corpus([SchemaKind.DISASTER_TYPE, SchemaKind.ANOMALY])


def _parse_source(path: str, tab: bool):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return parse_delimited(data, TAB if tab else COMMA, source_path=path)


def _series_for(corpus: Corpus, selector: str):
    """Resolve 'anomaly' or an 'entity-or-type/measure' path to a series."""
    parsed = _parse_selector(selector)
    if parsed is None:
        return corpus.anomaly_series()
    return corpus.build_series(*parsed)


# -- subcommands -------------------------------------------------------------


def _cmd_ingest(args) -> int:
    config = _resolve_config(args)
    paths = {"region": config.region, "disaster type": config.types, "anomaly": config.anomaly}
    if not any(paths.values()):
        raise UsageError("ingest needs at least one of --region/--types/--anomaly")
    tables = [_parse_source(p, config.tab) for p in paths.values() if p]
    corpus = build_corpus(tables, null_threshold=config.null_threshold)
    directory = Path(config.corpus or os.environ.get(CORPUS_ENV) or "corpus")
    save_corpus(corpus, directory)
    for kind, report in sorted(corpus.null_reports.items()):
        print(report.render_text(f"{kind} nulls"))
        excluded = corpus.exclusions.get(kind) or []
        if excluded:
            print(f"  excluded (past {config.null_threshold:.0%} nulls): "
                  + ", ".join(excluded))
    print(f"corpus written to {directory}")
    return 0


def _matrix_for(corpus: Corpus, method: str, against: str) -> stats.CorrelationMatrix:
    series = corpus.default_series(_AGAINST[against])
    return stats.correlation_matrix(align_union(series), method)


def _cmd_corr(args) -> int:
    config = _resolve_config(args)
    corpus = _resolve_corpus(config, args)
    method = stats.normalize_method(config.method)
    matrix = _matrix_for(corpus, method, config.against)
    out = Path(config.out)
    text = matrix.to_delimited()
    _write_atomic(out / f"correlation_{method}_{config.against}.csv", text.encode("utf-8"))
    _write_atomic(
        out / f"correlation_{method}_{config.against}.svg",
        charts.render_heatmap_svg(matrix),
    )
    sys.stdout.write(text)
    for a, b, r in matrix.significant_pairs(config.significance):
        print(f"significant: {a} ~ {b}: {r:.6f}")
    return 0


def _build_chart(
    kind: charts.ChartKind, corpus: Corpus, args, config: RunConfig
) -> charts.ChartDocument:
    if kind is charts.ChartKind.TIME_SERIES:
        selectors = args.series or ["anomaly"]
        return charts.emit_chart(
            kind, align_union([_series_for(corpus, s) for s in selectors])
        )
    if kind is charts.ChartKind.DUAL_AXIS:
        if not args.left or not args.right:
            raise UsageError("dualaxis needs --left and --right selectors")
        table = integrate_on_year(
            [_series_for(corpus, args.left), _series_for(corpus, args.right)]
        )
        return charts.emit_chart(kind, table)
    if kind is charts.ChartKind.STACKED_AREA:
        return charts.emit_chart(kind, metrics.share_table(corpus, args.measure or "count"))
    if kind is charts.ChartKind.SUNBURST:
        root, warnings = metrics.sunburst_deaths_affected(*metrics.deaths_and_affected(corpus))
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return charts.emit_chart(kind, root)
    if kind is charts.ChartKind.CHOROPLETH:
        values = metrics.region_totals(corpus, args.measure or "deaths", args.year)
        return charts.emit_chart(kind, values)
    matrix = _matrix_for(corpus, stats.normalize_method(config.method), config.against)
    return charts.emit_chart(kind, matrix)


def _cmd_chart(args) -> int:
    kind = charts.parse_chart_kind(args.kind)
    for name in dict.fromkeys(name for names in _CHART_FLAGS.values() for name in names):
        if getattr(args, name) is not None and name not in _CHART_FLAGS[kind]:
            raise UsageError(f"--{name} does not apply to --kind {kind.value}")
    config = _resolve_config(args)
    corpus = _resolve_corpus(config, args, kind)
    doc = _build_chart(kind, corpus, args, config)
    path = Path(config.out) / f"{doc.kind.value}.chart"
    _write_atomic(path, doc.to_bytes())
    print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    config = _resolve_config(args)
    corpus = _resolve_corpus(config, args)
    out = Path(config.out)
    # every artifact is built before the first is written, so that a report
    # that fails leaves no partial set behind
    artifacts: dict[str, bytes] = {}
    summary: dict = {"significance_threshold": config.significance, "matrices": {}}

    # the anomaly and each type against each measure, built and aligned once
    series = {against: corpus.default_series(measure) for against, measure in _AGAINST.items()}
    tables = {against: align_union(seriess) for against, seriess in series.items()}
    for method in stats.METHODS:
        for against, table in tables.items():
            matrix = stats.correlation_matrix(table, method)
            stem = f"correlation_{method}_{against}"
            artifacts[f"{stem}.csv"] = matrix.to_delimited().encode("utf-8")
            artifacts[f"{stem}.svg"] = charts.render_heatmap_svg(matrix)
            summary["matrices"][stem] = {
                "method": method,
                "against": against,
                "significant": [
                    [a, b, f"{r:.6f}"]
                    for a, b, r in matrix.significant_pairs(config.significance)
                ],
            }

    anomaly, all_count = series["occurrence"][:2]
    root, _warnings = metrics.sunburst_deaths_affected(*metrics.deaths_and_affected(corpus))
    documents = {
        "timeseries": charts.emit_chart("timeseries", tables["occurrence"]),
        "dualaxis": charts.emit_chart("dualaxis", integrate_on_year([all_count, anomaly])),
        "stackedarea": charts.emit_chart("stackedarea", metrics.share_table(corpus, "count")),
        "sunburst": charts.emit_chart("sunburst", root),
        "choropleth": charts.emit_chart("choropleth", metrics.region_totals(corpus, "deaths")),
    }
    for name, doc in documents.items():
        artifacts[f"{name}.chart"] = doc.to_bytes()

    summary["flood_share_of_events"] = round(
        metrics.overall_share(corpus, DisasterType.FLOOD, "count"), 6
    )
    summary["artifacts"] = sorted(artifacts)
    lines = [f"report: {len(artifacts)} artifacts in {out}"]
    for stem, entry in sorted(summary["matrices"].items()):
        for a, b, r in entry["significant"]:
            lines.append(f"  {stem}: {a} ~ {b}: {r}")
    text = "\n".join(lines) + "\n"
    artifacts["summary.json"] = (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    artifacts["summary.txt"] = text.encode("utf-8")

    for name, payload in artifacts.items():
        _write_atomic(out / name, payload)
    sys.stdout.write(text)
    return 0


# -- argument plumbing -------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, out: bool, significance: bool) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--corpus", help=f"corpus directory (or ${CORPUS_ENV})")
    if out:
        sub.add_argument("--out", help="output directory (default: out)")
    if significance:
        sub.add_argument("--significance", type=float, help="|r| threshold (default 0.8)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disclim", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="parse sources and persist a corpus")
    ingest.add_argument("--region", help="disasters-by-region delimited file")
    ingest.add_argument("--types", help="disasters-by-type delimited file")
    ingest.add_argument("--anomaly", help="temperature-anomaly delimited file")
    ingest.add_argument("--tab", action="store_true", default=None,
                        help="sources are tab-delimited")
    ingest.add_argument("--null-threshold", dest="null_threshold", type=float,
                        help="drop columns at this null fraction "
                             f"(default {DEFAULT_NULL_THRESHOLD:.2f})")
    _add_common(ingest, out=False, significance=False)

    corr = commands.add_parser("corr", help="correlation matrix + heatmap")
    corr.add_argument("--method", choices=sorted(stats.METHOD_ALIASES),
                      help="estimator (default pearson)")
    corr.add_argument("--against", choices=sorted(_AGAINST), default=None,
                      help="disaster measure to correlate (default occurrence)")
    _add_common(corr, out=True, significance=True)

    chart = commands.add_parser("chart", help="emit one chart document")
    chart.add_argument("--kind", required=True,
                       choices=[k.value for k in charts.ChartKind],
                       help="which chart document to emit")
    chart.add_argument("--series", action="append",
                       help="timeseries selector '<entity-or-type>/<measure>' or 'anomaly'")
    chart.add_argument("--left", help="dualaxis primary selector")
    chart.add_argument("--right", help="dualaxis secondary selector")
    chart.add_argument("--measure", help="measure for stackedarea/choropleth")
    chart.add_argument("--year", type=int, help="restrict choropleth to one year")
    chart.add_argument("--method", choices=sorted(stats.METHOD_ALIASES))
    chart.add_argument("--against", choices=sorted(_AGAINST), default=None)
    _add_common(chart, out=True, significance=False)

    report = commands.add_parser("report", help="all matrices, charts, and a summary")
    _add_common(report, out=True, significance=True)

    return parser


_HANDLERS = {
    "ingest": _cmd_ingest,
    "corr": _cmd_corr,
    "chart": _cmd_chart,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"disclim: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"disclim: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"disclim: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
