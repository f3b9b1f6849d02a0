"""disclim benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; disclim is imported from ``src/`` of the checkout that
holds this file.  The run prints a human-readable block (the workload's own
metric names, each with its unit) and, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
every ``end_to_end`` metric of BENCHMARK.json, ``--trace 1`` every
``per_layer`` one.  See perfbench/README.md for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibration
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "disclim" / "data" / "bundled"
WORKLOADS = ("cli-cold", "ingest-bulk", "correlate-wide")
CORR_ARGS = ("corr", "--method", "pearson", "--against", "occurrence")


def tail(values):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum is used.
    """
    ordered, n = sorted(values), len(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Process:
    """One child process, timed from spawn to exit, with its peak RSS."""

    def __init__(self, cmd, env, stdout: Path, stderr: Path):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = perf_counter()
            pid = os.posix_spawn(cmd[0], cmd, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ])
            _, status, usage = os.wait4(pid, 0)
            self.wall_ms = 1000.0 * (perf_counter() - t0)
        self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout, self.stderr = stdout, stderr


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("DISCLIM_CORPUS_DIR", None)
    return env


# -- cli-cold ----------------------------------------------------------------


def snapshot(out_dir: Path, stdout: Path) -> dict[str, bytes]:
    """Every artifact plus stdout, with the output path masked out."""
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    files["<stdout>"] = stdout.read_bytes()
    masked = str(out_dir).encode()
    for name in ("summary.txt", "<stdout>"):
        if name in files:
            files[name] = files[name].replace(masked, b"<out>")
    return files


def _bundled_occurrence_series() -> dict[str, dict[int, float]]:
    """The corr inputs, read from the bundled CSVs without disclim."""
    series: dict[str, dict[int, float]] = {}
    with open(BUNDLED / "disasters_by_type.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["OCCURRENCES"]:
                by_year = series.setdefault(row["ENTITY"], {})
                year = int(row["YEAR"][:4])
                by_year[year] = by_year.get(year, 0.0) + float(row["OCCURRENCES"])
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    with open(BUNDLED / "temperature_anomaly_monthly.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            year = int(row["DATE"][:4])
            sums[year] = sums.get(year, 0.0) + float(row["TEMPERATURE_ANOMALY"])
            counts[year] = counts.get(year, 0) + 1
    series["Temperature Anomaly"] = {y: sums[y] / counts[y] for y in sums}
    return series


def check_corr_csv(text: str) -> list[str]:
    """Compare the corr matrix CSV (6 decimals) with the reference Pearson."""
    series = _bundled_occurrence_series()
    rows = list(csv.reader(text.splitlines()))
    labels = rows[0][1:]
    if sorted(labels) != sorted(series):
        return [f"corr labels {labels} != {sorted(series)}"]
    years = sorted({y for s in series.values() for y in s})
    problems = []
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            if i == j:
                continue
            x = [series[labels[i]].get(y) for y in years]
            y = [series[labels[j]].get(y) for y in years]
            expected = reference.cell("pearson", x, y)[1]
            got = float(cell) if cell else None
            if (got is None) != (expected is None) or (
                got is not None and abs(got - expected) > 6e-7
            ):
                problems.append(f"corr {labels[i]} ~ {labels[j]} = {cell!r}, reference {expected!r}")
    return problems


def cli_cold(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Cold `python -m disclim` processes, one at a time, closed loop.

    The inputs are the bundled corpus whatever the seed.
    """
    # the CLI processes run on the CPU this process runs the calibration
    # kernel on, so that the kernel measures the speed of their core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    python = sys.executable
    numbers = itertools.count(1)

    def cli(args, traced=False) -> Process:
        base = workdir / f"proc{next(numbers)}"
        if traced:
            cmd = [python, "-X", "importtime", str(HERE / "cli_shim.py"),
                   f"{base}.spans.json", *args]
        else:
            cmd = [python, "-m", "disclim", *args]
        proc = Process(cmd, env, Path(f"{base}.out"), Path(f"{base}.err"))
        proc.spans = Path(f"{base}.spans.json")
        return proc

    corpus_dir = workdir / "corpus"
    ref_dir = workdir / "reference"

    def set_up() -> list[Process]:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        shutil.rmtree(ref_dir, ignore_errors=True)
        made = [cli(["ingest", "--region", str(BUNDLED / "disasters_by_region.csv"),
                     "--types", str(BUNDLED / "disasters_by_type.csv"),
                     "--anomaly", str(BUNDLED / "temperature_anomaly_monthly.csv"),
                     "--corpus", str(corpus_dir)])]
        made.append(cli([*CORR_ARGS, "--out", str(ref_dir / "corr")]))
        made.append(cli(["report", "--corpus", str(corpus_dir), "--out", str(ref_dir / "report")]))
        return made

    setup = []
    for _ in range(calibration.SETUP_REPEATS):
        steps = calibration.Steps()
        made = steps.run("setup", set_up)
        setup.append(steps.record)
        for proc in made:
            if proc.code != 0:
                raise SystemExit(f"set-up command failed ({proc.code}): "
                                 + proc.stderr.read_text(errors="replace")[-2000:])
    ref_corr = snapshot(ref_dir / "corr", made[1].stdout)
    ref_report = snapshot(ref_dir / "report", made[2].stdout)
    reference_problems = check_corr_csv(ref_corr["correlation_pearson_occurrence.csv"].decode())

    def one_iteration(traced: bool) -> dict:
        out = workdir / "iteration"
        shutil.rmtree(out, ignore_errors=True)
        steps = calibration.Steps()
        corr = steps.run("corr", lambda: cli([*CORR_ARGS, "--out", str(out / "corr")], traced))
        report = steps.run("report", lambda: cli(
            ["report", "--corpus", str(corpus_dir), "--out", str(out / "report")], traced))
        problems, failed_ops = [], 0
        for proc, ref, sub in ((corr, ref_corr, "corr"), (report, ref_report, "report")):
            # corr's outputs are only right if the reference they match is
            found = list(reference_problems) if sub == "corr" else []
            if proc.code != 0:
                found.append(f"{sub} exited {proc.code}")
            elif snapshot(out / sub, proc.stdout) != ref:
                found.append(f"{sub} artifacts differ from the set-up reference")
            failed_ops += bool(found)
            problems += found
        record = {**steps.record, "rss_mb": max(corr.rss_mb, report.rss_mb),
                  "ok": not problems, "problems": problems[:5], "failed_ops": failed_ops}
        if traced:
            record["layers"] = cli_layers([corr, report])
        return record

    # traced runs alternate untraced and traced iterations
    records = calibration.closed_loop(seconds, lambda i: one_iteration(trace and i % 2 == 1))
    return {"setup": setup, "work": 2, "ops_per_iteration": 2,
            "untraced": records[::2] if trace else records,
            "traced": records[1::2] if trace else []}


def cli_layers(procs: list[Process]) -> dict:
    """Per-layer values of one cli-cold iteration, summed over its processes."""
    spans, counts = [], {}
    imports = {"import.disclim_ms": 0.0, "import.numpy_ms": 0.0, "import.self_ms": 0.0}
    wall = 0.0
    for proc in procs:
        recorded = json.loads(proc.spans.read_text())
        offset = len(spans)
        spans += [[n, p + offset if p >= 0 else -1, s, e] for n, p, s, e in recorded["spans"]]
        for key, value in recorded["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in tracing.import_times(proc.stderr.read_text(errors="replace")).items():
            imports[key] += value
        wall += proc.wall_ms
    layers = tracing.layer_metrics(spans, counts)
    layers["cli.process_overhead_ms"] = wall - layers["cli.main_ms"]
    layers.update(imports)
    return layers


# -- in-process workloads ----------------------------------------------------


def in_process(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "inproc.py"),
           workload, str(seed), repr(seconds), "1" if trace else "0",
           str(workdir / "result.json"), str(workdir)]
    proc = Process(cmd, child_env(), workdir / "child.out", workdir / "child.err")
    if proc.code != 0:
        raise SystemExit(f"{workload} child exited {proc.code}: "
                         + proc.stderr.read_text(errors="replace")[-2000:])
    stderr = proc.stderr.read_text(errors="replace")
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            print(line, file=sys.stderr)
    result = json.loads((workdir / "result.json").read_text())
    imports = tracing.import_times(stderr)
    for record in result["untraced"] + result["traced"]:
        record["rss_mb"] = result["rss_mb"]
        record["failed_ops"] = 0 if record["ok"] else 1
        if "layers" in record:
            record["layers"].update(imports, **{"cli.process_overhead_ms": 0.0})
    result["ops_per_iteration"] = 1
    return result


# -- reporting ---------------------------------------------------------------

# step -> the timed sections it adds up, in the order each workload records them
SECTIONS = {
    "cli-cold": {"step1": ("corr",), "step2": ("report",)},
    "ingest-bulk": {"step1": ("parse", "build"), "step2": ("save", "reload")},
    # one section per matrix (disclim.stats.METHODS), so that each stays short
    # enough for the kernel around it to track the host's speed
    "correlate-wide": {"step1": ("select", "pearson", "spearman", "kendall-tau-a", "kendall-tau-b"),
                       "step2": ("render",)},
}

# the workload's own metric names: (name, unit, section, statistic)
OWN_METRICS = {
    "cli-cold": (("corr_cold_ms", "ms", "step1", "median"),
                 ("corr_cold_tail_ms", "ms", "step1", "tail"),
                 ("report_cold_ms", "ms", "step2", "median"),
                 ("report_cold_tail_ms", "ms", "step2", "tail")),
    "ingest-bulk": (("ingest_rows_per_s", "1/s", "step1", "rate"),
                    ("save_ms", "ms", "save", "median"),
                    ("reload_ms", "ms", "reload", "median")),
    "correlate-wide": (("pairs_per_s", "1/s", "iter", "rate"),
                       ("analysis_ms", "ms", "iter", "median"),
                       ("analysis_tail_ms", "ms", "iter", "tail")),
}


def at_reference(record: dict, key: str) -> float:
    """Seconds of section *key* at the reference host speed (see calibration.py)."""
    return record[key] * calibration.REFERENCE_S / record[key + "_cal"]


def section_ms(record: dict, steps: dict, scaled: bool) -> dict[str, float]:
    """Milliseconds per timed section, per step and for the whole iteration,
    at the reference host speed when *scaled*, else as raw wall time."""
    out = {}
    for sections in steps.values():
        for key in sections:
            out[key] = 1000.0 * (at_reference(record, key) if scaled else record[key])
    for step, sections in steps.items():
        out[step] = sum(out[key] for key in sections)
    out["iter"] = sum(out[step] for step in steps)
    return out


def statistic(stat: str, samples: list[float], work: int) -> tuple[float, str]:
    if stat == "median":
        return statistics.median(samples), f"median of {len(samples)}"
    if stat == "tail":
        value, pct, n = tail(samples)
        return value, f"p{pct:.0f} of {n} samples"
    return 1000.0 * work / statistics.median(samples), "over the median"


def report(workload: str, result: dict, trace: bool, spec: dict) -> dict:
    iterations = result["untraced"] + result["traced"]
    attempted = result["ops_per_iteration"] * len(iterations)
    failed = sum(r["failed_ops"] for r in iterations)
    sections = SECTIONS[workload]
    timed = [r for r in result["untraced"]
             if all(key in r for keys in sections.values() for key in keys)]
    if not timed:
        raise SystemExit(f"{workload}: no iteration completed: {iterations[0]['problems']}")
    scaled = [section_ms(r, sections, True) for r in timed]
    steps = {key: [t[key] for t in scaled] for key in scaled[0]}
    walls = {key: [section_ms(r, sections, False)[key] for r in timed] for key in scaled[0]}
    setup = [at_reference(s, "setup") for s in result["setup"]]
    iter_tail = tail(steps["iter"])
    values = {
        "setup_s": statistics.median(setup),
        "step1_ms": statistics.median(steps["step1"]),
        "step2_ms": statistics.median(steps["step2"]),
        "iter_ms": statistics.median(steps["iter"]),
        "iter_tail_ms": iter_tail[0],
        "work_per_s": 1000.0 * result["work"] / statistics.median(steps["iter"]),
        "peak_rss_mb": max(r["rss_mb"] for r in timed),
    }

    print(f"{workload}: {len(timed)} timed iterations, {attempted} operations, {failed} failed"
          " (times at reference host speed, raw wall times in brackets)")
    for name, unit, step, stat in OWN_METRICS[workload]:
        value, note = statistic(stat, steps[step], result["work"])
        wall, _ = statistic(stat, walls[step], result["work"])
        print(f"  {name:<20} {value:12.3f} {unit:<4} [{wall:12.3f}]  {note}")
    wall_setup = statistics.median(s["setup"] for s in result["setup"])
    print(f"  {'setup_s':<20} {values['setup_s']:12.3f} s    [{wall_setup:12.3f}]"
          f"  median of {len(setup)}")
    print(f"  {'failed_ratio':<20} {failed / attempted:12.3f}       {failed}/{attempted}")
    print(f"  {'peak_rss_mb':<20} {values['peak_rss_mb']:12.1f} MB")
    print(f"  iter_tail_ms is p{iter_tail[1]:.0f} of {iter_tail[2]} samples")
    for problem in sorted({p for r in iterations for p in r["problems"]})[:10]:
        print(f"  problem: {problem}")

    listed = spec["end_to_end"]
    if trace:
        traced = [r for r in result["traced"] if "layers" in r]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # traced and untraced iterations alternate, so host drift cancels
        values["trace.overhead_ms"] = (
            statistics.median(section_ms(r, sections, True)["iter"] for r in traced)
            - statistics.median(steps["iter"])
        )
        listed = spec["per_layer"]
        for entry in listed:
            print(f"  {entry['name']:<30} {values[entry['name']]:14.4f} {entry['unit']}")
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in listed}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disclim" / "__init__.py").is_file():
        print(f"perfbench: no disclim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_build"))
        try:
            if workload == "cli-cold":
                result = cli_cold(args.seed, args.seconds, bool(args.trace), workdir)
            else:
                result = in_process(workload, args.seed, args.seconds, bool(args.trace), workdir)
            print(json.dumps(report(workload, result, bool(args.trace), spec)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
