"""Run the benchmark several times per workload, one seed per run, and summarise.

    python3 perfbench/stability.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/stability.py --runs 5 --workloads correlate-wide --compare perfbench/baseline.json

Seeds run from 1 to --runs, each run lasts BENCHMARK.json's run_seconds.
For each end-to-end metric it reports the median of the runs, their quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
A metric is steady when its spread is below a third of its bound; setup_s is
exempt.  ``--compare`` also prints each median against a saved summary's and
marks any that is worse by more than the bound.  One traced run per workload
adds the per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "platform": platform.platform()}
    try:
        import numpy
        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = None
    try:
        facts["git_revision"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        facts["git_revision"] = None
    return facts


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for entry in spec["end_to_end"]:
        values = [r["metrics"][entry["name"]]["value"] for r in runs]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        out[entry["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": entry["bound"],
            "steady": entry["name"] == "setup_s" or spread < entry["bound"] / 3,
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--compare", help="a summary written earlier by --out")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    seconds = spec["run_seconds"]
    summary = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(1, args.runs + 1)
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = run_once(workload, 1, seconds, 1)
        entry = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": summarise(runs, spec),
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, stat in entry["end_to_end"].items():
            line = (f"  {name:<14} median {stat['median']:12.3f}  spread {stat['spread']:.4f}"
                    f"  bound {stat['bound']:.2f}  {'steady' if stat['steady'] else 'NOT STEADY'}")
            if earlier and workload in earlier["workloads"]:
                before = earlier["workloads"][workload]["end_to_end"][name]["median"]
                better = next(e["better"] for e in spec["end_to_end"] if e["name"] == name)
                change = stat["median"] / before - 1.0
                worse = change if better == "lower" else -change
                line += f"  vs earlier {change:+.2%}{'  WORSE THAN BOUND' if worse > stat['bound'] else ''}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
