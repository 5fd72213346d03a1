"""Run every workload over a range of seeds and summarise the figures.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/baseline.json

Each seed gets one untraced run per workload, one after another in a
single process at a time; the first seed also gets one traced run per
workload. For every end-to-end metric the summary gives the median over
the seeds and the spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, and a table of both is printed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, report) of one run; the report gains the run's wall
    seconds, set-up and input generation included."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    report["wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarise(values: dict[str, list[float]], units: dict[str, str]) -> dict:
    return {name: {"median": statistics.median(v), "unit": units[name],
                   "spread": spread(v), "values": v}
            for name, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: those in BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds, seconds = seed_range(args.seeds), bench["run_seconds"]

    summary = {"conditions": {
        "machine": f"{platform.machine()}, {platform.system()}",
        "python": platform.python_version(), "numpy": np.__version__,
        "run_seconds": seconds,
        "seeds": f"{args.seeds}, one untraced run each; traced: seed {seeds[0]}",
        "statistic": "median over the seeds; spread = (q3 - q1) / median"},
        "workloads": {}}
    for workload in workloads:
        e2e: dict[str, list[float]] = {}
        report_values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted, failed, wall, first = [], [], [], None
        for seed in seeds:
            result, report = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {report['failures']}",
                      file=sys.stderr)
            first = first or report
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            wall.append(report["wall_s"])
            for name, metric in result["metrics"].items():
                e2e.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            for name, metric in report["end_to_end"]["metrics"].items():
                if name not in result["metrics"]:
                    report_values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        traced, traced_report = run_once(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "runs": len(seeds), "attempted": attempted, "failed": failed,
            "wall_s": wall,
            "inputs": first["inputs"], "incomplete_first_run": first["incomplete"],
            "end_to_end": summarise(e2e, units),
            "report_metrics": {name: {"median": statistics.median(v), "unit": units[name]}
                               for name, v in report_values.items()},
            "traced": {
                "correct": traced["correct"],
                "span_faults": traced_report.get("span_faults", []),
                "wall_s": traced_report["wall_s"],
                "traced_ops": traced_report["per_layer"]["traced_ops"],
                "untraced_ops": traced_report["per_layer"]["untraced_ops"],
                "traced_s": traced_report["per_layer"]["traced_s"],
                "metrics": {k: round(v["value"], 6)
                            for k, v in traced["metrics"].items()},
                "calls": traced_report["per_layer"]["calls"]},
        }
        print(f"{workload}: attempted {sum(attempted)}, failed {sum(failed)}, "
              f"wall per run {statistics.median(wall):.1f} s (median)")
        for name, s in summary["workloads"][workload]["end_to_end"].items():
            print(f"  {name:18s} {s['median']:12.5g} {s['unit']:6s} spread {s['spread']:.3f}")
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
