"""Benchmark of esap end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Workloads: search, ask, sql, publish (see perfbench/workloads.py). The
program is imported from ``src/`` of the checkout the script sits in.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
second operation and prints the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a JSON report with the workload's input properties,
every named metric with its unit and sample counts, and the failure
reasons. ``correct`` is false when a check found an incorrect output (an
ACL or PII leak, a misordered list, a wrong SQL table, an unresolved
citation, a loaded index that differs, a fault in the span tree); an
operation that raised unexpectedly counts in ``failed`` only. A correct
but incomplete result (a search list cut short by the ACL filter, a
question the SQL gate leaves unanswered) is not a failed operation; it
lowers ``complete_share``. Timings are scaled to a reference host speed
(see perfbench/calibrate.py); the measured figures are in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

# one closed-loop client in one thread: stop OpenBLAS from starting a worker
# thread per core, which would also make timings depend on the other cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (must follow the thread settings)

ROOT = Path(__file__).resolve().parent.parent


def end_to_end(run, workload) -> tuple[dict, dict]:
    """(metrics for the result line, full named report)."""
    lat = run.untraced_ms
    tail = float(np.percentile(lat, workload.tail_pct))
    metrics = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "throughput_ops_s": (len(lat) / run.op_seconds, "1/s"),
        "complete_share": (1.0 - (run.failed + sum(run.incomplete.values()))
                           / run.attempted, "ratio"),
        "quality_share": (workload.quality, "ratio"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    named = dict(metrics)
    named[f"latency_p{workload.tail_pct}_ms"] = (tail, "ms")
    if len(lat) * 0.01 >= 10:
        named["latency_p99_ms"] = (float(np.percentile(lat, 99)), "ms")
    named["failed_share"] = (run.failed / run.attempted, "ratio")
    named.update(run.named)
    report = {
        "latency_samples": len(lat),
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": int(len(lat) * (100 - workload.tail_pct) / 100),
        "setup_repeats": len(run.setup_s),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return metrics, report


def per_layer(run) -> tuple[dict, dict]:
    """(per-layer metrics for the result line, call detail report).

    Shares are taken within a phase: ``<call>.op_share`` is busy time in a
    wrapped call during traced ops divided by traced op time, and
    ``<call>.setup_share`` the same during set-up, so faster set-up does
    not move op shares. ``<layer>.op_self_share`` and
    ``<layer>.setup_self_share`` split each phase's time by layer self
    time. A call or layer a workload never reaches reads 0. Per-call
    medians, busy seconds and call counts are in the report.
    """
    from perfbench.tracer import LAYERS, SETUP_OP, SETUP_SPANS, SPAN_NAMES
    tracer = run.tracer
    summary = tracer.summary()
    traced, calls = summary["traced_s"], summary["calls"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def busy(name: str, phase: str) -> float:
        return calls.get(f"{name}@{phase}", {}).get("busy_s", 0.0)

    def n_calls(name: str) -> int:
        return sum(calls.get(f"{name}@{phase}", {}).get("calls", 0)
                   for phase in ("op", "setup"))

    metrics = {f"{name}.op_share": (ratio(busy(name, "op"), traced["op"]), "ratio")
               for name in SPAN_NAMES}
    metrics.update({f"{name}.setup_share": (ratio(busy(name, "setup"),
                                                  traced["setup"]), "ratio")
                    for name in SETUP_SPANS})
    for phase in ("op", "setup"):
        for layer in LAYERS + ("unattributed",):
            metrics[f"{layer}.{phase}_self_share"] = (ratio(
                summary["layer_self_s"][phase].get(layer, 0.0), traced[phase]), "ratio")

    c = tracer.counters
    traced_ops = len(run.traced_ms)
    metrics.update({
        "lexical.hit_share": (ratio(c["lexical.returned"], c["lexical.requested"]),
                              "ratio"),
        "hybrid.acl_drop_share": (ratio(c["hybrid.acl_in"] - c["hybrid.acl_out"],
                                        c["hybrid.acl_in"]), "ratio"),
        "hybrid.short_share": (ratio(run.incomplete["short_list"], run.attempted),
                               "ratio"),
        "hybrid.redactions": (ratio(c["hybrid.redactions"], traced_ops), "count"),
        "hybrid.index_bytes": (ratio(c["hybrid.index_bytes"], c["hybrid.saves"]),
                               "bytes"),
        "ports.chat_calls": (ratio(c["ports.chat_calls"], traced_ops), "count"),
        "ports.prompt_chars": (ratio(c["ports.prompt_chars"], traced_ops), "count"),
        "ports.sql_rejected": (ratio(c["ports.sql_rejected"], traced_ops), "count"),
        "derek.drafts_per_answer": (ratio(n_calls("derek.generate"),
                                          n_calls("derek.answer")), "ratio"),
        "thor.attempts_per_question": (ratio(n_calls("thor.generate"),
                                             n_calls("thor.run")), "ratio"),
        "thor.accept_ratio": (ratio(n_calls("thor.interpret"),
                                    n_calls("thor.generate")), "ratio"),
        "trace.overhead_ms": (statistics.median(run.traced_ms)
                              - statistics.median(run.untraced_ms)
                              if run.traced_ms else 0.0, "ms"),
        "trace.spans_per_op": (ratio(sum(span.op != SETUP_OP for span in tracer.spans),
                                     traced_ops), "count"),
    })
    report = {"traced_ops": traced_ops, "untraced_ops": len(run.untraced_ms),
              "traced_s": traced, "calls": calls,
              "layer_self_s": summary["layer_self_s"],
              "counters": dict(c)}
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "esap" / "__init__.py").is_file():
        print(f"error: no esap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    run = Run(seed=args.seed, seconds=args.seconds, work=work, tracer=tracer)
    try:
        workload = WORKLOADS[args.workload](run)
        run.measure(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": run.attempted, "failed": run.failed,
              "incorrect": run.wrong, "failures": dict(run.failures),
              "incomplete": dict(run.incomplete),
              "inputs": run.props}
    metrics, report["end_to_end"] = end_to_end(run, workload)
    correct = run.wrong == 0
    if tracer is not None:
        metrics, report["per_layer"] = per_layer(run)
        faults = tracer.check_spans()
        report["span_faults"] = faults[:10]
        correct = correct and not faults
        tracer.dump(ROOT / ".perfbench_out"
                    / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
