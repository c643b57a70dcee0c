"""Reference figures for the README: end-to-end medians, per-layer totals, tracing overhead.

    python3 perfbench/reference.py [--seeds 1,2,3] [--seconds 36]

For each workload: untraced runs on every seed (medians of the end-to-end
metrics), then one traced run on the first seed (per-layer totals of one
round).  The tracing overhead is given twice: the traced round's wall time
minus the median untraced round wall time (as noisy as the machine), and
the spans of the traced round times the cost of one span measured here.
Prints markdown tables.
"""

from __future__ import annotations

import argparse
import os
import timeit
import shutil
import statistics
import sys
import time

import layertrace
import run
import workloads


def span_cost() -> float:
    """Seconds one span adds to a call of a wrapped function."""
    def noop():
        return None

    tracer = layertrace.Tracer()
    traced = tracer.wrap("noop", noop)
    calls = 200_000

    def best(fn) -> float:
        return min(timeit.repeat(lambda: (fn(), tracer.spans.clear()), number=calls, repeat=5))

    return max(best(traced) - best(noop), 0.0) / calls


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[float], int]:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)
    work = os.path.join(run.WORK, f"reference-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    try:
        result, setups, imports = run.measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plan = workloads.plan(workload, seed)
    correct, statuses, expected, problems = run.check(plan, result)
    if not correct:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    metrics = run.per_layer(result, imports, expected) if trace else run.end_to_end(plan["ops"], result, setups)
    spans = sum(v for k, v in (result.get("layers") or {}).items() if k.endswith(".calls"))
    return metrics, [r["wall_s"] for r in result["rounds"]], spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    e2e: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    overhead: dict[str, tuple[float, float, int]] = {}
    for workload in workloads.WORKLOADS:
        runs = [one_run(workload, seed, args.seconds, 0) for seed in seeds]
        e2e[workload] = {k: statistics.median(m[k][0] for m, _, _ in runs) for k in runs[0][0]}
        units = {k: u for k, (_, u) in runs[0][0].items()}
        untraced = statistics.median(w for _, walls, _ in runs for w in walls)
        traced_metrics, traced_walls, spans = one_run(workload, seeds[0], args.seconds, 1)
        layers[workload] = traced_metrics
        overhead[workload] = (traced_walls[0] - untraced, untraced, spans)
    print(f"End-to-end medians over seeds {args.seeds} (`--seconds {args.seconds:g}`):\n")
    print("| metric | unit | " + " | ".join(workloads.WORKLOADS) + " |")
    print("| --- | --- |" + " --- |" * len(workloads.WORKLOADS))
    for name in e2e["survey"]:
        cells = " | ".join(f"{e2e[w][name]:.4g}" for w in workloads.WORKLOADS)
        print(f"| `{name}` | {units[name]} | {cells} |")
    print(f"\nPer-layer totals of one traced round (seed {seeds[0]}):\n")
    print("| metric | unit | " + " | ".join(workloads.WORKLOADS) + " |")
    print("| --- | --- |" + " --- |" * len(workloads.WORKLOADS))
    for name, (_, unit) in layers["survey"].items():
        cells = " | ".join(f"{layers[w][name][0]:.4g}" for w in workloads.WORKLOADS)
        print(f"| `{name}` | {unit} | {cells} |")
    cost = span_cost()
    print(f"\nTracing overhead per round: traced minus median untraced round wall; spans x {cost * 1e6:.2f} us:\n")
    for w, (extra, base, spans) in overhead.items():
        print(
            f"- {w}: {extra:+.2f} s on {base:.2f} s ({100 * extra / base:+.1f} %); "
            f"{spans} spans x {cost * 1e6:.2f} us = {spans * cost:.3f} s ({100 * spans * cost / base:.1f} %)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
