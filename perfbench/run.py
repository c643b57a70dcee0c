"""owalk benchmark: one run of one workload, checked against independent oracles.

    python3 perfbench/run.py --workload {survey,pst-scan,mst-autos} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run times owalk's set-up in fresh
interpreters, then starts one worker process (perfbench/worker.py) that
runs whole rounds of the workload's op list for about S seconds, with
BLAS pinned to one thread.  After the worker has exited, every distinct
output of the first round is checked by perfbench/oracle.py (numpy, scipy
and sympy; no owalk code) in this process, so the checks are neither timed
nor counted in the memory figure.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics of
one traced round when --trace 1.  Spans of a traced run are written to
perfbench/_work/trace-<workload>-<seed>.json.  Exits 1 without a result
when owalk cannot be run or checked.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = {"survey": 3, "pst-scan": 6, "mst-autos": 6}
TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: argparse.Namespace, work: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work", work,
        "--seconds", str(args.seconds),
        *extra,
    ]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return proc


def measure(args: argparse.Namespace, work: str) -> tuple[dict, list[float], list[float]]:
    """Set-up and import times of fresh interpreters, then the timed run.

    The first probe is not counted: it fills the bytecode cache of a fresh checkout.
    """
    _worker(args, work, "--probe")
    probes = [json.loads(_worker(args, work, "--probe").stdout) for _ in range(SETUP_PROBES[args.workload])]
    _worker(args, work, *(["--trace"] if args.trace else []))
    with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    probes.append(result)
    return result, [p["setup_s"] for p in probes], [p["import_s"] for p in probes]


def _verdict(graph: oracle.Graph, op: dict, out: dict) -> tuple[str, str]:
    """("ok" | "failed" | "wrong", description) of one op's output."""
    label = " ".join(op["argv"]) if "argv" in op else json.dumps(op)
    if out.get("rc", 0) != 0:
        return "failed", f"failed: {label} exited with {out['rc']}"
    try:
        lost = oracle.check_op(graph, op, out)
    except oracle.Wrong as exc:
        return "wrong", f"wrong: {label}: {exc}"
    if lost:
        return "failed", f"failed: {label} misses {lost} of {oracle.expected_events(graph, op)} events"
    return "ok", ""


def check(plan: dict, result: dict) -> tuple[bool, list[str], list[int], list[str]]:
    """Oracle status and expected PST events of every op of a round, and the problems found."""
    graphs = {name: oracle.Graph(name, spec) for name, spec in plan["graphs"].items()}
    verdicts: dict[tuple[str, str], tuple[str, str]] = {}
    outputs_of: dict[str, set[str]] = {}
    statuses = []
    for op, out in zip(plan["ops"], result["outputs"]):
        key = (json.dumps(op, sort_keys=True), json.dumps(out, sort_keys=True))
        outputs_of.setdefault(key[0], set()).add(key[1])
        if key not in verdicts:
            verdicts[key] = _verdict(graphs[op["graph"]], op, out)
        statuses.append(verdicts[key][0])
    problems = [message for _, message in verdicts.values() if message]
    problems += [f"wrong: {op} gave {len(outs)} different outputs" for op, outs in outputs_of.items() if len(outs) > 1]
    if result["mismatches"]:
        problems.append(f"wrong: {result['mismatches']} outputs of later rounds differ from the first round's")
    correct = not any(p.startswith("wrong") for p in problems)
    expected = [oracle.expected_events(graphs[op["graph"]], op) for op in plan["ops"]]
    return correct, statuses, expected, problems


def quantile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    x = (len(s) - 1) * p
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def latencies(ops: list[dict], rounds: list[dict]) -> list[float]:
    """Per-op latency: the median wall time of the op's class over the run.

    Short ops are timed in classes of like ops spread over the round, so a
    slow second of the machine does not land on a single percentile, and
    the median keeps a few slow forks from moving a class."""
    classes = [workloads.op_class(op) for op in ops]
    times: dict[str, list[float]] = {}
    for r in rounds:
        for key, t in zip(classes, r["op_s"]):
            times.setdefault(key, []).append(t)
    median = {key: statistics.median(ts) for key, ts in times.items()}
    return [median[key] for key in classes for _ in rounds]


def end_to_end(ops: list[dict], result: dict, setups: list[float]) -> dict:
    lat = latencies(ops, result["rounds"])
    wall = sum(r["wall_s"] for r in result["rounds"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / wall, "1/s"),
        "latency_p50_s": (quantile(lat, 0.5), "s"),
        "latency_p90_s": (quantile(lat, 0.9), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


LAYER_SPANS = [
    # (metric, span, field, unit)
    ("spectral.decompose_s", "spectral.decompose", "self_s", "s"),
    ("spectral.decompose_calls", "spectral.decompose", "calls", "count"),
    ("spectral.amplitude_samples_s", "spectral.amplitude_samples", "self_s", "s"),
    ("spectral.propagator_column_s", "spectral.propagator_column", "self_s", "s"),
    ("spectral.propagator_column_calls", "spectral.propagator_column", "calls", "count"),
    ("arithmetic.char_poly_s", "arithmetic.char_poly", "self_s", "s"),
    ("arithmetic.char_poly_calls", "arithmetic.char_poly", "calls", "count"),
    ("arithmetic.profile_s", "arithmetic.quadratic_integer_profile", "self_s", "s"),
    ("cospectral.support_s", "cospectral.eigenvalue_support", "self_s", "s"),
    ("cospectral.support_calls", "cospectral.eigenvalue_support", "calls", "count"),
    ("cospectral.strong_s", "cospectral.strong_cospectrality", "self_s", "s"),
    ("cospectral.strong_calls", "cospectral.strong_cospectrality", "calls", "count"),
    ("periodicity.is_periodic_s", "periodicity.is_periodic", "self_s", "s"),
    ("periodicity.is_periodic_calls", "periodicity.is_periodic", "calls", "count"),
    ("periodicity.verify_period_s", "periodicity.verify_period", "self_s", "s"),
    ("transfer.scan_s", "transfer.scan_pst", "self_s", "s"),
    ("transfer.scan_amplitude_evals", "transfer.scan_pst", "amplitude_evals", "count"),
    ("transfer.verify_pst_s", "transfer.verify_pst", "self_s", "s"),
    ("transfer.verify_pst_calls", "transfer.verify_pst", "calls", "count"),
    ("transfer.events_reported", "transfer.scan_pst", "events", "count"),
    ("transfer.complete_char_s", "transfer.complete_char", "self_s", "s"),
    ("transfer.complete_char_calls", "transfer.complete_char", "calls", "count"),
    ("transfer.complete_char_certs", "transfer.complete_char", "certs", "count"),
    ("transfer.mst_search_s", "transfer.mst_search", "self_s", "s"),
    ("autos.search_s", "autos.find_switching_automorphisms", "self_s", "s"),
    ("autos.search_calls", "autos.find_switching_automorphisms", "calls", "count"),
    ("autos.found", "autos.find_switching_automorphisms", "found", "count"),
    ("autos.order_s", "autos.order", "self_s", "s"),
    ("graph.parse_s", "graph.parse_graph", "self_s", "s"),
    ("cli.self_s", "cli.main", "self_s", "s"),
]


def per_layer(result: dict, imports: list[float], expected: list[int]) -> dict:
    layers = result["layers"]
    out = {m: (layers.get(f"{span}.{field}", 0), unit) for m, span, field, unit in LAYER_SPANS}
    out["spectral.projector_mb"] = (layers["projector_bytes_max"] / 1e6, "MB")
    out["transfer.events_expected"] = (sum(expected), "count")
    reports = [len(o.get("stdout", "").encode()) for o in result["outputs"]]
    out["cli.report_bytes"] = (sum(reports), "bytes")
    out["setup.import_s"] = (statistics.median(imports), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "owalk", "cli.py")):
        print(f"owalk sources not found under {ROOT}/src", file=sys.stderr)
        return 1

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    try:
        result, setups, imports = measure(args, work)
        plan = workloads.plan(args.workload, args.seed)
        correct, statuses, expected, problems = check(plan, result)
        if args.trace:
            shutil.copy(
                os.path.join(work, "spans.json"),
                os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"),
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line, file=sys.stderr)
    rounds = len(result["rounds"])
    metrics = per_layer(result, imports, expected) if args.trace else end_to_end(plan["ops"], result, setups)
    print(
        f"{args.workload} seed {args.seed}: {rounds} round(s) of {len(statuses)} ops, "
        f"round wall {[round(r['wall_s'], 3) for r in result['rounds']]} s",
        file=sys.stderr,
    )
    summary = {
        "correct": correct,
        "attempted": rounds * len(statuses),
        "failed": rounds * statuses.count("failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
