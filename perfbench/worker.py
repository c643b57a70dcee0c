"""Timed part of one benchmark run: set up, then run whole rounds of the op list.

    python3 perfbench/worker.py --workload W --seed N --work DIR [--seconds S] [--trace] [--probe]

Started by run.py in a fresh interpreter with owalk's ``src`` on PYTHONPATH
and BLAS pinned to one thread.  Only the stdlib is imported before the
timed import of owalk.  ``--probe`` times the set-up alone and prints it.
Otherwise the worker writes ``DIR/result.json``: set-up time, the wall time
of every op of every round, the outputs of the first round for the oracle
checks, how many later outputs differed from them, the peak resident set
of the processes that ran owalk, and (traced) the per-layer totals.

CLI ops fork one child per invocation from the worker, which has imported
owalk.cli but run nothing, so no state carries from one op to the next.
Survey ops run in the worker on one shared decomposition per graph.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import layertrace
import workloads

MIN_OPS = 100  # the 90th percentile needs at least this many ops per run


def _write_graph_files(graphs: dict, work: str) -> dict[str, str]:
    paths = {}
    for name, spec in graphs.items():
        if spec["family"] == "builtin":
            paths[name] = name
            continue
        path = os.path.join(work, f"{name}.og")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(workloads.graph_text(spec))
        paths[name] = path
    return paths


# --- CLI workloads ----------------------------------------------------------


class CliSession:
    def __init__(self, plan: dict, work: str, tracer):
        t0 = time.perf_counter()
        import owalk.cli

        t1 = time.perf_counter()
        self.paths = _write_graph_files(plan["graphs"], work)
        t2 = time.perf_counter()
        self.import_s, self.setup_s = t1 - t0, t2 - t0
        self.work = work
        self.tracer = tracer
        self.peak_rss_kb = 0
        self.invocations = 0
        if tracer:
            layertrace.install(tracer)
        self.main = owalk.cli.main

    def run_op(self, op: dict) -> tuple[float, dict]:
        """Invoke the op in its own forked child; return wall time and output."""
        argv = [op["argv"][0], self.paths[op["argv"][1]], *op["argv"][2:], "--json"]
        self.invocations += 1
        span_path = os.path.join(self.work, f"spans-{self.invocations}.json")
        t0 = time.perf_counter()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one fresh CLI invocation, stdout into the pipe
            code = 70
            try:
                os.close(r)
                sys.stdout = open(w, "w", encoding="utf-8")
                if self.tracer:
                    self.tracer.proc = self.invocations
                try:
                    code = self.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                sys.stdout.flush()
                if self.tracer:
                    with open(span_path, "w", encoding="utf-8") as handle:
                        json.dump(self.tracer.spans, handle)
            except BaseException:
                traceback.print_exc()
                code = 70
            finally:
                os._exit(code)
        os.close(w)
        with open(r, "rb") as pipe:
            out = pipe.read()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        result = {"rc": os.waitstatus_to_exitcode(status), "stdout": out.decode("utf-8")}
        if self.tracer:
            with open(span_path, encoding="utf-8") as handle:
                result["spans"] = json.load(handle)
            os.remove(span_path)
        return wall, result


# --- survey -------------------------------------------------------------------


class SurveySession:
    def __init__(self, plan: dict, work: str, tracer):
        t0 = time.perf_counter()
        import owalk

        t1 = time.perf_counter()
        if tracer:
            layertrace.install(tracer)
        self.owalk = owalk
        self.graphs = {}
        self.sds = {}
        for name, spec in plan["graphs"].items():
            n, edges = workloads.graph_edges(spec)
            self.graphs[name] = owalk.build_graph(n, edges)
            self.sds[name] = owalk.decompose(self.graphs[name])
        t2 = time.perf_counter()
        self.import_s, self.setup_s = t1 - t0, t2 - t0

    def run_op(self, op: dict) -> tuple[float, dict]:
        t0 = time.perf_counter()
        raw = self._op(op)
        wall = time.perf_counter() - t0
        return wall, self._describe(op, raw)

    @property
    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _op(self, op: dict):
        ow, sd = self.owalk, self.sds[op["graph"]]
        kind = op["kind"]
        if kind == "verdict":
            support = ow.eigenvalue_support(sd, op["vertex"])
            cert = ow.is_periodic(sd, support)
            return support, cert, cert is not None and ow.verify_period(sd, cert)
        if kind == "cospectral":
            return ow.strong_cospectrality(sd, op["a"], op["b"])
        if kind == "char_poly":
            return ow.char_poly(self.graphs[op["graph"]])
        if kind == "support":
            return ow.eigenvalue_support(sd, op["vertex"])
        raise ValueError(f"unknown survey op {kind!r}")

    def _describe(self, op: dict, raw) -> dict:
        """JSON form of an op's result (made outside the timed region)."""
        y = self.sds[op["graph"]].eigenvalues
        kind = op["kind"]
        if kind == "verdict":
            support, cert, verified = raw
            out = {"support_y": [float(y[r]) for r in support.members], "periodic": cert is not None}
            if cert is not None:
                out.update(
                    delta=cert.delta,
                    b=[[float(y[r]), b] for r, b in sorted(cert.b_coeffs.items())],
                    g=cert.g,
                    phase=cert.phase,
                    sigma=cert.sigma,
                    zero_in_support=cert.zero_in_support,
                    verified=bool(verified),
                )
            return out
        if kind == "cospectral":
            if raw is None:
                return {"strongly_cospectral": False}
            return {
                "strongly_cospectral": True,
                "quarrels": [[float(y[r]), q] for r, q in sorted(raw.quarrels.items())],
            }
        if kind == "char_poly":
            return {"coeffs": [str(c) for c in raw.coeffs]}
        return {"support_y": [float(y[r]) for r in raw.members]}


# --- main ---------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    plan = workloads.plan(args.workload, args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    session_type = SurveySession if args.workload == "survey" else CliSession
    session = session_type(plan, args.work, tracer)
    if args.probe:
        print(json.dumps({"setup_s": session.setup_s, "import_s": session.import_s}))
        return 0

    ops = plan["ops"]
    rounds: list[dict] = []
    first: list[dict] = []
    mismatches = 0
    child_spans: list[list] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times, outputs = [], []
        for op in ops:
            wall, out = session.run_op(op)
            times.append(wall)
            layertrace.merge(child_spans, out.pop("spans", []))
            outputs.append(out)
        rounds.append({"wall_s": time.perf_counter() - t0, "op_s": times})
        if len(rounds) == 1:
            first = outputs
        mismatches += sum(out != ref for out, ref in zip(outputs, first))
        if tracer:
            break  # the traced run times one round: its totals are per round
        # whole rounds only: stop once another round would end past the requested time
        elapsed = time.perf_counter() - start
        if len(rounds) * len(ops) >= MIN_OPS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    result = {
        "setup_s": session.setup_s,
        "import_s": session.import_s,
        "rounds": rounds,
        "outputs": first,
        "mismatches": mismatches,
        "peak_rss_kb": session.peak_rss_kb,
    }
    if tracer:
        spans = tracer.spans + child_spans
        result["layers"] = layertrace.layer_metrics(spans)
        with open(os.path.join(args.work, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
