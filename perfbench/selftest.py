"""Self-test of the benchmark's checker: corrupted reports must be flagged.

    python3 perfbench/selftest.py

Produces genuine owalk outputs in-process (k3 PST scan, k3 automorphisms,
Paley 7 and cycle 5 periodicity verdicts), confirms that the oracle accepts
them, then corrupts each one and confirms that the oracle flags it: a PST
time shifted by 1e-6, one dropped event, one automorphism sign flipped, a
wrong Delta, and a flipped periodicity verdict.  Exits 1 if any clean
output is rejected or any corruption goes unflagged.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import worker  # noqa: E402


def cli_output(argv: list[str]) -> dict:
    import owalk.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = owalk.cli.main(argv + ["--json"])
    return {"rc": rc, "stdout": buf.getvalue()}


def edit_report(output: dict, edit) -> dict:
    report = json.loads(output["stdout"])
    edit(report)
    return {"rc": output["rc"], "stdout": json.dumps(report)}


def verdict(graph: oracle.Graph, op: dict, output: dict) -> str:
    try:
        lost = oracle.check_op(graph, op, output)
    except oracle.Wrong as exc:
        return f"wrong ({exc})"
    return f"incomplete ({lost} events missing)" if lost else "accepted"


def main() -> int:
    k3 = oracle.Graph("k3", {"family": "builtin"})
    pst_op = {"argv": ["pst", "k3", "0", "1", "--scan"], "graph": "k3"}
    autos_op = {"argv": ["autos", "k3"], "graph": "k3"}
    pst = cli_output(pst_op["argv"])
    autos = cli_output(autos_op["argv"])

    graphs = {"paley7": {"family": "paley", "q": 7}, "cycle5": {"family": "cycle", "n": 5}}
    session = worker.SurveySession({"graphs": graphs}, work="", tracer=None)
    paley_op = {"kind": "verdict", "graph": "paley7", "vertex": 2}
    cycle_op = {"kind": "verdict", "graph": "cycle5", "vertex": 0}
    (_, paley), (_, cycle) = session.run_op(paley_op), session.run_op(cycle_op)
    paley7 = oracle.Graph("paley7", graphs["paley7"])
    cycle5 = oracle.Graph("cycle5", graphs["cycle5"])

    def shift_time(r):
        r["transfers"][1]["time"] += 1e-6

    def drop_event(r):
        del r["transfers"][2]

    def flip_sign(r):
        r["automorphisms"][0]["signs"][0] *= -1

    cases = [
        ("clean PST scan", k3, pst_op, pst, True),
        ("clean automorphisms", k3, autos_op, autos, True),
        ("clean Paley 7 verdict", paley7, paley_op, paley, True),
        ("clean cycle 5 verdict", cycle5, cycle_op, cycle, True),
        ("PST time shifted by 1e-6", k3, pst_op, edit_report(pst, shift_time), False),
        ("one PST event dropped", k3, pst_op, edit_report(pst, drop_event), False),
        ("one automorphism sign flipped", k3, autos_op, edit_report(autos, flip_sign), False),
        ("wrong Delta", paley7, paley_op, {**paley, "delta": paley["delta"] + 1}, False),
        ("periodic verdict flipped", paley7, paley_op, {"support_y": paley["support_y"], "periodic": False}, False),
        ("aperiodic verdict flipped", cycle5, cycle_op, {**copy.deepcopy(paley), "support_y": cycle["support_y"]}, False),
    ]
    ok = True
    for label, graph, op, output, clean in cases:
        result = verdict(graph, op, output)
        passed = (result == "accepted") == clean
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}: {result}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
