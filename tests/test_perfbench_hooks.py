"""The benchmark's hooks into owalk: its checker and its layer tracer.

``perfbench/layertrace.py`` wraps owalk's public functions by name and
reads arguments and results (``scan_pst``'s ``grid``, ``sd.idempotents``,
``SwitchingAutomorphism.order``), so renaming one of them breaks only the
traced benchmark run unless a test runs the tracer.  Each check runs in
its own interpreter, because ``layertrace.install`` rebinds module globals.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

TRACED = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import owalk, owalk.cli
import layertrace

tracer = layertrace.Tracer()
layertrace.install(tracer)
for argv in (["pst", "k3", "0", "1", "--scan"], ["autos", "k3"], ["mst", "k3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert owalk.cli.main(argv + ["--json"]) == 0, argv
sd = owalk.decompose(owalk.builtin_example("k3"))
assert owalk.is_periodic(sd, owalk.eigenvalue_support(sd, 0)) is not None
print(json.dumps(layertrace.layer_metrics(tracer.spans)))
"""


def run_python(*args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_benchmark_selftest_passes():
    out = run_python(os.path.join(PERFBENCH, "selftest.py"))
    assert "FAIL" not in out and out.count("PASS") == 10, out


def test_layer_tracer_reads_its_counters():
    script = TRACED.format(src=os.path.join(ROOT, "src"), perfbench=PERFBENCH)
    metrics = json.loads(run_python("-c", script))
    for counter in (
        "autos.find_switching_automorphisms.found",
        "transfer.complete_char.certs",
        "transfer.scan_pst.events",
        "transfer.scan_pst.amplitude_evals",
        "spectral.decompose.projector_bytes",
        "autos.order.calls",
        "periodicity.is_periodic.calls",
    ):
        assert metrics.get(counter, 0) > 0, (counter, sorted(metrics))
