import argparse
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Iterator
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

import owalk.arithmetic
import owalk.autos
import owalk.errors
import owalk.periodicity
from owalk import serialize_graph
import owalk.cli
import owalk.transfer
from owalk.errors import InputError, InternalInconsistencyError
from owalk.cli import _build_parser, _emit_json, _parse_plain, _sigma_multiple, main

from conftest import (
    k3_power,
    paley_tournament,
    random_oriented_graph,
    reference_emit_json,
    reference_parser,
)
from test_golden import COMMANDS as GOLDEN_COMMANDS


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "owalk.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"owalk {' '.join(args)} exited {proc.returncode}\n{proc.stderr}"
        )
    return proc


def run_json(*args):
    proc = run_cli(*args, "--json", check=True)
    return json.loads(proc.stdout)


def test_spectrum_k3_json():
    report = run_json("spectrum", "k3")
    assert report["version"] == "0.1.0"
    assert report["graph"]["n"] == 3
    assert report["graph"]["edges"] == [[0, 1], [1, 2], [2, 0]]
    eigs = report["spectrum"]["eigenvalues"]
    assert [e["multiplicity"] for e in eigs] == [1, 1, 1]
    values = [e["y"] for e in eigs]
    assert values[1] == 0.0
    assert values[0] == pytest.approx(-math.sqrt(3), abs=1e-12)
    # det(xI - A) = x^3 + 3x, stored low to high
    assert report["spectrum"]["char_poly_coeffs_low_to_high"] == [0, 3, 0, 1]


def test_json_output_is_deterministic():
    a = run_cli("mst", "mst8", "--json", check=True).stdout
    b = run_cli("mst", "mst8", "--json", check=True).stdout
    assert a == b
    json.loads(a)


def test_periodic_k3_json():
    report = run_json("periodic", "k3", "0")
    entry = report["periodicity"][0]
    assert entry["vertex"] == 0
    assert entry["periodic"] is True
    assert entry["delta"] == 3
    assert entry["g"] == 1
    assert entry["phase"] == 1
    assert entry["sigma"] == pytest.approx(
        2 * math.pi / math.sqrt(3), abs=1e-14
    )
    assert entry["zero_in_support"] is True
    assert [b["b"] for b in entry["b_coeffs"]] == [1, 1]


def test_periodic_p4_negative_and_strict(tmp_path):
    path = tmp_path / "p4.og"
    path.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\n")
    report = run_json("periodic", str(path), "0")
    assert report["periodicity"][0]["periodic"] is False
    proc = run_cli("periodic", str(path), "0", "--strict")
    assert proc.returncode == 1


def test_pst_scan_k3():
    report = run_json("pst", "k3", "0", "1", "--scan", "--t-max", "3")
    certs = report["transfers"]
    assert len(certs) == 1
    assert certs[0]["time"] == pytest.approx(
        2 * math.pi / (3 * math.sqrt(3)), abs=1e-10
    )
    assert certs[0]["phase"] == 1
    assert certs[0]["method"] == "scan"
    assert certs[0]["sigma_multiple"] == "1/3"


def test_pst_note_on_disconnected_graph(tmp_path):
    # the walk from 0 stays in its triangle, so on two disjoint k3s the source
    # has k3's period and the event its fraction of it
    path = tmp_path / "two_k3.og"
    path.write_text("n 6\ne 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 5 3\n")
    sigma = 2 * math.pi / math.sqrt(3)
    proc = run_cli("pst", str(path), "0", "1", "--t-max", "3", check=True)
    assert f"  t = (1/3)*sigma, sigma = {sigma!r}" in proc.stdout.splitlines()
    certs = run_json("pst", str(path), "0", "1", "--t-max", "3")["transfers"]
    assert len(certs) == 1
    assert certs[0]["sigma"] == sigma and certs[0]["sigma_multiple"] == "1/3"
    proc = run_cli("periodic", str(path), "0", check=True)
    assert proc.stdout.splitlines()[1:] == run_cli("periodic", "k3", "0").stdout.splitlines()[1:]


def test_pst_verify_at_time():
    tau = 2 * math.pi / (3 * math.sqrt(3))
    report = run_json("pst", "k3", "0", "1", "--time", repr(tau))
    certs = report["transfers"]
    assert len(certs) == 1
    assert certs[0]["method"] == "direct"
    assert certs[0]["residual"] < 1e-10


def test_pst_irrational_multiple_flagged():
    report = run_json("pst", "irrational5", "3", "4", "--scan", "--t-max", "2")
    certs = report["transfers"]
    assert len(certs) == 1
    assert certs[0]["phase"] == -1
    assert certs[0]["sigma_multiple"] is None
    expected = (math.pi + math.acos(3 / 4)) / math.sqrt(7)
    assert certs[0]["time"] == pytest.approx(expected, abs=1e-10)


def test_pst_negative_exit_codes():
    proc = run_cli("pst", "irrational5", "0", "1", "--scan", "--t-max", "2")
    assert proc.returncode == 0
    proc = run_cli(
        "pst", "irrational5", "0", "1", "--scan", "--t-max", "2", "--strict"
    )
    assert proc.returncode == 1


def test_mst_mst8_json():
    report = run_json("mst", "mst8")
    orbit_sets = [set(c["orbit"]) for c in report["mst"]]
    assert {0, 1, 6, 7} in orbit_sets
    cert = report["mst"][orbit_sets.index({0, 1, 6, 7})]
    assert cert["base_time"] == pytest.approx(math.pi / 4, abs=1e-12)
    assert cert["m"] == 1
    assert len(cert["pairs"]) == 12
    for pair in cert["pairs"]:
        assert pair["residual"] < 1e-6
        assert pair["source"] == cert["orbit"][pair["i"]]
        assert pair["target"] == cert["orbit"][pair["j"]]


def test_mst_transitive_triangle(tmp_path):
    # k3 switched at vertex 2 and relabeled: the orbit's automorphism
    # carries signs, and the phase it predicts must carry them too
    path = tmp_path / "transitive.og"
    path.write_text("n 3\ne 0 1\ne 2 0\ne 2 1\n")
    for vertex, orbit in ((None, [0, 1, 2]), (1, [1, 2, 0]), (2, [2, 0, 1])):
        args = ["mst", str(path)] + ([] if vertex is None else ["--vertex", str(vertex)])
        [cert] = run_json(*args)["mst"]
        assert cert["orbit"] == orbit
        assert cert["m"] == 2
        assert cert["automorphism"]["perm"] == [1, 2, 0]
        assert cert["automorphism"]["signs"] == [-1, -1, 1]
        assert cert["base_time"] == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), abs=1e-12)
        assert len(cert["pairs"]) == 6
        assert all(pair["residual"] < 1e-10 for pair in cert["pairs"])


def test_cospectral_support_commands():
    report = run_json("cospectral", "irrational5", "3", "4")
    assert report["cospectrality"]["strongly_cospectral"] is True
    assert report["cospectrality"]["quarrels"][1]["q"] == pytest.approx(1.0)
    report = run_json("cospectral", "irrational5", "0", "1")
    assert report["cospectrality"]["strongly_cospectral"] is False
    report = run_json("support", "k3", "0")
    assert report["supports"][0]["indices"] == [0, 1, 2]


def test_autos_k3():
    report = run_json("autos", "k3")
    autos = report["automorphisms"]
    assert len(autos) == 5
    perms = {tuple(a["perm"]) for a in autos}
    assert perms == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert sorted(a["order"] for a in autos) == [2, 3, 3, 6, 6]


def test_evolve_csv():
    tau = 2 * math.pi / (3 * math.sqrt(3))
    proc = run_cli(
        "evolve", "k3", "--source", "0",
        "--t-max", repr(tau), "--steps", "3",
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    rows = lines[lines.index("t,p_0,p_1,p_2"):]
    assert len(rows) == 4
    first = [float(x) for x in rows[1].split(",")]
    assert first[0] == 0.0
    assert first[1:] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    last = [float(x) for x in rows[-1].split(",")]
    assert last[0] == pytest.approx(tau)
    assert last[1:] == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)
    for row in rows[1:]:
        probs = [float(x) for x in row.split(",")][1:]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_example_text_exact():
    proc = run_cli("example", "k3", check=True)
    assert proc.stdout == "n 3\ne 0 1\ne 1 2\ne 2 0\n"


def test_file_input_matches_builtin(tmp_path):
    graph_text = run_cli("example", "mst8", check=True).stdout
    path = tmp_path / "g.og"
    path.write_text(graph_text)
    from_file = run_json("spectrum", str(path))
    builtin = run_json("spectrum", "mst8")
    assert from_file["spectrum"] == builtin["spectrum"]


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("spectrum", "nosuchgraph").returncode == 2
    # a graph path that cannot be read as UTF-8 text is a bad graph file
    binary = tmp_path / "binary.og"
    binary.write_bytes(b"n 2\n\xff\n")
    for path in (tmp_path, binary):
        proc = run_cli("spectrum", str(path))
        assert proc.returncode == 2, (path, proc.returncode, proc.stderr)
        assert proc.stderr.startswith("error: GraphParseError: cannot read"), proc.stderr
    assert run_cli("pst", "k3", "0", "9", "--scan").returncode == 2
    # option values under which a verdict would be meaningless: each one
    # must be refused, never answered with a silent negative or a traceback
    for args in [
        ("evolve", "k3", "--source", "0", "--t-max", "0", "--steps", "5"),
        ("evolve", "k3", "--source", "0", "--t-max", "1", "--steps", "1"),
        ("pst", "k3", "0", "1", "--tol", "-1"),
        ("pst", "k3", "0", "1", "--tol", "nan"),
        ("periodic", "k3", "0", "--tol", "0"),
        ("pst", "k3", "0", "1", "--t-max", "1e9"),
        ("pst", "k3", "0", "1", "--t-max", "-1"),
        ("pst", "k3", "0", "1", "--t-max", "inf"),
        ("pst", "k3", "0", "1", "--time", "nan"),
        # |U(t)[b, a]| = 1 - r^2/2 for residual r, so a tolerance of 1 or
        # more would accept a target that holds a quarter of the probability
        ("pst", "k3", "0", "1", "--time", "1", "--tol", "1e300"),
        # times t with t * max|y| * 2^-52 above the tolerance or the realness
        # bound 1e-8: the phase t*y has lost the precision a verdict needs
        # (k3's bound is t = 2.6e7, so 1e7 is refused for its candidate count)
        ("pst", "mst8", "0", "1", "--time", "1e17"),
        ("pst", "mst8", "0", "1", "--time=-1e17"),
        ("evolve", "mst8", "--source", "0", "--t-max", "1e308", "--steps", "2"),
        ("pst", "k3", "0", "1", "--t-max", "1e7"),
        # one verified time has no horizon: --t-max would be silently unused
        ("pst", "k3", "--time", "1", "0", "1", "--t-max", "5"),
    ]:
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.returncode, proc.stderr)
        assert "InputError" in proc.stderr, (args, proc.stderr)
    assert "--time" in proc.stderr and "--t-max" in proc.stderr, proc.stderr


def test_time_past_the_rounding_bound_exits_2(capsys):
    # mst8 has max|y| = 4, so a phase t*y rounds by up to 4t * 2^-52; past
    # 1e-8 (the realness check, tighter than the default tolerance 1e-7) at
    # t = 1e-8 * 2^52 / 4 = 1.1259e7 a time is refused.  Under the tolerance
    # alone (t = 1.1e8) the column's imaginary parts reach 5e-8: exit 3
    for argv in (
        ["pst", "mst8", "0", "1", "--time", "1.1e8"],
        ["evolve", "mst8", "--source", "0", "--t-max", "2e7", "--steps", "2"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InputError:") and "past 1.1259e+07" in err, err
    assert main(["pst", "mst8", "0", "1", "--time", "1.1e7"]) == 0
    assert main(["evolve", "mst8", "--source", "0", "--t-max", "1.1e7", "--steps", "2"]) == 0
    # a looser tolerance keeps the realness bound; a tighter one lowers it
    assert main(["pst", "mst8", "0", "1", "--time", "1.2e7", "--tol", "1e-3"]) == 2
    assert main(["pst", "mst8", "0", "1", "--time", "1.2e6", "--tol", "1e-9"]) == 2
    assert "past 1.1259e+06" in capsys.readouterr().err


def test_unallocatable_vertex_count_exits_2(tmp_path):
    # 10^8 vertices ask numpy for 8e16 bytes, which it refuses at once
    path = tmp_path / "huge.og"
    path.write_text("n 100000000\n")
    proc = run_cli("spectrum", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: InputError:") and "100000000" in proc.stderr


def test_search_budget_exits_2(monkeypatch, capsys):
    # running out of search nodes is work beyond a stated bound, as a scan
    # over too many candidate times is; no certificate failed
    real = owalk.autos.find_switching_automorphisms

    def tight(g):
        return real(g, node_budget=5)

    monkeypatch.setattr(owalk.cli, "find_switching_automorphisms", tight)
    monkeypatch.setattr(owalk.transfer, "find_switching_automorphisms", tight)
    for command in ("autos", "mst"):
        assert main([command, "mst8"]) == 2
        err = capsys.readouterr().err
        assert err == "error: SearchBudgetExceededError: automorphism search exceeded 5 nodes\n"


@pytest.mark.parametrize("n, order", [(10, 3_715_891_200), (14, 1_428_329_123_020_800)])
def test_group_too_large_to_list_exits_2(n, order, tmp_path, capsys):
    # n isolated vertices: the group's order 2^n n! is refused before listing
    path = tmp_path / f"empty{n}.og"
    path.write_text(f"n {n}\n")
    for command in ("autos", "mst"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: SearchBudgetExceededError: automorphism group of order"
            f" {order} is too large to list in 100000000 nodes\n"
        )


def test_every_error_has_one_exit_code():
    # main exits 2 for an InputError and 3 for any other OwalkError, so
    # every error class must say which family it belongs to
    roots = {"OwalkError", "InputError", "InternalInconsistencyError"}
    for name in set(owalk.errors.__all__) - roots:
        cls = getattr(owalk.errors, name)
        assert issubclass(cls, (InputError, InternalInconsistencyError)), name
        assert not issubclass(cls, InputError) or not issubclass(cls, InternalInconsistencyError)


def test_malformed_file_exit_2(tmp_path):
    path = tmp_path / "bad.og"
    path.write_text("n 2\ne 0 0\n")
    proc = run_cli("spectrum", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_text_mode_has_header():
    proc = run_cli("periodic", "k3", "0", check=True)
    assert proc.stdout.startswith("graph k3: n = 3, edges = 3")
    assert "sigma" in proc.stdout
    assert "2*pi/(1*sqrt(3))" in proc.stdout


@pytest.mark.parametrize("name,n", [("k3", 3), ("irrational5", 5), ("mst8", 8)])
def test_exit_code_3_never_on_builtins(name, n):
    # internal-inconsistency exits must not be reachable from the shipped
    # examples under default tolerances
    invocations = [
        ("spectrum", name),
        ("mst", name),
        ("autos", name),
        ("pst", name, "0", "1", "--scan", "--t-max", "2"),
        ("evolve", name, "--source", "0", "--t-max", "3", "--steps", "7"),
        ("example", name),
    ]
    invocations += [("periodic", name, str(v)) for v in range(n)]
    for args in invocations:
        proc = run_cli(*args)
        assert proc.returncode in (0, 1), (args, proc.returncode, proc.stderr)


def test_char_poly_computed_lazily_and_once(tmp_path, monkeypatch):
    # the exact polynomial is needed only once some support's squared
    # eigenvalues are all recognized as integers, and then once per graph
    calls = []
    real = owalk.arithmetic.char_poly

    def counting(g):
        calls.append(g.n)
        return real(g)

    def run(*argv):
        calls.clear()
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--json"]) == 0
        return json.loads(out.getvalue())

    monkeypatch.setattr(owalk.arithmetic, "char_poly", counting)
    random64 = tmp_path / "random64.og"
    random64.write_text(
        serialize_graph(random_oriented_graph(np.random.default_rng(7), 64))
    )
    k3pow3 = tmp_path / "k3pow3.og"
    k3pow3.write_text(serialize_graph(k3_power(3)))

    report = run("periodic", str(random64), "5")
    assert report["periodicity"][0]["periodic"] is False
    assert calls == []
    report = run("pst", str(random64), "0", "1", "--t-max", "5")
    assert report["transfers"] == []
    assert calls == []
    # not strongly cospectral: no transfer, so no sigma to annotate
    report = run("pst", str(k3pow3), "0", "1")
    assert report["transfers"] == []
    assert calls == []
    report = run("mst", str(k3pow3))
    assert report["mst"]
    assert calls == [27]


def test_pst_scan_decides_periodicity_once(monkeypatch, capsys):
    # the scan's periodicity certificate gives the report its sigma
    calls = []
    real = owalk.periodicity.is_periodic

    def counting(sd, support):
        calls.append(support.vertex)
        return real(sd, support)

    monkeypatch.setattr(owalk.transfer, "is_periodic", counting)
    monkeypatch.setattr(owalk.cli, "is_periodic", counting)
    assert main(["pst", "k3", "0", "1", "--scan", "--t-max", "20000"]) == 0
    assert calls == [0]
    assert capsys.readouterr().out.count("= (") == 5513


@pytest.mark.parametrize("strict, code", [([], 0), (["--strict"], 1)])
def test_pst_scan_of_a_periodic_source_short_of_its_first_event(capsys, strict, code):
    # k3 0 -> 1 first transfers at t = 4*pi/(3*sqrt(3)) = 1.209..., past t_max
    argv = ["pst", "k3", "0", "1", "--t-max", "1", *strict]
    assert main(argv) == code
    assert capsys.readouterr() == (
        "graph k3: n = 3, edges = 3\nno perfect state transfer 0 -> 1 for t in (0, 1.0]\n", ""
    )
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    assert json.loads(out)["transfers"] == [] and err == ""


def test_non_finite_value_in_a_report_exits_3(monkeypatch, capsys):
    # formatting a report refuses a non-finite number, as a failed check does
    def spoiled(args, g, report, lines):
        report["periodicity"] = [{"vertex": args.vertex, "sigma": float("nan")}]
        return True

    monkeypatch.setitem(owalk.cli._COMMANDS["periodic"], "run", spoiled)
    assert main(["periodic", "k3", "0", "--json"]) == 3
    err = capsys.readouterr().err
    assert err == "error: VerificationFailedError: report contains a non-finite number\n"


@pytest.mark.parametrize(
    "factor, total", [(1.1, "1.21"), (math.sqrt(1 + 5e-9), "1.00000000500"), (math.nan, "nan")]
)
def test_failed_check_leaves_stdout_empty(monkeypatch, capsys, factor, total):
    # every check runs before the first byte is written, lazy rows or not
    real = owalk.cli.propagator_column
    monkeypatch.setattr(owalk.cli, "propagator_column", lambda sd, a, t: factor * real(sd, a, t))
    for mode in ([], ["--json"]):
        assert main(["evolve", "k3", "--source", "0", "--t-max", "3", "--steps", "7", *mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"error: VerificationFailedError: probabilities at t = 0.0 sum to {total}"
        ), err


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, bound",
    [
        (["pst", "k3", "0", "1", "--scan", "--t-max", "20000"], 2e6),
        (["evolve", "mst8", "--source", "0", "--t-max", "100", "--steps", "20000"], 8e6),
    ],
    ids=["pst", "evolve"],
)
def test_long_reports_are_written_as_they_are_formatted(argv, bound, mode):
    # 5 513 events (1.3 MB of JSON over 1.03 MB of certificates) and 20 000 rows of
    # 9 probabilities (4.1 MB): written row by row, neither report is held whole
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv + mode) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= bound, peak


def limit_denominator_oracle(t, sigma):
    """Sigma multiple of t by the closest fraction with q <= 10^6, then the gate."""
    ratio = Fraction(t) / Fraction(sigma)
    frac = ratio.limit_denominator(10**6)
    if not frac and t:
        return None
    if abs(ratio - frac) * frac.denominator**2 * 10**8 <= 1:
        return frac
    return None


def test_sigma_multiple_matches_limit_denominator_oracle():
    # the continued-fraction walk answers as limit_denominator plus the gate:
    # exact multiples, perturbations on both sides of the 1e-8/q^2 gate,
    # noise, times below sigma, negative times, and ratios whose exact
    # denominator sits at or just past the 10^6 limit
    rng = np.random.default_rng(31)
    cases = []
    for sigma in (2 * math.pi / math.sqrt(3), math.pi / math.sqrt(7), 2 * math.pi, math.pi / 2):
        for _ in range(3000):
            p, q = int(rng.integers(-3, 20000)), int(rng.integers(1, 50))
            exact = p / q * sigma
            cases += [(exact * (1 + e), sigma) for e in (0.0, 1e-12, 1e-10, 1e-9, 1e-7)]
            cases += [(-exact, sigma), (float(rng.random() * sigma), sigma)]
            cases.append((float(rng.random() * 1e4), sigma))
    for q in (999_983, 10**6, 10**6 + 1):
        for _ in range(2000):
            p, scale = int(rng.integers(1, 10**7)), 2.0 ** int(rng.integers(-4, 5))
            cases += [(p * scale, q * scale), (p * scale * (1 + 1e-12), q * scale)]
    assert len(cases) >= 100_000
    answers = {}
    for t, sigma in cases:
        expected = limit_denominator_oracle(t, sigma)
        assert _sigma_multiple(t, sigma) == expected, (t, sigma)
        answers[expected is None or expected.denominator] = True
    # the cases reach past the gate and onto the denominator limit
    assert {True, 1, 3, 49, 999_983, 10**6} <= set(answers)
    # a negative time gets its negative fraction, and 0 stands only for t = 0
    sigma = math.pi  # mst8's period
    for t, expected in [
        (-math.pi / 2, Fraction(-1, 2)),
        (-0.75 * sigma, Fraction(-3, 4)),
        (-7 / 3 * sigma, Fraction(-7, 3)),
        (0.0, Fraction(0)),
        (1e-12, None),
        (-1e-12, None),
    ]:
        assert _sigma_multiple(t, sigma) == expected, t
        assert limit_denominator_oracle(t, sigma) == expected, t
    report = run_json("pst", "mst8", "0", "1", "--time", repr(-math.pi / 2))
    assert report["transfers"][0]["sigma_multiple"] == "-1/2"


# --- argument parsing -------------------------------------------------------

PARSE_CORPUS = [
    # plain forms of every subcommand, options before, between and after
    # the positionals
    ["spectrum", "k3"],
    ["spectrum", "--json", "k3", "--strict"],
    ["support", "k3", "0", "--tol", "1e-9"],
    ["support", "--tol", "1e-9", "k3", "--json", "0"],
    ["cospectral", "irrational5", "3", "4", "--json"],
    ["cospectral", "irrational5", "--strict", "3", "--json", "4"],
    ["periodic", "k3", "0"],
    ["periodic", "--json", "k3", "0", "--tol", "0.5", "--strict"],
    ["pst", "k3", "0", "1"],
    ["pst", "k3", "0", "1", "--scan", "--json"],
    ["pst", "k3", "0", "1", "--scan", "--t-max", "30", "--json"],
    ["pst", "--t-max", "3", "k3", "0", "--scan", "1"],
    ["pst", "k3", "0", "1", "--time", "1.2091995761561454"],
    ["pst", "k3", "--time", "1", "0", "1", "--t-max", "5"],
    ["pst", "k3", "0", "1", "--scan", "--scan", "--t-max", "5", "--t-max", "6"],
    ["pst", "k3", "0", "1", "--time", "1", "--time", "2"],
    ["pst", "k3", "0", "1", "--tol", "nan"],
    ["pst", "k3", "0", "1", "--tol", "1e300"],
    ["mst", "mst8"],
    ["mst", "mst8", "--vertex", "3", "--json"],
    ["mst", "--vertex", "3", "mst8"],
    ["autos", "k3", "--json"],
    ["evolve", "k3", "--source", "0", "--t-max", "3", "--steps", "7"],
    ["evolve", "--steps", "7", "k3", "--t-max", "3", "--source", "0", "--json"],
    ["example", "k3"],
    ["example", "--json", "mst8"],
    ["spectrum", ""],
    ["spectrum", "1 -2"],
    ["support", "k3", " 7 "],
    ["pst", "k3", "0", "1", "--t-max", "1_0"],
    # forms the walk leaves to argparse: help, version, abbreviations,
    # --flag=value, negative numbers, the -- separator
    [],
    ["-h"],
    ["--help"],
    ["--version"],
    *([command, "-h"] for command in (
        "spectrum", "support", "cospectral", "periodic", "pst", "mst", "autos", "evolve",
        "example",
    )),
    ["pst", "k3", "0", "1", "--help"],
    ["pst", "k3", "0", "1", "--t-max=5"],
    ["pst", "k3", "0", "1", "--t-m", "5"],
    ["pst", "k3", "0", "1", "--sc", "--js"],
    ["support", "k3", "-1"],
    ["pst", "k3", "0", "1", "--tol", "-1"],
    ["pst", "k3", "0", "1", "--t-max", "-5"],
    ["pst", "k3", "0", "1", "--time", "-0.5"],
    ["spectrum", "--", "k3"],
    ["spectrum", "-"],
    # usage errors, exit 2
    ["nosuchcommand", "k3"],
    ["--json", "spectrum", "k3"],
    ["spectrum"],
    ["spectrum", "k3", "--version"],
    ["support", "k3"],
    ["support", "k3", "0", "1"],
    ["support", "k3", "x"],
    ["support", "k3", "1.5"],
    ["pst", "k3", "0", "1", "--time", "1", "--scan"],
    ["pst", "k3", "0", "1", "--scan", "--time", "1"],
    ["pst", "k3", "0", "1", "--t-max"],
    ["pst", "k3", "0", "1", "--t-max", "abc"],
    ["pst", "k3", "0", "1", "--t-max", "--json"],
    ["pst", "k3", "0", "1", "--tol", ""],
    ["pst", "k3", "0", "1", "--t-max", "-1e9"],
    ["mst", "k3", "--vertex"],
    ["mst", "k3", "--vertex", "x"],
    ["autos", "k3", "--scan"],
    ["evolve", "k3", "--source", "0", "--t-max", "1"],
    ["evolve", "k3", "--t-max", "1", "--steps", "3"],
    ["example", "k3", "extra"],
    ["example", "k3", "--vertex", "1"],
]


def _parse_with(parser, argv):
    """What parse_args does with argv: the Namespace or the exit code, and the text."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            outcome = _typed(parser.parse_args(argv))
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


def _typed(namespace):
    # repr keeps 20 apart from 20.0, "1" from 1 and False from None
    return {key: repr(value) for key, value in vars(namespace).items()}


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_plain_walk_answers_as_argparse(argv, capsys):
    expected, out, err = _parse_with(reference_parser(), argv)
    # the parser generated from the table parses, prints help and fails alike
    assert _parse_with(_build_parser(), argv) == (expected, out, err)
    walked = _parse_plain(argv)
    if walked is not None:
        assert isinstance(expected, dict), (argv, expected)
        assert _typed(walked) == expected
        return
    try:
        code = main(argv)
    except SystemExit as exc:
        assert not isinstance(expected, dict), (argv, expected)
        assert exc.code == expected
    else:
        assert isinstance(expected, dict), (argv, code)
        assert code in (0, 1, 2)
    capsys.readouterr()


def test_plain_invocations_build_no_parser(tmp_path, monkeypatch, capsys):
    # the forms the benchmark sends, and spectrum and evolve, never
    # construct an ArgumentParser
    path = tmp_path / "k3cube.og"
    path.write_text(serialize_graph(k3_power(3)))

    def refuse(*args, **kwargs):
        raise AssertionError("an ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv in [
        ["pst", "k3", "0", "1", "--scan", "--json"],
        ["pst", "mst8", "0", "1", "--scan", "--t-max", "4", "--json"],
        ["mst", "mst8", "--json"],
        ["autos", str(path), "--json"],
        ["spectrum", "irrational5"],
        ["evolve", "k3", "--source", "0", "--t-max", "3", "--steps", "7", "--json"],
    ]:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv


# --- report serializer ------------------------------------------------------


def _recorded(obj):
    """``obj`` with each iterator replaced by one that keeps the items it hands out,
    and ``obj`` with the lists they fill in place of the iterators."""
    if isinstance(obj, dict):
        pairs = {key: _recorded(value) for key, value in obj.items()}
        return {k: v for k, (v, _) in pairs.items()}, {k: r for k, (_, r) in pairs.items()}
    if isinstance(obj, Iterator):
        items = []
        return (items.append(item) or item for item in obj), items
    return obj, obj


def _reports(argvs, monkeypatch):
    """The report main writes for each argv, materialized as it was written, and the
    text it printed."""
    captured = []
    real = owalk.cli._write_json

    def recording(write, obj, indent=0):
        if indent == 0:  # the whole report; nested calls write its parts
            obj, record = _recorded(obj)
            captured.append(record)
        real(write, obj, indent)

    monkeypatch.setattr(owalk.cli, "_write_json", recording)
    for argv in argvs:
        captured.clear()
        out = io.StringIO()
        with redirect_stdout(out):
            main([*argv, "--json"])
        (report,) = captured
        yield argv, report, out.getvalue()


def test_emit_json_matches_reference_on_golden_reports(monkeypatch):
    for argv, report, printed in _reports(GOLDEN_COMMANDS, monkeypatch):
        text = _emit_json(report)
        assert text == reference_emit_json(report), argv
        assert printed == text + "\n"


def test_emit_json_matches_reference_on_large_reports(tmp_path, monkeypatch):
    paths = {}
    for name, g in [("k3cube", k3_power(3)), ("paley19", paley_tournament(19))]:
        paths[name] = tmp_path / f"{name}.og"
        paths[name].write_text(serialize_graph(g))
    argvs = [
        ["autos", str(paths["k3cube"])],
        ["autos", str(paths["paley19"])],
        ["pst", "k3", "0", "1", "--t-max", "20000"],
    ]
    sizes = []
    for argv, report, printed in _reports(argvs, monkeypatch):
        text = _emit_json(report)
        assert text == reference_emit_json(report), argv
        assert printed == text + "\n", argv
        sizes.append(len(printed))
    assert min(sizes) > 50_000 and max(sizes) > 1_000_000, sizes


# numpy floats subclass float, but no report holds one: _emit_json formats
# exact types only and refuses them, where the reference writes them out
NUMPY_FLOATS = {"x": [np.float64(0.5), 1], "y": (np.float64(2.0),), "z": np.float64(1e-300)}


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2.5, "a", True, False, None, -0.0, 10**30, 'q"\\\u00e9'],
        NUMPY_FLOATS,
        {"flags": [np.bool_(True)]},
        [[1, 2], {"a": []}, {}, (), [[]]],
        {"n": np.int64(3)},
        [1, np.int64(3)],
        {1: "non-string key"},
        [{1, 2}],
        [1.0, float("nan")],
        {"t": float("inf")},
    ],
)
def test_emit_json_answers_and_fails_as_reference(obj):
    if obj is NUMPY_FLOATS:
        with pytest.raises(TypeError, match="cannot serialize float64 into the report"):
            _emit_json(obj)
        return

    def outcome(emit):
        try:
            return emit(obj)
        except Exception as exc:  # the type and message must match too
            return type(exc), str(exc)

    assert outcome(_emit_json) == outcome(reference_emit_json)
