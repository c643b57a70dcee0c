"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -v`` (the project enables ``-s`` so the lines below are
always visible).  Each test prints exactly one line

    ACCEPTANCE <k> PASS|FAIL: <detail>

and then asserts, so the printed verdicts and the pytest verdicts agree.
"""

import json
import math
import subprocess
import sys
import time
from math import gcd

import numpy as np
import pytest

from owalk import (
    build_graph,
    builtin_example,
    char_poly,
    decompose,
    eigenvalue_support,
    find_switching_automorphisms,
    first_char_check,
    is_periodic,
    quadratic_integer_profile,
    scan_pst,
    strong_cospectrality,
    verify_pst,
)

from conftest import random_connected_graph, random_oriented_graph, transition_matrix

SEED = 20260817


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _cli_json(*args):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "owalk.cli", *args, "--json"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def test_criterion_1_k3_pst():
    tau1 = 2 * math.pi / (3 * math.sqrt(3))
    report1, dt1 = _cli_json("pst", "k3", "0", "1", "--scan")
    report2, dt2 = _cli_json("pst", "k3", "0", "2", "--scan")
    times1 = [c["time"] for c in report1["transfers"]]
    times2 = [c["time"] for c in report2["transfers"]]
    err1 = min(abs(t - tau1) for t in times1) if times1 else math.inf
    err2 = min(abs(t - 2 * tau1) for t in times2) if times2 else math.inf
    phase_ok = all(c["phase"] == 1 for c in report1["transfers"])
    runtime = dt1 + dt2
    ok = err1 <= 1e-8 and err2 <= 1e-8 and phase_ok and runtime < 1.0
    detail = (
        f"0->1 err {err1:.2e}, 0->2 err {err2:.2e}, phase +1: {phase_ok}, "
        f"runtime {runtime:.2f}s"
    )
    assert _report(1, ok, detail), detail


def test_criterion_2_k3_mst():
    sigma = 2 * math.pi / math.sqrt(3)
    report, dt = _cli_json("mst", "k3")
    certs = report["mst"]
    orbit_ok = len(certs) == 1 and set(certs[0]["orbit"]) == {0, 1, 2}
    base_err = abs(certs[0]["base_time"] - sigma / 3) if certs else math.inf
    ok = orbit_ok and base_err <= 1e-9 and dt < 1.0
    detail = (
        f"orbit {{0,1,2}}: {orbit_ok}, base time err {base_err:.2e}, "
        f"runtime {dt:.2f}s"
    )
    assert _report(2, ok, detail), detail


def test_criterion_3_mst8():
    report, dt = _cli_json("mst", "mst8")
    target = None
    for cert in report["mst"]:
        if set(cert["orbit"]) == {0, 1, 6, 7}:
            target = cert
    found = target is not None
    pairs_ok = found and len(target["pairs"]) == 12
    worst = max(p["residual"] for p in target["pairs"]) if found else math.inf
    ok = found and pairs_ok and worst < 1e-6 and dt < 5.0
    detail = (
        f"orbit {{0,1,6,7}} found: {found}, 12 pairs: {pairs_ok}, "
        f"worst residual {worst:.2e}, runtime {dt:.2f}s"
    )
    assert _report(3, ok, detail), detail


def test_criterion_4_irrational5():
    # The stated target time (pi - arccos(3/4))/sqrt(7) is the 4 -> 3
    # transfer time under this package's propagator U(t) = exp(-tA)
    # (equivalently the 3 -> 4 time under the transposed convention
    # exp(tA)); the two candidate times sum to sigma = 2*pi/sqrt(7).
    # Criterion 1 (0 -> 1 on k3 at 2*pi/(3*sqrt(3)), not 4*pi/(3*sqrt(3)))
    # pins the convention used here.  The conflict lies in the builtin's
    # orientation of the edge {3, 4}: oriented 4 -> 3, the 3 -> 4 transfer
    # lands on the target and criterion 1 is untouched.  The builtin and
    # the clause are kept as stated, and the clause fails honestly; the
    # scan instead finds (pi + arccos(3/4))/sqrt(7).
    target = (math.pi - math.acos(3 / 4)) / math.sqrt(7)
    pst, dt1 = _cli_json("pst", "irrational5", "3", "4", "--scan")
    per, dt2 = _cli_json("periodic", "irrational5", "3")
    aut, dt3 = _cli_json("autos", "irrational5")
    times = [c["time"] for c in pst["transfers"]]
    time_err = min(abs(t - target) for t in times) if times else math.inf
    time_ok = time_err <= 1e-6
    phase_ok = bool(times) and all(c["phase"] == -1 for c in pst["transfers"])
    entry = per["periodicity"][0]
    delta_ok = entry["delta"] == 7
    sigma_ok = abs(entry["sigma"] - 2 * math.pi / math.sqrt(7)) <= 1e-12
    irrational_ok = bool(times) and all(
        c["sigma_multiple"] is None for c in pst["transfers"]
    )
    autos_ok = all(a["perm"][3] != 4 for a in aut["automorphisms"])
    runtime = dt1 + dt2 + dt3
    ok = (
        time_ok and phase_ok and delta_ok and sigma_ok
        and irrational_ok and autos_ok and runtime < 5.0
    )
    nearest = min(times, key=lambda t: abs(t - target)) if times else math.nan
    detail = (
        f"time within 1e-6 of {target:.6f}: {time_ok} "
        f"(nearest scan time {nearest:.6f}), phase -1: {phase_ok}, "
        f"Delta=7: {delta_ok}, sigma=2pi/sqrt(7): {sigma_ok}, "
        f"irrational multiple flagged: {irrational_ok}, "
        f"no automorphism 3->4: {autos_ok}, runtime {runtime:.2f}s"
    )
    assert _report(4, ok, detail), detail


def test_criterion_5_periodicity_oracle():
    # Brute-force oracle: a vertex is periodic iff the return distance
    # min_phi ||U(t) e_a - phi e_a|| = sqrt(2 - 2|U(t)[a, a]|) dips to
    # 1e-4 somewhere on a dense grid.  Times below 0.01 are excluded:
    # |U(t)[a, a]| = 1 - deg(a) t^2 + O(t^4) near 0, so the t -> 0
    # shoulder is confined to t <= 8e-5 for deg >= 1, while any true
    # period is at least pi/4 for n <= 5.  The grid reaches past 2*pi,
    # an upper bound for sigma = pi/(g sqrt(Delta)) or 2*pi/(g sqrt(Delta)).
    rng = np.random.default_rng(SEED)
    ts = np.linspace(0.01, 2 * math.pi + 0.1, 10**6)
    tol = 1e-4
    graphs = 0
    vertices = 0
    periodic_count = 0
    disagreements = []
    while graphs < 200:
        g = random_connected_graph(rng, n_max=5, p=0.6)
        graphs += 1
        sd = decompose(g)
        y = sd.eigenvalues
        cosines = np.cos(np.outer(y, ts))
        for a in range(g.n):
            vertices += 1
            cert = is_periodic(sd, eigenvalue_support(sd, a))
            weights = np.array([e[a, a].real for e in sd.idempotents])
            amp = weights @ cosines
            dist = np.sqrt(np.maximum(2.0 - 2.0 * np.abs(amp), 0.0))
            hits = np.flatnonzero(dist <= tol)
            oracle_periodic = hits.size > 0
            problems = []
            if (cert is not None) != oracle_periodic:
                problems.append(
                    f"verdict: cert={cert is not None} oracle={oracle_periodic}"
                )
            if cert is not None and oracle_periodic:
                periodic_count += 1
                k = int(np.argmin(np.abs(ts - cert.sigma)))
                if dist[k] > tol:
                    problems.append(f"dist at sigma {dist[k]:.2e}")
                if int(np.sign(amp[k])) != cert.phase:
                    problems.append("phase sign mismatch at sigma")
                first_hit = ts[hits[0]]
                if first_hit < cert.sigma - 2e-4:
                    problems.append(
                        f"return at {first_hit:.6f} before sigma {cert.sigma:.6f}"
                    )
            if problems:
                disagreements.append((graphs - 1, a, "; ".join(problems)))
    ok = not disagreements
    detail = (
        f"200 connected graphs (n <= 5), {vertices} vertices, "
        f"{periodic_count} periodic, {len(disagreements)} disagreements"
    )
    if disagreements:
        detail += f"; first: graph {disagreements[0]}"
    assert _report(5, ok, detail), detail


def test_criterion_6_spectral_invariants():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = random_oriented_graph(rng, n)
        sd = decompose(g)
        a = g.adjacency.astype(float)
        herm = -1j * a
        eye = np.eye(n)
        total = sum(sd.idempotents)
        worst = max(worst, np.abs(total - eye).max())
        recon = sum(
            y * e for y, e in zip(sd.eigenvalues, sd.idempotents)
        )
        assert np.abs(recon - herm).max() < 1e-8
        for r, e in enumerate(sd.idempotents):
            worst = max(worst, np.abs(e @ e - e).max())
            worst = max(worst, np.abs(e - e.conj().T).max())
            for s in range(r + 1, len(sd.idempotents)):
                worst = max(worst, np.abs(e @ sd.idempotents[s]).max())
        # conjugate-pair symmetry: E(-y) == conj(E(y))
        for r, y in enumerate(sd.eigenvalues):
            s = int(np.argmin(np.abs(sd.eigenvalues + y)))
            worst = max(
                worst,
                np.abs(sd.idempotents[s] - sd.idempotents[r].conj()).max(),
            )
        t1, t2 = rng.uniform(0.1, 10.0, size=2)
        u1 = transition_matrix(sd, t1)
        u2 = transition_matrix(sd, t2)
        u12 = transition_matrix(sd, t1 + t2)
        worst = max(worst, np.abs(u1 @ u1.T - eye).max())
        worst = max(worst, np.abs(u1 @ u2 - u12).max())
    ok = worst < 1e-9
    detail = f"100 graphs (n <= 10), worst invariant residual {worst:.2e}"
    assert _report(6, ok, detail), detail


def test_criterion_7_certificate_consistency():
    certs_checked = 0
    auto_pairs_checked = 0
    failures = []
    for name in ("k3", "irrational5", "mst8"):
        g = builtin_example(name)
        sd = decompose(g)
        autos = find_switching_automorphisms(g)
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                for cert in scan_pst(sd, a, b, t_max=7.0, grid=80_000):
                    certs_checked += 1
                    cospec = strong_cospectrality(sd, a, b)
                    if cospec is None:
                        failures.append(f"{name} {a}->{b}: not strongly cospectral")
                        continue
                    parity = first_char_check(cospec, sd, cert.time)
                    expected = "even" if cert.phase == 1 else "odd"
                    if parity != expected:
                        failures.append(
                            f"{name} {a}->{b} at {cert.time:.6f}: "
                            f"parity {parity} != {expected}"
                        )
                    for p in autos:
                        auto_pairs_checked += 1
                        image = verify_pst(sd, p.apply(a), p.apply(b), cert.time)
                        if image is None:
                            failures.append(
                                f"{name} {a}->{b}: image pair "
                                f"{p.apply(a)}->{p.apply(b)} fails at {cert.time:.6f}"
                            )
    ok = not failures and certs_checked > 0
    detail = (
        f"{certs_checked} scan certificates, "
        f"{auto_pairs_checked} automorphism images, {len(failures)} failures"
    )
    if failures:
        detail += f"; first: {failures[0]}"
    assert _report(7, ok, detail), detail


def _charpoly_cofactor(adjacency) -> tuple[int, ...]:
    # Laplace expansion of det(xI - A) over integer polynomials,
    # independent of the library's fraction-free route
    n = len(adjacency)

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def padd(p, q):
        out = [0] * max(len(p), len(q))
        for i, pi in enumerate(p):
            out[i] += pi
        for j, qj in enumerate(q):
            out[j] += qj
        return out

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        result = [0]
        for i, row in enumerate(rows):
            minor = [
                [r[j] for j in range(1, len(rows))]
                for k, r in enumerate(rows)
                if k != i
            ]
            term = pmul(row[0], det(minor))
            if i % 2:
                term = [-c for c in term]
            result = padd(result, term)
        return result

    entries = [
        [
            [0, 1] if i == j else [-int(adjacency[i, j])]
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = det(entries)
    return tuple(coeffs[: n + 1])


def test_criterion_8_exact_arithmetic():
    rng = np.random.default_rng(SEED + 8)
    poly_matches = 0
    for _ in range(100):
        g = random_oriented_graph(rng, int(rng.integers(2, 6)))
        expected = _charpoly_cofactor(g.adjacency)
        got = tuple(char_poly(g).coeffs)
        assert got == expected, (got, expected)
        poly_matches += 1

    def profile_of(g):
        sd = decompose(g)
        vals = [y * y for y in sd.eigenvalues if abs(y) > 1e-9]
        return quadratic_integer_profile(vals, poly=lambda: char_poly(g))

    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    p4_rejected = profile_of(p4) is None
    k3_profile = profile_of(builtin_example("k3"))
    irr5_profile = profile_of(builtin_example("irrational5"))

    def delta_g(profile):
        if profile is None:
            return None
        delta, bs = profile
        return delta, gcd(*bs) if len(bs) > 1 else bs[0]

    k3_ok = delta_g(k3_profile) == (3, 1)
    irr5_ok = delta_g(irr5_profile) == (7, 1)
    ok = poly_matches == 100 and p4_rejected and k3_ok and irr5_ok
    detail = (
        f"char_poly matches cofactor oracle on {poly_matches}/100 graphs, "
        f"P4 rejected: {p4_rejected}, k3 (Delta,g)=(3,1): {k3_ok}, "
        f"irrational5 (Delta,g)=(7,1): {irr5_ok}"
    )
    assert _report(8, ok, detail), detail
