import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import owalk.arithmetic
from owalk import build_graph, builtin_example, decompose, eigenvalue_support, is_periodic
from owalk import verify_period
from owalk.errors import DisconnectedGraphError
from owalk.spectral import propagator_column

from conftest import class_weight_corpus, paley_tournament, reference_verify_period


def _cert(sd, v):
    return is_periodic(sd, eigenvalue_support(sd, v))


def test_k3_certificate(k3_sd):
    cert = _cert(k3_sd, 0)
    assert cert is not None
    assert cert.delta == 3
    assert cert.g == 1
    assert cert.phase == 1
    assert abs(cert.sigma - 2 * math.pi / math.sqrt(3)) < 1e-12
    assert cert.zero_in_support
    assert sorted(cert.b_coeffs.values()) == [1, 1]


def test_single_edge_certificate(single_edge_sd):
    cert = _cert(single_edge_sd, 0)
    assert cert is not None
    assert cert.delta == 1
    assert cert.g == 1
    assert cert.phase == -1  # no zero eigenvalue, all b odd
    assert abs(cert.sigma - math.pi) < 1e-12
    assert not cert.zero_in_support


def test_irrational5_certificate(irrational5_sd):
    cert = _cert(irrational5_sd, 3)
    assert cert is not None
    assert cert.delta == 7
    assert cert.g == 1
    assert cert.phase == 1
    assert abs(cert.sigma - 2 * math.pi / math.sqrt(7)) < 1e-12
    assert cert.zero_in_support


def test_mst8_certificate(mst8_sd):
    cert = _cert(mst8_sd, 0)
    assert cert is not None
    assert cert.delta == 1
    assert sorted(cert.b_coeffs.values()) == [2, 2, 4, 4]
    assert cert.g == 2
    assert cert.phase == 1  # zero lies in the support
    assert abs(cert.sigma - math.pi) < 1e-12
    assert cert.zero_in_support


def test_p4_not_periodic(p4_sd):
    for v in range(4):
        assert _cert(p4_sd, v) is None


def test_verify_period_builtin(k3_sd, irrational5_sd, mst8_sd, single_edge_sd):
    for sd in (k3_sd, irrational5_sd, mst8_sd, single_edge_sd):
        cert = _cert(sd, 0)
        assert verify_period(sd, cert)


def test_verify_period_rejects_wrong_sigma(k3_sd):
    from dataclasses import replace

    cert = _cert(k3_sd, 0)
    assert not verify_period(k3_sd, replace(cert, sigma=cert.sigma * 0.9))
    assert not verify_period(k3_sd, replace(cert, phase=-cert.phase))
    # half the true period is not a period either
    assert not verify_period(k3_sd, replace(cert, sigma=cert.sigma / 2))


def test_verify_period_rejects_a_doubled_period(k3_sd, irrational5_sd, mst8_sd, single_edge_sd):
    # twice the period returns the walker as well, with phase +1; U(sigma/2) e_a
    # is checked against +-e_a, so the doubled period fails with either phase
    from dataclasses import replace

    cases = [(k3_sd, 0), (mst8_sd, 0), (irrational5_sd, 0), (irrational5_sd, 3), (single_edge_sd, 0)]
    for sd, v in cases:
        cert = _cert(sd, v)
        assert verify_period(sd, cert)
        for phase in (1, -1):
            assert not verify_period(sd, replace(cert, sigma=2 * cert.sigma, phase=phase))


@pytest.mark.parametrize("factor", [3, 5, 7])
def test_verify_period_rejects_odd_multiples(factor, k3_sd, irrational5_sd, mst8_sd, single_edge_sd):
    # U(factor * sigma) e_a = phase^factor e_a = phase e_a, so only the check at
    # sigma / factor, where the walker is back, tells the two apart
    from dataclasses import replace

    cases = [(k3_sd, 0), (mst8_sd, 0), (irrational5_sd, 0), (irrational5_sd, 3), (single_edge_sd, 0)]
    for sd, v in cases:
        cert = _cert(sd, v)
        assert not verify_period(sd, replace(cert, sigma=factor * cert.sigma))


def test_verify_period_equals_the_column_oracle():
    # the class weights give the verdicts of the propagator columns, for the true
    # period and for sigma taken 2, 3, 5, 7 and 1/2 times, on every periodic vertex
    calls = passed = 0
    for g in class_weight_corpus():
        sd = decompose(g)
        for v in range(g.n):
            if not g.adjacency[v].any():
                continue  # an isolated vertex has no period
            cert = _cert(sd, v)
            for factor in () if cert is None else (1, 2, 3, 5, 7, 0.5):
                scaled = replace(cert, sigma=factor * cert.sigma)
                verdict = verify_period(sd, scaled)
                assert verdict is reference_verify_period(sd, scaled), (g.n, v, factor)
                calls, passed = calls + 1, passed + verdict
    assert calls >= 1000 and passed == calls // 6


def test_period_phase_repeats(k3_sd, single_edge_sd, mst8_sd):
    # U(k sigma) e_a = phase^k e_a
    for sd in (k3_sd, single_edge_sd, mst8_sd):
        cert = _cert(sd, 0)
        basis = np.zeros(sd.n)
        basis[0] = 1.0
        for k in range(1, 5):
            col = propagator_column(sd, 0, k * cert.sigma)
            assert np.linalg.norm(col - (cert.phase**k) * basis) < 1e-7


def test_minimality_against_scan(k3_sd, mst8_sd):
    # no return to +-e_0 strictly inside (0, sigma)
    for sd in (k3_sd, mst8_sd):
        cert = _cert(sd, 0)
        for t in np.linspace(0.05 * cert.sigma, 0.95 * cert.sigma, 121):
            col = propagator_column(sd, 0, float(t))
            basis = np.zeros(sd.n)
            basis[0] = 1.0
            assert np.linalg.norm(col - basis) > 1e-3
            assert np.linalg.norm(col + basis) > 1e-3


def test_star_center_phase_minus_one():
    # star 0 -> {1, 2, 3}: y = +-sqrt3, kernel avoids the center, so the
    # center has no zero in its support and odd b gives phase -1
    sd = decompose(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    cert = _cert(sd, 0)
    assert cert is not None
    assert cert.delta == 3
    assert cert.g == 1
    assert cert.phase == -1
    assert not cert.zero_in_support
    assert abs(cert.sigma - math.pi / math.sqrt(3)) < 1e-12
    assert verify_period(sd, cert)


def test_even_b_with_zero_support():
    # alternating 4-cycle 0 -> 1 <- 2 -> 3 <- 0: y in {-2, 0, 2}, b = 2
    sd = decompose(build_graph(4, [(0, 1), (2, 1), (2, 3), (0, 3)]))
    cert = is_periodic(sd, eigenvalue_support(sd, 0))
    assert cert is not None
    assert cert.delta == 1
    assert cert.g == 2
    assert cert.phase == 1
    assert cert.zero_in_support
    assert abs(cert.sigma - math.pi) < 1e-12
    assert verify_period(sd, cert)


def test_disconnected_graph_rejected():
    # the walk from a vertex stays in its component, so periodicity is decided
    # on any graph: two disjoint edges give every vertex the single edge's
    # certificate, and only an isolated vertex, which never moves, is refused
    sd = decompose(build_graph(4, [(0, 1), (2, 3)]))
    for v in range(sd.n):
        cert = _cert(sd, v)
        assert (cert.vertex, cert.delta, cert.g, cert.phase) == (v, 1, 1, -1)
        assert abs(cert.sigma - math.pi) < 1e-12 and verify_period(sd, cert)
    sd = decompose(build_graph(3, [(0, 1)]))
    assert abs(_cert(sd, 0).sigma - math.pi) < 1e-12
    for _ in range(2):
        with pytest.raises(DisconnectedGraphError, match="vertex 2 is isolated"):
            _cert(sd, 2)


def test_reduced_polynomial_built_once_per_decomposition(monkeypatch):
    # the cross-check reads q(z) with det(xI - A) = x^m q(x^2); once the first
    # verdict has built it, a second verdict builds no IntPolynomial at all
    sd = decompose(paley_tournament(23))
    first = is_periodic(sd, eigenvalue_support(sd, 0))
    built = []
    real = owalk.arithmetic.IntPolynomial.__post_init__

    def spy(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(owalk.arithmetic.IntPolynomial, "__post_init__", spy)
    assert is_periodic(sd, eigenvalue_support(sd, 5)) == replace(first, vertex=5)
    assert built == []


def test_verify_period_leaves_numpy_random_unloaded():
    # the spot times come from the stdlib: importing numpy.random would cost
    # every `owalk periodic` run about 13 ms
    code = (
        "import sys; from owalk.cli import main; rc = main(['periodic', 'k3', '0']); "
        "print(rc, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "verified numerically" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 False"
