import cmath
import math

import numpy as np

from owalk import decompose, eigenvalue_support, strong_cospectrality

from conftest import random_oriented_graph


def test_k3_support_is_everything(k3_sd):
    for v in range(3):
        assert eigenvalue_support(k3_sd, v).members == (0, 1, 2)


def test_irrational5_support(irrational5_sd):
    # every vertex sees all three eigenvalue classes, including 0
    for v in range(5):
        assert eigenvalue_support(irrational5_sd, v).members == (0, 1, 2)


def test_support_contains_membership(k3_sd):
    sup = eigenvalue_support(k3_sd, 0)
    assert 0 in sup and 2 in sup
    assert 17 not in sup


def test_k3_quarrels_frozen(k3_sd):
    cert = strong_cospectrality(k3_sd, 0, 1)
    assert cert is not None
    assert cert.residual < 1e-10
    # y ascending: index 0 is -sqrt3, 1 is 0, 2 is +sqrt3
    assert abs(cert.quarrels[1]) < 1e-10
    assert abs(cert.quarrels[2] - 2.0 / 3.0) < 1e-10
    assert abs(cert.quarrels[0] + 2.0 / 3.0) < 1e-10


def test_irrational5_quarrels_frozen(irrational5_sd):
    cert = strong_cospectrality(irrational5_sd, 3, 4)
    assert cert is not None
    q_zero = cert.quarrels[1]
    assert abs(q_zero - 1.0) < 1e-10  # alpha = -1 at the zero eigenvalue
    expected = math.acos(3.0 / 4.0) / math.pi
    assert abs(cert.quarrels[2] - expected) < 1e-10
    assert abs(cert.quarrels[0] + expected) < 1e-10


def test_irrational5_only_3_4_strongly_cospectral(irrational5_sd):
    # the 0 <-> 1 swap automorphism makes (0, 1) cospectral, but the
    # 3-dimensional kernel breaks the parallel-projection condition
    pairs = [
        (a, b)
        for a in range(5)
        for b in range(a + 1, 5)
        if strong_cospectrality(irrational5_sd, a, b) is not None
    ]
    assert pairs == [(3, 4)]


def test_alpha_conjugate_under_swap(k3_sd, irrational5_sd):
    for sd, a, b in ((k3_sd, 0, 1), (irrational5_sd, 3, 4)):
        fwd = strong_cospectrality(sd, a, b)
        rev = strong_cospectrality(sd, b, a)
        for r in fwd.support:
            assert abs(fwd.alphas[r] - rev.alphas[r].conjugate()) < 1e-8


def test_alphas_unimodular_and_conjugate_symmetric(rng):
    found = 0
    for _ in range(40):
        g = random_oriented_graph(rng, int(rng.integers(2, 7)))
        sd = decompose(g)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                cert = strong_cospectrality(sd, a, b)
                if cert is None:
                    continue
                found += 1
                y = sd.eigenvalues
                for r in cert.support:
                    assert abs(abs(cert.alphas[r]) - 1.0) < 1e-9
                    # support is closed under y -> -y with conjugate alpha
                    if y[r] != 0.0:
                        s = int(np.flatnonzero(np.abs(y + y[r]) < 1e-8)[0])
                        assert s in cert.support
                        assert abs(cert.alphas[r] - cert.alphas[s].conjugate()) < 1e-8
                    else:
                        # zero eigenvalue: alpha is real, hence +-1
                        assert abs(cert.alphas[r].imag) < 1e-8
    assert found > 3  # the sample really exercises the checks


def test_quarrel_branch_convention(k3_sd, irrational5_sd):
    for sd, a, b in ((k3_sd, 0, 1), (irrational5_sd, 3, 4)):
        cert = strong_cospectrality(sd, a, b)
        for r in cert.support:
            q = cert.quarrels[r]
            assert -1.0 < q <= 1.0
            assert abs(cert.alphas[r] - cmath.exp(1j * math.pi * q)) < 1e-9


def test_vertex_with_itself(k3_sd):
    cert = strong_cospectrality(k3_sd, 0, 0)
    assert cert is not None
    for r in cert.support:
        assert abs(cert.quarrels[r]) < 1e-12
