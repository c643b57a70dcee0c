import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from owalk import build_graph, builtin_example, decompose, eigenvalue_support, strong_cospectrality

from conftest import (
    class_weight_corpus,
    k3_power,
    paley_tournament,
    random_oriented_graph,
    reference_strong_cospectrality,
    scalar_strong_cospectrality,
)


def test_k3_support_is_everything(k3_sd):
    for v in range(3):
        assert eigenvalue_support(k3_sd, v).members == (0, 1, 2)


def test_irrational5_support(irrational5_sd):
    # every vertex sees all three eigenvalue classes, including 0
    for v in range(5):
        assert eigenvalue_support(irrational5_sd, v).members == (0, 1, 2)


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


def _matches_scalar_oracle(sd, pairs):
    """Supports and certificates equal the per-class loop's, repr for repr; positives seen."""
    for a in range(sd.n):
        want = tuple(int(r) for r in np.flatnonzero(sd.class_norms(sd.vectors[a]) > 1e-8 * sd.n))
        assert eigenvalue_support(sd, a).members == want
    positive = 0
    for a, b in pairs:
        got, want = strong_cospectrality(sd, a, b), scalar_strong_cospectrality(sd, a, b)
        assert got == want and repr(got) == repr(want), (a, b)
        positive += want is not None
    return positive


def test_whole_array_certificates_equal_the_scalar_oracle():
    graphs = [builtin_example(name) for name in ("k3", "irrational5", "mst8")]
    graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 17)]
    graphs += [paley_tournament(q) for q in (7, 11, 19, 23, 31, 43)]
    graphs += [k3_power(d) for d in (1, 2, 3)]
    positive = self_pairs = 0
    for g in graphs:
        pairs = [(a, b) for a in range(g.n) for b in range(g.n)]
        positive += _matches_scalar_oracle(decompose(g), pairs)
        self_pairs += g.n
    assert positive > self_pairs + 100  # many pairs besides (a, a)


def test_whole_array_certificates_equal_the_scalar_oracle_on_random_graphs():
    # G x K2 (a second copy of G, each vertex joined to its copy) has PST from
    # (v, 0) to (v, 1) through the K2 factor, so those pairs are strongly cospectral
    rng = np.random.default_rng(20)
    for _ in range(20):
        g = random_oriented_graph(rng, int(rng.integers(2, 129)), p=float(rng.uniform(0.1, 0.7)))
        m = g.n
        edges = [(u + i * m, v + i * m) for u, v in g.edges for i in (0, 1)]
        doubled = build_graph(2 * m, edges + [(v, v + m) for v in range(m)])
        vs = rng.integers(0, m, size=10).tolist()
        pairs = [(v, v + m) for v in vs] + [(v + m, v) for v in vs] + [(v, v) for v in vs]
        pairs += [tuple(rng.integers(0, 2 * m, size=2).tolist()) for _ in range(30)]
        assert _matches_scalar_oracle(decompose(doubled), pairs) >= 30


def test_class_norm_refutation_keeps_every_certificate():
    # refuting a pair whose class norms differ by more than 2*tol changes no answer:
    # certificates, alphas, quarrels and residuals equal the full path's, repr for repr
    pairs = positive = 0
    for g in class_weight_corpus():
        sd = decompose(g)
        for a in range(g.n):
            for b in range(g.n):
                if a != b:
                    got, want = strong_cospectrality(sd, a, b), reference_strong_cospectrality(sd, a, b)
                    assert repr(got) == repr(want), (g.n, a, b)
                    pairs, positive = pairs + 1, positive + (want is not None)
    assert pairs == 20240 and positive > 400


@pytest.mark.parametrize("gap", [0.75, 1.5, 3.0])
def test_class_norm_refutation_margin(k3_sd, gap):
    # scale class 0 of row 0 so that its norm exceeds row 1's by gap * tol; the residual
    # is then that gap, so a gap in (tol/2, tol] still has a certificate: a refutation at
    # gap > tol/2 would lose it, and gaps past tol are refuted by either path
    tol, r = 1e-7, 0
    vectors = k3_sd.vectors.copy()
    cls = slice(k3_sd.starts[r], k3_sd.starts[r + 1])
    vectors[0, cls] *= 1.0 + gap * tol / np.linalg.norm(vectors[0, cls])
    sd = replace(k3_sd, vectors=vectors)
    norms = sd.class_norms(sd.vectors[0]) - sd.class_norms(sd.vectors[1])
    assert abs(norms[r] - gap * tol) < 1e-12
    got, want = strong_cospectrality(sd, 0, 1, tol=tol), reference_strong_cospectrality(sd, 0, 1, tol)
    assert repr(got) == repr(want)
    assert (got is not None) == (gap <= 1.0)
