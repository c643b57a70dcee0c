import io
import json
import math
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
import scipy.linalg

import owalk.spectral
from owalk import (
    build_graph,
    builtin_example,
    decompose,
    eigenvalue_support,
    is_periodic,
    mst_search,
    scan_pst,
    strong_cospectrality,
    transition_matrix,
    verify_pst,
)
from owalk.cli import main
from owalk.cospectral import default_support_threshold
from owalk.errors import AmbiguousGroupingError, NonRealResultError
from owalk.spectral import cluster_values, propagator_column

from conftest import k3_power, random_oriented_graph


def test_k3_eigenvalues_frozen(k3_sd):
    root3 = math.sqrt(3.0)
    assert np.allclose(k3_sd.eigenvalues, [-root3, 0.0, root3], atol=1e-12)
    assert k3_sd.multiplicities == (1, 1, 1)
    assert k3_sd.eigenvalues[1] == 0.0  # snapped exactly


def test_irrational5_eigenvalues_frozen(irrational5_sd):
    root7 = math.sqrt(7.0)
    assert np.allclose(irrational5_sd.eigenvalues, [-root7, 0.0, root7], atol=1e-12)
    assert irrational5_sd.multiplicities == (1, 3, 1)


def test_mst8_eigenvalues_frozen(mst8_sd):
    assert np.allclose(mst8_sd.eigenvalues, [-4, -2, 0, 2, 4], atol=1e-12)
    assert mst8_sd.multiplicities == (1, 2, 2, 2, 1)


def test_single_edge_idempotents(single_edge_sd):
    # E_+ for theta = i (y = 1) is [[1, -i], [i, 1]] / 2
    e_plus = single_edge_sd.idempotents[1]
    expected = 0.5 * np.array([[1, -1j], [1j, 1]])
    assert np.allclose(e_plus, expected, atol=1e-12)
    e_minus = single_edge_sd.idempotents[0]
    assert np.allclose(e_minus, expected.conj(), atol=1e-12)


def test_single_edge_propagator_quarter_period(single_edge_sd):
    # U(pi/2) = [[0, -1], [1, 0]]: the walker moves tail -> head
    u = transition_matrix(single_edge_sd, math.pi / 2)
    assert np.allclose(u, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)


def test_positive_flow_convention(rng):
    # d/dt U(t)[head, tail] at t = 0 equals +1 for every edge
    for _ in range(10):
        g = random_oriented_graph(rng, int(rng.integers(2, 7)))
        sd = decompose(g)
        h = 1e-7
        u = transition_matrix(sd, h)
        for tail, head in g.edges:
            assert u[head, tail] > 0
            assert abs(u[head, tail] / h - 1.0) < 1e-5


def test_idempotent_invariants_builtin(k3_sd, irrational5_sd, mst8_sd):
    for sd in (k3_sd, irrational5_sd, mst8_sd):
        n = sd.n
        total = sum(sd.idempotents)
        assert np.linalg.norm(total - np.eye(n)) < 1e-9
        recon = sum(y * e for y, e in zip(sd.eigenvalues, sd.idempotents))
        assert np.linalg.norm(recon - (-1j) * sd.graph.adjacency) < 1e-8
        for r, e_r in enumerate(sd.idempotents):
            assert np.linalg.norm(e_r @ e_r - e_r) < 1e-9
            assert np.linalg.norm(e_r - e_r.conj().T) < 1e-9
            for s in range(r + 1, len(sd.idempotents)):
                assert np.linalg.norm(e_r @ sd.idempotents[s]) < 1e-9


def test_conjugate_pair_symmetry(k3_sd, mst8_sd, rng):
    # E(-y) is the entrywise conjugate of E(y)
    sds = [k3_sd, mst8_sd]
    for _ in range(5):
        sds.append(decompose(random_oriented_graph(rng, int(rng.integers(2, 8)))))
    for sd in sds:
        y = sd.eigenvalues
        for r in range(len(y)):
            if y[r] == 0.0:
                continue
            matches = np.flatnonzero(np.abs(y + y[r]) < 1e-8)
            assert matches.size == 1
            s = int(matches[0])
            assert np.linalg.norm(sd.idempotents[r] - sd.idempotents[s].conj()) < 1e-9


def test_transition_matrix_is_orthogonal_group(rng):
    for _ in range(8):
        g = random_oriented_graph(rng, int(rng.integers(2, 9)))
        sd = decompose(g)
        s, t = rng.uniform(0.0, 10.0, size=2)
        u_s = transition_matrix(sd, s)
        u_t = transition_matrix(sd, t)
        u_st = transition_matrix(sd, s + t)
        n = g.n
        assert np.linalg.norm(u_s @ u_s.T - np.eye(n)) < 1e-8
        assert np.linalg.norm(u_s @ u_t - u_st) < 1e-8
        assert np.linalg.norm(transition_matrix(sd, -t) - u_t.T) < 1e-9
        assert np.linalg.norm(transition_matrix(sd, 0.0) - np.eye(n)) < 1e-10


def test_transition_matrix_matches_expm(rng):
    # independent oracle: U(t) = expm(-t A)
    for _ in range(8):
        g = random_oriented_graph(rng, int(rng.integers(2, 9)))
        sd = decompose(g)
        t = float(rng.uniform(0.1, 5.0))
        oracle = scipy.linalg.expm(-t * g.adjacency.astype(float))
        assert np.linalg.norm(transition_matrix(sd, t) - oracle) < 1e-7


def test_k3_transfer_amplitude(k3_sd):
    tau = 2 * math.pi / (3 * math.sqrt(3))
    u = transition_matrix(k3_sd, tau)
    assert abs(u[1, 0] - 1.0) < 1e-12


def test_propagator_column_matches_matrix(k3_sd, mst8_sd):
    for sd in (k3_sd, mst8_sd):
        for t in (0.3, 1.7):
            u = transition_matrix(sd, t)
            for a in range(sd.n):
                col = propagator_column(sd, a, t)
                assert np.linalg.norm(col.real - u[:, a]) < 1e-10
                assert np.linalg.norm(col.imag) < 1e-10


def test_derived_reads_match_projectors():
    # every read summed from the eigenvector blocks agrees with the n x n
    # projectors E_r = V_r V_r^H, which only a reader of sd.idempotents builds
    rng = np.random.default_rng(8)
    graphs = [builtin_example("irrational5"), builtin_example("mst8")]
    graphs += [k3_power(2), k3_power(3)]
    graphs += [random_oriented_graph(rng, n) for n in (4, 9, 16, 33, 64)]
    cospectral_pairs = 0
    for g in graphs:
        sd = decompose(g)
        assert sum(sd.multiplicities) == g.n
        proj = np.array(sd.idempotents)
        traces = [round(float(np.trace(e).real)) for e in proj]
        assert traces == list(sd.multiplicities)
        threshold = default_support_threshold(g.n)
        norms = np.linalg.norm(proj, axis=1)  # norms[r, a] = ||E_r e_a||
        support_of = [tuple(np.flatnonzero(norms[:, a] > threshold)) for a in range(g.n)]
        for a in range(g.n):
            assert np.abs(sd.class_norms(sd.vectors[a]) - norms[:, a]).max() < 1e-12
            for b in range(g.n):
                assert np.abs(sd.pair_coeffs(a, b) - proj[:, b, a]).max() < 1e-12
                # the definition on the projectors: equal supports, and on each
                # support index E_r e_a = alpha_r E_r e_b with alpha_r the phase
                # of E_r[b, a], up to the default tolerance 1e-7
                support = list(support_of[a])
                inner = proj[support, b, a]
                cospectral = support_of[a] == support_of[b] and bool(
                    (abs(inner) > threshold**2).all()
                )
                if cospectral:
                    alphas = inner / abs(inner)
                    mismatch = proj[support, :, a] - alphas[:, None] * proj[support, :, b]
                    residual = np.linalg.norm(mismatch, axis=1).max()
                    cospectral = residual <= 1e-7
                cert = strong_cospectrality(sd, a, b)
                assert (cert is not None) == cospectral, (g.n, a, b)
                if cert is None:
                    continue
                cospectral_pairs += 1
                assert cert.support == support_of[a]
                assert np.abs([cert.alphas[r] for r in support] - alphas).max() < 1e-12
                assert abs(cert.residual - residual) < 1e-12
        for t in (0.0, 0.7, 2.3):
            u = np.einsum("r,rij->ij", np.exp(-1j * t * sd.eigenvalues), proj)
            assert np.abs(transition_matrix(sd, t) - u.real).max() < 1e-12
            for a in range(g.n):
                assert np.abs(propagator_column(sd, a, t) - u[:, a]).max() < 1e-12
    assert cospectral_pairs > sum(g.n for g in graphs)  # more than the pairs (a, a)


def test_analysis_leaves_projectors_unbuilt(mst8):
    sd = decompose(mst8)
    support = eigenvalue_support(sd, 0)
    assert strong_cospectrality(sd, 0, 1) is not None
    assert is_periodic(sd, support) is not None
    assert scan_pst(sd, 0, 1, t_max=4.0)
    assert verify_pst(sd, 0, 6, math.pi / 4) is not None
    assert mst_search(sd)
    transition_matrix(sd, 1.0)
    propagator_column(sd, 0, 1.0)
    assert "idempotents" not in sd.__dict__


@pytest.mark.parametrize("name", ["k3", "irrational5", "mst8"])
def test_evolve_probabilities_match_mpmath_expm(name):
    # accuracy independent of the order of floating-point sums: every
    # probability ``owalk evolve`` reports lies within 2e-15 of
    # exp(-tA)[b, a]^2 computed to 50 digits
    a = mpmath.matrix(builtin_example(name).adjacency.tolist())
    exact = {}
    for source in range(a.rows):
        for t_max, steps in ((3, 7), (2, 5)):
            argv = ["evolve", name, "--source", str(source), "--t-max", str(t_max)]
            out = io.StringIO()
            with redirect_stdout(out):
                assert main([*argv, "--steps", str(steps), "--json"]) == 0
            for t, *probs in json.loads(out.getvalue())["evolution"]["rows"]:
                if t not in exact:
                    with mpmath.workdps(50):
                        exact[t] = mpmath.expm(-mpmath.mpf(t) * a)
                for b, p in enumerate(probs):
                    assert abs(p - float(exact[t][b, source] ** 2)) <= 2e-15


def test_cluster_values_groups_mst8():
    values = np.array([-4.0, -2.0 - 1e-12, -2.0 + 1e-12, 0.0, 2.0, 2.0, 4.0])
    clusters = cluster_values(values, 1e-8)
    assert [len(c) for c in clusters] == [1, 2, 1, 2, 1]


def test_cluster_values_ambiguous_gap():
    # two values 3*tol apart: neither clearly merged nor clearly split
    with pytest.raises(AmbiguousGroupingError):
        cluster_values(np.array([0.0, 3e-8]), 1e-8)


def test_non_real_result_guard(k3_sd, monkeypatch):
    monkeypatch.setattr(owalk.spectral, "REALNESS_TOL", 1e-30)
    with pytest.raises(NonRealResultError):
        transition_matrix(k3_sd, 0.5)


def test_zero_cluster_snap(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, int(rng.integers(2, 8)))
        sd = decompose(g)
        if g.n % 2 == 1:
            assert 0.0 in sd.eigenvalues
        assert sorted(sd.eigenvalues) == list(sd.eigenvalues)
