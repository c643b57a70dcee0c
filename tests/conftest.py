import argparse
import cmath
import dataclasses
import json
import math
import random

import numpy as np
import pytest

from owalk import (
    IntPolynomial,
    SwitchingAutomorphism,
    build_graph,
    builtin_example,
    decompose,
    is_connected,
    is_switching_automorphism,
)
from owalk import __version__, first_char_check, strong_cospectrality, verify_pst
from owalk import CospectralityCertificate
from owalk.graph import BUILTIN_NAMES, _components
from owalk.spectral import propagator_column
from owalk.transfer import DEFAULT_PARITY_TOL, DEFAULT_PST_TOL, MAX_SCAN_CANDIDATES
from owalk.errors import (
    DisconnectedGraphError,
    InconsistentExactCheckError,
    InputError,
    SearchBudgetExceededError,
    VerificationFailedError,
)


def random_oriented_graph(rng, n, p=0.6):
    """Random orientation-valued graph on n vertices, edge probability p."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return build_graph(n, edges)


def k3_power(d):
    """Cartesian power of the oriented triangle, d factors (n = 3**d).

    Vertex v has base-3 digits; each digit steps i -> i+1 (mod 3).
    """
    edges = []
    for v in range(3**d):
        for i in range(d):
            digit = (v // 3**i) % 3
            edges.append((v, v + ((digit + 1) % 3 - digit) * 3**i))
    return build_graph(3**d, edges)


def paley_tournament(q):
    """Paley tournament on Z_q, q a prime = 3 mod 4: u -> v when v - u is a square."""
    squares = {x * x % q for x in range(1, q)}
    edges = [(u, v) for u in range(q) for v in range(q) if (v - u) % q in squares]
    return build_graph(q, edges)


def _matmul_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return out


def faddeev_leverrier(g):
    """Characteristic polynomial det(xI - A) with exact integer coefficients.

    An oracle that shares no code with owalk's modular path: the
    Faddeev-LeVerrier recurrence over Python integers, O(n^4); each
    division by the step index is exact for integer matrices, and an
    inexact one raises InconsistentExactCheckError.
    """
    n = g.n
    if n == 0:
        return IntPolynomial((1,))
    a = [[int(x) for x in row] for row in g.adjacency]
    c = [0] * (n + 1)
    c[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = _matmul_int(a, m)
        ck = c[n - k + 1]
        for i in range(n):
            m[i][i] += ck
        am = _matmul_int(a, m)
        trace = sum(am[i][i] for i in range(n))
        if trace % k:
            raise InconsistentExactCheckError(
                f"Faddeev-LeVerrier trace {trace} is not divisible by {k}"
            )
        c[n - k] = -(trace // k)
    return IntPolynomial(tuple(c))


def random_connected_graph(rng, n_max=5, p=0.6):
    while True:
        n = int(rng.integers(2, n_max + 1))
        g = random_oriented_graph(rng, n, p)
        if is_connected(g):
            return g


def class_weight_corpus():
    """Graphs for the class-weight equivalence tests: the builtins, C3-C12, Paley 7, 11, 19,
    23 and 43, k3^2, k3^3, and 12 seeded random graphs each of n = 6, 9, 16 and 32."""
    graphs = [builtin_example(name) for name in BUILTIN_NAMES]
    graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    graphs += [paley_tournament(q) for q in (7, 11, 19, 23, 43)]
    graphs += [k3_power(2), k3_power(3)]
    rng = np.random.default_rng(23)
    graphs += [random_oriented_graph(rng, n, p=0.5) for n in (6, 9, 16, 32) for _ in range(12)]
    return graphs


@pytest.fixture(scope="session")
def k3():
    return builtin_example("k3")


@pytest.fixture(scope="session")
def irrational5():
    return builtin_example("irrational5")


@pytest.fixture(scope="session")
def mst8():
    return builtin_example("mst8")


@pytest.fixture(scope="session")
def k3_sd(k3):
    return decompose(k3)


@pytest.fixture(scope="session")
def irrational5_sd(irrational5):
    return decompose(irrational5)


@pytest.fixture(scope="session")
def mst8_sd(mst8):
    return decompose(mst8)


@pytest.fixture(scope="session")
def single_edge_sd():
    return decompose(build_graph(2, [(0, 1)]))


@pytest.fixture(scope="session")
def p4_sd():
    # oriented path 0 -> 1 -> 2 -> 3; char poly x^4 + 3x^2 + 1
    return decompose(build_graph(4, [(0, 1), (1, 2), (2, 3)]))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)


def grid_scan(sd, a, b, t_max, points=8192):
    """PST events a -> b in (0, t_max] from sampled amplitudes, as (time, phase).

    An oracle that does not use the transfer condition: |U(t)[b, a]| is
    sampled on a uniform grid, local maxima above 1 - 1e-4 are refined by
    golden section and then Newton steps, and a refined maximum counts as
    an event when |U(t)[b, a]| is 1 within 1e-10.
    """
    coeffs = sd.pair_coeffs(a, b)
    y = sd.eigenvalues

    def amp(t):
        return np.exp(-1j * t * y) @ coeffs

    step = t_max / points
    times = step * np.arange(1, points + 2)  # one point past t_max
    fids = np.abs(np.exp(-1j * np.outer(times, y)) @ coeffs)
    inner = np.arange(1, len(times) - 1)
    peaks = inner[
        (fids[inner] >= fids[inner - 1])
        & (fids[inner] >= fids[inner + 1])
        & (fids[inner] > 1.0 - 1e-4)
    ]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    events = []
    for i in peaks:
        lo, hi = times[i - 1], times[i + 1]
        while hi - lo > 1e-9:
            x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
            if abs(amp(x1)) < abs(amp(x2)):
                lo = x1
            else:
                hi = x2
        t = 0.5 * (lo + hi)
        for _ in range(8):
            ph = np.exp(-1j * t * y)
            f, df, ddf = ph @ coeffs, ph @ (-1j * y * coeffs), ph @ (-(y**2) * coeffs)
            curv = 2.0 * (abs(df) ** 2 + (ddf * f.conjugate()).real)
            if curv >= 0.0:
                break
            t -= 2.0 * (df * f.conjugate()).real / curv
        value = amp(t)
        if not (0.0 < t <= t_max and abs(value) > 1.0 - 1e-10):
            continue
        if events and abs(t - events[-1][0]) < 1e-8:
            continue
        events.append((float(t), 1 if value.real > 0 else -1))
    return events


def scalar_strong_cospectrality(sd, a, b, tol=1e-7):
    """Strong cospectrality of a and b, one eigenvalue class at a time; a test oracle.

    owalk's ``strong_cospectrality`` reads the support in whole-array passes;
    this loop takes the supports index by index and, per class, ``complex()``,
    ``abs``, ``complex / float`` and ``cmath.phase``.  Both must give the same
    certificate bit for bit, signed zeros included.
    """
    threshold = 1e-8 * sd.n
    row_a, row_b = sd.vectors[a], sd.vectors[b]
    support = tuple(int(r) for r in np.flatnonzero(sd.class_norms(row_a) > threshold))
    if support != tuple(int(r) for r in np.flatnonzero(sd.class_norms(row_b) > threshold)):
        return None
    inners = sd.pair_coeffs(a, b)
    alphas, quarrels = {}, {}
    for r in support:
        inner = complex(inners[r])
        if abs(inner) <= threshold * threshold:
            return None
        alpha = inner / abs(inner)
        q = cmath.phase(alpha) / math.pi
        if q <= -1.0:
            q += 2.0
        alphas[r] = alpha
        quarrels[r] = q
    conj_alphas = np.zeros(len(sd.eigenvalues), dtype=complex)
    conj_alphas[list(support)] = np.conj(list(alphas.values()))
    mismatch = sd.class_norms(row_a - np.repeat(conj_alphas, sd.multiplicities) * row_b)
    residual = float(mismatch[list(support)].max())
    if residual > tol:
        return None
    return CospectralityCertificate(a, b, support, alphas, quarrels, residual)


def reference_verify_period(sd, cert):
    """owalk's ``verify_period`` as it read U(t) e_a through propagator columns; a test oracle.

    One product gives the columns at sigma / p for p = 1, 2, 3, 5, 7 and at 16
    seeded random times in (0, sigma), and np.linalg.norm measures each column's
    distance from +e_a and -e_a.  ``verify_period`` reads the same distances from
    the class weights of row a and must give the same verdict.
    """
    a = cert.vertex
    rng = random.Random(20260817 + a)
    times = [cert.sigma / p for p in (1, 2, 3, 5, 7)]
    times += [rng.uniform(0.0, cert.sigma) for _ in range(16)]
    cols = propagator_column(sd, a, np.array(times)[:, None])
    e_a = (np.arange(sd.n) == a)[:, None, None]
    dist = np.linalg.norm(cols[:, :, None] - e_a * [1.0, -1.0], axis=0)  # from +e_a, -e_a
    far = (dist[1:] > 1e-6).all()
    return bool(dist[0, (1 - cert.phase) // 2] < 1e-7 and far)


def reference_strong_cospectrality(sd, a, b, tol=1e-7):
    """owalk's ``strong_cospectrality`` before its class-norm refutation; a test oracle.

    Every pair whose supports agree gets its alphas, quarrels and residual, and
    only the residual refutes it.  ``strong_cospectrality`` refutes a pair whose
    class norms on rows a and b differ by more than 2*tol first, and must return
    the same certificate, repr for repr.
    """
    threshold = 1e-8 * sd.n
    row_a, row_b = sd.vectors[a], sd.vectors[b]
    members = np.flatnonzero(sd.class_norms(row_a) > threshold)
    support = tuple(members.tolist())
    if support != tuple(np.flatnonzero(sd.class_norms(row_b) > threshold).tolist()):
        return None
    inner = sd.pair_coeffs(a, b)[members]
    re, im = inner.real, inner.imag
    mag = np.hypot(re, im)
    if mag.min() <= threshold * threshold:
        return None
    alpha = np.empty_like(inner)
    alpha.real, alpha.imag = (re + im * 0.0) / mag, (im - re * 0.0) / mag
    q = np.array(list(map(math.atan2, alpha.imag.tolist(), alpha.real.tolist()))) / math.pi
    q[q <= -1.0] += 2.0
    conj_alphas = np.zeros(len(sd.eigenvalues), dtype=complex)
    conj_alphas[members] = alpha.conj()
    mismatch = sd.class_norms(row_a - np.repeat(conj_alphas, sd.multiplicities) * row_b)
    residual = float(mismatch[members].max())
    if residual > tol:
        return None
    return CospectralityCertificate(
        a, b, support, dict(zip(support, alpha.tolist())), dict(zip(support, q.tolist())), residual
    )


def scalar_scan_pst(sd, a, b, t_max, grid=MAX_SCAN_CANDIDATES, tol=DEFAULT_PST_TOL):
    """PST events a -> b in (0, t_max] from the transfer condition, one candidate at a time.

    A test oracle for owalk's block scan: the same candidate times
    pi*(offset + j)/|y_r0|, each tested by ``first_char_check`` and verified
    alone by ``verify_pst``, with the same refusal of more than ``grid``
    candidates.  A time within 1e-8 of the last certificate is skipped; the
    block scan has no such skip, since its candidates are pi/|y_r0| apart.
    """
    cospec = strong_cospectrality(sd, a, b, tol=tol)
    if cospec is None:
        return []
    y = sd.eigenvalues
    nonzero = [r for r in cospec.support if y[r] != 0.0]
    if not nonzero:
        raise DisconnectedGraphError(f"vertex {a} is isolated")
    r0 = min(nonzero, key=lambda r: abs(y[r]))
    y0 = abs(float(y[r0]))
    q0 = cospec.quarrels[r0]
    offset = (q0 if y[r0] > 0 else -q0) % 1.0
    if offset < DEFAULT_PARITY_TOL:
        offset += 1.0
    span = t_max * y0 / math.pi - offset
    if not span < grid:
        raise InputError(f"about {span:.3g} candidate times, more than {grid}")
    certificates = []
    for j in range(math.floor(span) + 1):
        tau = math.pi * (offset + j) / y0
        if first_char_check(cospec, sd, tau) is None:
            continue
        if certificates and abs(tau - certificates[-1].time) < 1e-8:
            continue
        cert = verify_pst(sd, a, b, tau, tol)
        if cert is not None:
            certificates.append(dataclasses.replace(cert, method="scan"))
    return certificates


def transition_matrix(sd, t):
    """U(t) = sum_r exp(-i*t*y_r) E_r, summed over the projectors sd.idempotents.

    A test oracle for the propagator: owalk itself builds only columns of
    U(t), from the eigenvector blocks.  U(t) is real, so the imaginary
    parts of the sum must vanish; the real part is returned.
    """
    u = np.einsum("r,rij->ij", np.exp(-1j * t * sd.eigenvalues), np.array(sd.idempotents))
    assert np.abs(u.imag).max() < 1e-8, np.abs(u.imag).max()
    return u.real


def monomial_matrix(p):
    """Monomial matrix of a switching automorphism: signs[perm[u]] at (perm[u], u)."""
    n = len(p.perm)
    m = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        m[p.perm[u], u] = p.signs[p.perm[u]]
    return m


def exhaustive_autos(g, node_budget=10**8):
    """Switching automorphisms by backtracking to every leaf; a test oracle.

    It reaches each automorphism as its own leaf, with no orbits,
    generators or transversals, and shares with owalk's stabilizer chain
    only the base order and the exact check.

    Candidates are pruned by degree and by exact consistency with all
    previously assigned vertices; signs propagate along edges, so free
    sign choices arise only at the first vertex of each connected
    component (the very first is pinned to +1 and both global signs are
    emitted afterward, since negating every sign preserves the identity).

    Results are sorted lexicographically by (perm, signs).  The identity
    permutation with all +1 signs is omitted unless it is the only
    automorphism.  ``node_budget`` bounds the number of search steps
    (SearchBudgetExceededError).
    """
    n = g.n
    if n == 0:
        return [SwitchingAutomorphism((), ())]
    a = g.adjacency
    degrees = [int(np.count_nonzero(a[u])) for u in range(n)]
    order = [v for part in _components(g) for v in part]
    img = [-1] * n
    t = [0] * n  # sign factor seen from the source: t[u] = signs[img[u]]
    used = [False] * n
    nodes = 0
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def consistent(u: int, w: int, tu: int) -> bool:
        for v in order:
            iv = img[v]
            if iv < 0 or v == u:
                continue
            if tu * t[v] * a[w, iv] != a[u, v]:
                return False
        return True

    def extend(pos: int):
        nonlocal nodes
        if pos == n:
            perm = tuple(img)
            signs = [0] * n
            for u in range(n):
                signs[img[u]] = t[u]
            found.add((perm, tuple(signs)))
            found.add((perm, tuple(-s for s in signs)))
            return
        u = order[pos]
        anchored = [v for v in order[:pos] if a[u, v] != 0]
        for w in range(n):
            if used[w] or degrees[w] != degrees[u]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceededError(
                    f"automorphism search exceeded {node_budget} nodes"
                )
            if anchored:
                v0 = anchored[0]
                ref = a[w, img[v0]]
                if ref == 0:
                    continue
                # entries are +-1, so dividing equals multiplying
                tu = int(a[u, v0]) * t[v0] * int(ref)
                sign_options = (tu,)
            elif pos == 0:
                sign_options = (1,)  # global sign quotient, re-emitted later
            else:
                sign_options = (1, -1)
            for tu in sign_options:
                if not consistent(u, w, tu):
                    continue
                img[u] = w
                t[u] = tu
                used[w] = True
                extend(pos + 1)
                img[u] = -1
                t[u] = 0
                used[w] = False

    extend(0)
    autos = [
        SwitchingAutomorphism(perm, signs) for perm, signs in sorted(found)
    ]
    for p in autos:
        if not is_switching_automorphism(g, p):
            raise VerificationFailedError(
                f"search produced perm={p.perm} signs={p.signs}, which fails P^T A P = A"
            )
    trivial = SwitchingAutomorphism(tuple(range(n)), (1,) * n)
    nontrivial = [p for p in autos if p != trivial]
    return nontrivial if nontrivial else autos


def reference_parser():
    """The CLI parser written out by hand, one add_argument per option.

    A test oracle for owalk.cli's command table: the plain walk and the
    parser generated from the table must both answer as this one does.
    """
    parser = argparse.ArgumentParser(
        prog="owalk",
        description="continuous quantum walks on oriented graphs: "
        "periodicity, strong cospectrality, perfect and multiple state transfer",
    )
    parser.add_argument("--version", action="version", version=f"owalk {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the analysis comes back negative",
    )
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="X",
        help=f"verification tolerance (default {DEFAULT_PST_TOL})",
    )
    graphed = argparse.ArgumentParser(add_help=False)
    graphed.add_argument("graph", help="graph file path or builtin example name")

    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    sub.add_parser(
        "spectrum", parents=[common, graphed], help="eigenvalues and idempotent ranks"
    )
    p_support = sub.add_parser(
        "support", parents=[common, graphed], help="eigenvalue support of a vertex"
    )
    p_support.add_argument("vertex", type=int)
    p_cos = sub.add_parser(
        "cospectral",
        parents=[common, graphed],
        help="strong cospectrality certificate for a vertex pair",
    )
    p_cos.add_argument("a", type=int)
    p_cos.add_argument("b", type=int)
    p_per = sub.add_parser(
        "periodic", parents=[common, graphed], help="periodicity certificate of a vertex"
    )
    p_per.add_argument("vertex", type=int)
    p_pst = sub.add_parser(
        "pst",
        parents=[common, graphed],
        help="perfect state transfer between two vertices",
    )
    p_pst.add_argument("a", type=int)
    p_pst.add_argument("b", type=int)
    mode = p_pst.add_mutually_exclusive_group()
    mode.add_argument("--time", type=float, default=None, help="verify one time")
    mode.add_argument(
        "--scan", action="store_true", help="scan (0, t_max] for transfers (default)"
    )
    p_pst.add_argument("--t-max", type=float, default=None, help="scan horizon")
    p_mst = sub.add_parser(
        "mst",
        parents=[common, graphed],
        help="multiple state transfer search over automorphism orbits",
    )
    p_mst.add_argument("--vertex", type=int, default=None, help="restrict start vertex")
    sub.add_parser(
        "autos", parents=[common, graphed], help="enumerate switching automorphisms"
    )
    p_evo = sub.add_parser(
        "evolve", parents=[common, graphed], help="emit vertex probabilities over time"
    )
    p_evo.add_argument("--source", type=int, required=True)
    p_evo.add_argument("--t-max", type=float, required=True)
    p_evo.add_argument("--steps", type=int, required=True)
    p_ex = sub.add_parser(
        "example", parents=[common], help="print a builtin example graph file"
    )
    p_ex.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    return parser


def reference_emit_json(obj, indent=0):
    """The report serializer with one recursive call per value; a test oracle.

    owalk.cli._emit_json formats lists of scalars and scalar dict values
    without recursing and must give this function's text and errors on
    plain Python values; it refuses subclasses such as numpy floats.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise VerificationFailedError("report contains a non-finite number")
        return "%.17g" % obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (list, tuple, dict)) for v in obj):
            return "[" + ", ".join(reference_emit_json(v) for v in obj) + "]"
        body = ",\n".join(
            "  " * (indent + 1) + reference_emit_json(v, indent + 1) for v in obj
        )
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"cannot serialize non-string key {key!r} into the report")
            items.append(
                "  " * (indent + 1) + json.dumps(key) + ": " + reference_emit_json(value, indent + 1)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into the report")
