import numpy as np
import pytest

from owalk import IntPolynomial, build_graph, builtin_example, decompose, is_connected
from owalk.errors import InconsistentExactCheckError


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
