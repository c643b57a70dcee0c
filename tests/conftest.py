import numpy as np
import pytest

from owalk import build_graph, builtin_example, decompose, is_connected


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
