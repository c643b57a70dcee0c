import itertools
import math
import time

import numpy as np
import pytest

from owalk import (
    SwitchingAutomorphism,
    build_graph,
    builtin_example,
    decompose,
    find_switching_automorphisms,
    is_switching_automorphism,
    orbit,
)
from owalk.autos import DEFAULT_NODE_BUDGET, _compose, _stabilizer_chain
from owalk.errors import SearchBudgetExceededError

from conftest import (
    exhaustive_autos,
    k3_power,
    monomial_matrix,
    paley_tournament,
    random_oriented_graph,
    transition_matrix,
)


def group_order(g):
    """|G| read off the stabilizer chain, before anything is listed."""
    transversals, _ = _stabilizer_chain(g, DEFAULT_NODE_BUDGET)
    return 2 * math.prod(map(len, transversals))


def test_k3_census(k3):
    autos = find_switching_automorphisms(k3)
    as_pairs = [(p.perm, p.signs) for p in autos]
    assert as_pairs == [
        ((0, 1, 2), (-1, -1, -1)),
        ((1, 2, 0), (-1, -1, -1)),
        ((1, 2, 0), (1, 1, 1)),
        ((2, 0, 1), (-1, -1, -1)),
        ((2, 0, 1), (1, 1, 1)),
    ]
    orders = [p.order for p in autos]
    assert orders == [2, 6, 3, 6, 3]


def test_cyclic_shift_is_automorphism(k3):
    rot = SwitchingAutomorphism((1, 2, 0), (1, 1, 1))
    assert is_switching_automorphism(k3, rot)
    assert rot.apply(0) == 1 and rot.apply(1) == 2
    assert orbit(rot, 0) == (0, 1, 2)
    bad = SwitchingAutomorphism((1, 0, 2), (1, 1, 1))
    assert not is_switching_automorphism(k3, bad)


def test_one_flipped_sign_is_rejected(mst8):
    for p in find_switching_automorphisms(mst8):
        for w in range(mst8.n):
            signs = list(p.signs)
            signs[w] = -signs[w]
            flipped = SwitchingAutomorphism(p.perm, tuple(signs))
            assert not is_switching_automorphism(mst8, flipped), (p, w)


def test_negation_always_present(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, int(rng.integers(1, 7)))
        autos = find_switching_automorphisms(g)
        ident = tuple(range(g.n))
        assert any(
            p.perm == ident and p.signs == (-1,) * g.n for p in autos
        )


def test_trivial_identity_excluded_unless_alone(k3):
    autos = find_switching_automorphisms(k3)
    ident = SwitchingAutomorphism((0, 1, 2), (1, 1, 1))
    assert ident not in autos


def test_matrix_conjugation_exact(rng):
    for _ in range(10):
        g = random_oriented_graph(rng, int(rng.integers(2, 7)))
        for p in find_switching_automorphisms(g)[:6]:
            m = monomial_matrix(p)
            assert (m.T @ g.adjacency @ m == g.adjacency).all()


def test_automorphisms_commute_with_propagator(k3_sd, mst8_sd):
    for sd in (k3_sd, mst8_sd):
        autos = find_switching_automorphisms(sd.graph)[:8]
        for p in autos:
            m = monomial_matrix(p).astype(float)
            for t in (0.37, 1.91):
                u = transition_matrix(sd, t)
                assert np.linalg.norm(m.T @ u @ m - u) < 1e-8


def test_mst8_has_order_four_orbit(mst8):
    autos = find_switching_automorphisms(mst8)
    good = [
        p
        for p in autos
        if len(orbit(p, 0)) == 4 and set(orbit(p, 0)) == {0, 1, 6, 7}
    ]
    assert good, "expected an automorphism carrying 0 around {0, 1, 6, 7}"


def test_compose_and_order():
    rot = SwitchingAutomorphism((1, 2, 0), (1, 1, 1))
    rot2 = _compose(rot, rot)
    assert rot2.perm == (2, 0, 1)
    assert rot.order == 3
    neg = SwitchingAutomorphism((0, 1, 2), (-1, -1, -1))
    assert neg.order == 2
    mixed = _compose(neg, rot)
    assert mixed.perm == (1, 2, 0)
    assert mixed.signs == (-1, -1, -1)
    assert mixed.order == 6


@pytest.mark.parametrize("name", ["k3", "mst8", "k3xk3", "k3xk3xk3"])
def test_order_is_smallest_identity_power(name):
    # order against powers of the monomial matrix, and _compose against the
    # matrix product along the way
    g = k3_power(name.count("k3")) if "x" in name else builtin_example(name)
    identity = np.eye(g.n, dtype=np.int64)
    for p in find_switching_automorphisms(g):
        m = monomial_matrix(p)
        power, matrix, k = p, m, 1
        while not (matrix == identity).all():
            power, matrix, k = _compose(p, power), m @ matrix, k + 1
            assert (monomial_matrix(power) == matrix).all(), (p, k)
        assert p.order == k, (p, k)


@pytest.mark.parametrize("name", ["k3", "mst8", "k3xk3xk3"])
def test_cycles_partition_from_least_vertex(name):
    g = k3_power(3) if "x" in name else builtin_example(name)
    for p in find_switching_automorphisms(g):
        cycles = p.cycles()
        assert sorted(v for c in cycles for v in c) == list(range(g.n))
        assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
        assert all(c == orbit(p, c[0]) for c in cycles)


def test_compose_matches_matrix_product(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        perm1 = tuple(int(x) for x in rng.permutation(n))
        perm2 = tuple(int(x) for x in rng.permutation(n))
        signs1 = tuple(int(s) for s in rng.choice([-1, 1], size=n))
        signs2 = tuple(int(s) for s in rng.choice([-1, 1], size=n))
        p1 = SwitchingAutomorphism(perm1, signs1)
        p2 = SwitchingAutomorphism(perm2, signs2)
        combined = _compose(p1, p2)
        assert (
            monomial_matrix(combined) == monomial_matrix(p1) @ monomial_matrix(p2)
        ).all()


def test_results_deterministic_and_sorted(mst8):
    a1 = find_switching_automorphisms(mst8)
    a2 = find_switching_automorphisms(mst8)
    assert a1 == a2
    keys = [(p.perm, p.signs) for p in a1]
    assert keys == sorted(keys)


def test_budget_error(mst8):
    # the candidate-image search trips the budget, long before any listing
    with pytest.raises(SearchBudgetExceededError, match="^automorphism search exceeded 5 nodes$"):
        find_switching_automorphisms(mst8, node_budget=5)


@pytest.mark.parametrize("n, order", [(10, 3_715_891_200), (14, 1_428_329_123_020_800)])
def test_group_too_large_to_list_is_refused_at_once(n, order):
    # n isolated vertices: |G| = 2^n n!, so n |G| is far over the budget;
    # the chain gives |G| before a single product is formed
    start = time.perf_counter()
    with pytest.raises(SearchBudgetExceededError, match=f"group of order {order} is too large"):
        find_switching_automorphisms(build_graph(n, []))
    assert time.perf_counter() - start < 0.1


def test_every_result_verifies(rng):
    for _ in range(8):
        g = random_oriented_graph(rng, int(rng.integers(1, 7)))
        for p in find_switching_automorphisms(g):
            assert is_switching_automorphism(g, p)


def test_search_matches_exhaustive_oracle(rng):
    graphs = [builtin_example(name) for name in ("k3", "mst8", "irrational5")]
    graphs += [build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    graphs += [k3_power(d) for d in (1, 2, 3)]
    graphs += [paley_tournament(q) for q in (7, 11)]
    graphs.append(build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    graphs.append(build_graph(4, [(0, 1), (1, 2), (2, 0)]))
    graphs += [random_oriented_graph(rng, int(rng.integers(1, 9))) for _ in range(60)]
    for g in graphs:
        assert find_switching_automorphisms(g) == exhaustive_autos(g), g.edges


def test_search_matches_brute_force(rng):
    # every signed permutation of n <= 5 vertices, kept when P^T A P = A
    for _ in range(12):
        g = random_oriented_graph(rng, int(rng.integers(1, 6)))
        a, n = g.adjacency, g.n
        group = []
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                m = monomial_matrix(SwitchingAutomorphism(perm, signs))
                if (m.T @ a @ m == a).all():
                    group.append(SwitchingAutomorphism(perm, signs))
        found = set(find_switching_automorphisms(g))
        found.add(SwitchingAutomorphism(tuple(range(n)), (1,) * n))
        assert found == set(group), g.edges
        assert group_order(g) == len(group), g.edges


@pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43])
def test_paley_group_order(q):
    # x -> ax + b with a a nonzero square, each with all signs +1 or all
    # -1: q(q - 1) elements, of which the identity is not reported
    g = paley_tournament(q)
    assert group_order(g) == q * (q - 1)
    assert len(find_switching_automorphisms(g)) == q * (q - 1) - 1


CHAIN_GRAPHS = {
    **{f"cycle{n}": build_graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)},
    **{f"k3^{d}": k3_power(d) for d in range(1, 5)},
    "mst8": builtin_example("mst8"),
}


@pytest.mark.parametrize("name", CHAIN_GRAPHS)
def test_chain_order_counts_the_listed_group(name):
    g = CHAIN_GRAPHS[name]
    assert group_order(g) == len(find_switching_automorphisms(g)) + 1
