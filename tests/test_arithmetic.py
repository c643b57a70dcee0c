import io
import math
from contextlib import redirect_stderr

import numpy as np
import pytest
import sympy

import owalk.arithmetic
from owalk import (
    IntPolynomial,
    build_graph,
    builtin_example,
    char_poly,
    quadratic_integer_profile,
    serialize_graph,
    square_free_part,
)
from owalk.cli import main
from owalk.errors import InconsistentExactCheckError, InputError

from conftest import faddeev_leverrier, k3_power, paley_tournament, random_oriented_graph


# -- cofactor-expansion oracle over polynomial entries ----------------------
# Polynomials are coefficient tuples, lowest degree first.


def _padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return tuple(out)


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _pscale(p, s):
    return tuple(s * c for c in p)


def _det_poly(m):
    # Laplace expansion along the first row; fine for n <= 5
    n = len(m)
    if n == 0:
        return (1,)
    if n == 1:
        return m[0][0]
    acc = (0,)
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        term = _pmul(m[0][j], _det_poly(minor))
        acc = _padd(acc, _pscale(term, (-1) ** j))
    return acc


def charpoly_oracle(g):
    a = g.adjacency
    m = [
        [((-int(a[i, j]), 1) if i == j else (-int(a[i, j]),)) for j in range(g.n)]
        for i in range(g.n)
    ]
    coeffs = list(_det_poly(m))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_char_poly_frozen_examples(k3, irrational5, p4_sd):
    assert char_poly(build_graph(2, [(0, 1)])).coeffs == (1, 0, 1)  # x^2 + 1
    assert char_poly(k3).coeffs == (0, 3, 0, 1)  # x^3 + 3x
    assert char_poly(irrational5).coeffs == (0, 0, 0, 7, 0, 1)  # x^5 + 7x^3
    assert char_poly(p4_sd.graph).coeffs == (1, 0, 3, 0, 1)  # x^4 + 3x^2 + 1
    # x^2 (x^2 + 4)^2 (x^2 + 16)
    assert char_poly(builtin_example("mst8")).coeffs == (0, 0, 256, 0, 144, 0, 24, 0, 1)


def test_char_poly_against_cofactor_oracle(rng):
    for _ in range(60):
        g = random_oriented_graph(rng, int(rng.integers(1, 6)))
        assert char_poly(g).coeffs == charpoly_oracle(g)


def test_char_poly_parity_structure(rng):
    # det(xI - A) = x^m * prod(x^2 + y^2): alternating zeros, rest >= 0
    for _ in range(30):
        g = random_oriented_graph(rng, int(rng.integers(1, 7)))
        p = char_poly(g)
        n = g.n
        assert p.degree == n
        assert p.coeffs[n] == 1
        for k in range(n):
            if (n - k) % 2 == 1:
                assert p.coeffs[k] == 0
            else:
                assert p.coeffs[k] >= 0


def oriented_cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_char_poly_matches_faddeev_leverrier():
    rng = np.random.default_rng(20261018)
    graphs = [random_oriented_graph(rng, n) for n in (8, 13, 21, 32, 40)]
    graphs += [k3_power(2), k3_power(3), builtin_example("mst8")]
    graphs += [oriented_cycle(n) for n in range(3, 17)]
    for g in graphs:
        assert char_poly(g).coeffs == faddeev_leverrier(g).coeffs, g


def paley_orders(top):
    """Primes q = 3 mod 4 up to ``top``: the orders of the Paley tournaments."""
    return [q for q in range(3, top + 1, 4) if all(q % d for d in range(2, q))]


def test_char_poly_paley_closed_form():
    # S^2 = J - qI and S J = 0 give det(xI - S) = x (x^2 + q)^((q-1)/2);
    # q = 127 and 131 draw their primes below a lower ceiling than n = 64 does
    for q in paley_orders(83) + [127, 131]:
        g = paley_tournament(q)
        h = (q - 1) // 2
        expected = [0] * (q + 1)
        for k in range(h + 1):
            expected[2 * k + 1] = math.comb(h, k) * q ** (h - k)
        assert char_poly(g).coeffs == tuple(expected), q


def test_char_poly_matches_sympy():
    rng = np.random.default_rng(1618)
    for n in (5, 7, 9, 11, 14, 16):
        g = random_oriented_graph(rng, n)
        coeffs = sympy.Matrix(g.adjacency.tolist()).charpoly().all_coeffs()
        assert char_poly(g).coeffs == tuple(int(c) for c in reversed(coeffs)), n


def test_char_poly_structure_guard(tmp_path, monkeypatch):
    # Paley 43 needs four primes; the third one's residue is off by one in
    # the middle coefficient, at an odd offset from x^1, where the exact
    # coefficient is 0: the lift is no longer x^m times an even polynomial
    q, mid = 43, 22
    g = paley_tournament(q)
    assert char_poly(g).coeffs[mid] == 0
    real = owalk.arithmetic._char_poly_mod
    drawn = []

    def off_by_one(a, primes):
        residues = real(a, primes)
        for p, row in zip(primes, residues):
            drawn.append(p)
            if len(drawn) == 3:
                row[mid] = (row[mid] + 1) % p
        return residues

    monkeypatch.setattr(owalk.arithmetic, "_char_poly_mod", off_by_one)
    with pytest.raises(InconsistentExactCheckError):
        char_poly(g)
    assert len(drawn) == 4
    path = tmp_path / "paley43.og"
    path.write_text(serialize_graph(g))
    drawn.clear()
    with redirect_stderr(io.StringIO()) as err:
        assert main(["spectrum", str(path)]) == 3
    assert "InconsistentExactCheckError" in err.getvalue()


def test_edge_count_bound_covers_coefficients():
    # Maclaurin: e_k(z) <= C(P, k) (|E|/P)^k with sum z_r = |E|, P = n // 2;
    # it bounds every coefficient and is never above the Hadamard bound
    # max_k C(n, k) k^(k/2) on principal minors
    graphs = [
        build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)]) for n in range(41)
    ]  # transitive tournaments
    graphs += [paley_tournament(q) for q in paley_orders(83)]
    for g in graphs:
        bound = owalk.arithmetic._coefficient_bound(g)
        hadamard = max(math.comb(g.n, k) * (math.isqrt(k**k - 1) + 1) for k in range(g.n + 1))
        assert max(abs(c) for c in char_poly(g).coeffs) <= bound <= hadamard, g.n


def test_primes_match_sympy():
    # the first 20 primes below the ceilings of n = 3, 64 and 256, largest first
    for n in (3, 64, 256):
        ceiling = math.isqrt((2**63 - 1) // (n + 1))
        want = [ceiling]
        while len(want) <= 20:
            want.append(sympy.prevprime(want[-1]))
        got = [ceiling]
        while len(got) <= 20:
            got.append(owalk.arithmetic._prime_below(got[-1]))
        assert got == want, n


def test_char_poly_searches_for_each_prime_once():
    # the primes of one ceiling are found on the first call and kept: a second
    # char_poly on n vertices, even of another graph, runs no primality test
    graphs = [random_oriented_graph(np.random.default_rng(seed), 64) for seed in (1, 2)]
    want = [char_poly(g) for g in graphs]
    searches = owalk.arithmetic._prime_below.cache_info().misses
    assert [char_poly(g) for g in reversed(graphs)] == want[::-1]
    assert owalk.arithmetic._prime_below.cache_info().misses == searches


def test_char_poly_agrees_with_a_prime_outside_the_lift(monkeypatch):
    # every prime drawn keeps (n + 1)(p - 1)^2 below 2^63, so the int64 products
    # are exact; the lifted polynomial reduced mod the next prime, which took no
    # part in the CRT, equals the residues computed mod that prime
    g = random_oriented_graph(np.random.default_rng(128), 128)
    real = owalk.arithmetic._char_poly_mod
    used = []
    monkeypatch.setattr(
        owalk.arithmetic, "_char_poly_mod", lambda a, primes: used.extend(primes) or real(a, primes)
    )
    coeffs = char_poly(g).coeffs
    assert all((g.n + 1) * (p - 1) ** 2 < 2**63 for p in used)
    fresh = owalk.arithmetic._prime_below(min(used))  # the primes are drawn largest first
    assert all(sympy.isprime(p) for p in used + [fresh])
    assert [c % fresh for c in coeffs] == real(g.adjacency, [fresh])[0]


def _primes_from_ceiling(n, count):
    primes = [math.isqrt((2**63 - 1) // (n + 1))]
    while len(primes) <= count:
        primes.append(owalk.arithmetic._prime_below(primes[-1]))
    return primes[1:]


def test_group_residues_equal_single_prime_residues():
    # one Hessenberg pass over a stack of primes gives each prime the residues
    # of its own pass, whichever row the group's first prime pivots on
    rng = np.random.default_rng(2110)
    graphs = [random_oriented_graph(rng, n) for n in (8, 32, 64, 128)]
    graphs += [paley_tournament(43), k3_power(4)]
    for g in graphs:
        primes = _primes_from_ceiling(g.n, 5)
        single = [owalk.arithmetic._char_poly_mod(g.adjacency, [p])[0] for p in primes]
        assert owalk.arithmetic._char_poly_mod(g.adjacency, primes) == single, g.n
        assert owalk.arithmetic._char_poly_mod(g.adjacency, primes[::-1]) == single[::-1], g.n


def test_group_recomputes_a_prime_that_cannot_share_the_pivot(monkeypatch):
    # column 0 below the diagonal is (p2, 1, 2): the first prime pivots on row 1,
    # where the second prime has a 0 over a nonzero column; the second prime
    # alone pivots on row 2 and still matches sympy, as the others do
    p1, p2, p3 = _primes_from_ceiling(4, 3)
    a = np.array([[0, 0, 0, 5], [p2, 0, 7, 0], [1, 3, 0, 0], [2, 0, 0, 1]], dtype=np.int64)
    exact = [int(c) for c in reversed(sympy.Matrix(a.tolist()).charpoly().all_coeffs())]
    real = owalk.arithmetic._char_poly_mod
    passes = []

    def spy(a, primes):
        passes.append(primes)
        return real(a, primes)

    monkeypatch.setattr(owalk.arithmetic, "_char_poly_mod", spy)
    got = owalk.arithmetic._char_poly_mod(a, [p1, p2, p3])
    assert got == [[c % p for c in exact] for p in (p1, p2, p3)]
    assert passes == [[p1, p2, p3], [p2]]


@pytest.mark.parametrize("n", [3, 64, 128, 256, 512])
def test_pass_sizes(n, monkeypatch):
    # a pass of k > 1 primes holds k n x n int64 matrices within _GROUP_ENTRIES:
    # every prime of n <= 64 in one pass, one prime per pass from n = 256 up
    passes = []

    def zeros(a, primes):  # no characteristic polynomial, so char_poly raises
        passes.append(len(primes))
        return [[0] * (n + 1) for _ in primes]

    monkeypatch.setattr(owalk.arithmetic, "_char_poly_mod", zeros)
    with pytest.raises(InconsistentExactCheckError):
        char_poly(random_oriented_graph(np.random.default_rng(n), n))
    assert all(k * n * n <= owalk.arithmetic._GROUP_ENTRIES for k in passes if k > 1)
    if n <= 64:
        assert len(passes) == 1
    if n == 128:  # 15 primes, 6 per pass
        assert passes == [6, 6, 3]
    if n >= 256:
        assert set(passes) == {1}


def test_int_polynomial_basics():
    p = IntPolynomial((1, 0, 3, 0, 1))
    assert p.degree == 4
    assert p(2) == 1 + 12 + 16
    assert p(-2) == p(2)
    m, q = IntPolynomial((0, 0, 5, 1)).even_part()
    assert m == 2
    assert q.coeffs == (5, 1)


def test_int_polynomial_strips_leading_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == (0,)


def test_square_free_part():
    assert square_free_part(1) == 1
    assert square_free_part(12) == 3
    assert square_free_part(7) == 7
    assert square_free_part(16) == 1
    assert square_free_part(45) == 5


def test_profile_accepts_k3_spectrum():
    assert quadratic_integer_profile([3.0, 3.0]) == (3, (1,))


def test_profile_accepts_irrational5_spectrum():
    assert quadratic_integer_profile([7.0000000001]) == (7, (1,))


def test_profile_accepts_mixed_multiples():
    # y^2 in {4, 16} -> y in {2, 4} = {2, 4} * sqrt(1)
    assert quadratic_integer_profile([4.0, 16.0]) == (1, (2, 4))
    # y^2 in {3, 12} -> y in {sqrt3, 2 sqrt3}
    assert quadratic_integer_profile([3.0, 12.0]) == (3, (1, 2))


def test_profile_rejects_p4_spectrum():
    golden = (3 + math.sqrt(5)) / 2
    other = (3 - math.sqrt(5)) / 2
    assert quadratic_integer_profile([golden, other]) is None


def test_profile_rejects_mixed_square_free_parts():
    # sqrt2 and sqrt3 cannot share a Delta
    assert quadratic_integer_profile([2.0, 3.0]) is None


def test_profile_rejects_far_from_integer():
    assert quadratic_integer_profile([2.5]) is None


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 0.5, 0.6, 1e300])
def test_profile_refuses_a_tol_outside_0_half(tol):
    # tol = nan or tol >= 0.5 would recognize 2.5 as an integer: refused before any value is read
    def values():
        pytest.fail("a value was read")
        yield 2.5

    with pytest.raises(InputError, match=r"tol must be a finite number in \(0, 0.5\)"):
        quadratic_integer_profile(values(), tol=tol, poly=lambda: pytest.fail("poly was called"))


def test_profile_cross_check_catches_lying_polynomial(k3):
    # recognized integers must be roots of the reduced char poly
    with pytest.raises(InconsistentExactCheckError):
        quadratic_integer_profile([3.0], poly=lambda: IntPolynomial((1, 0, 1)))


def test_profile_cross_check_passes_consistent_polynomial(k3):
    p = char_poly(k3)
    assert quadratic_integer_profile([3.0], poly=lambda: p) == (3, (1,))
