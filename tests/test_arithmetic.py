import math

import pytest

from owalk import IntPolynomial, build_graph, char_poly, quadratic_integer_profile, square_free_part
from owalk.errors import InconsistentExactCheckError

from conftest import random_oriented_graph


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


def test_profile_cross_check_catches_lying_polynomial(k3):
    # recognized integers must be roots of the reduced char poly
    with pytest.raises(InconsistentExactCheckError):
        quadratic_integer_profile([3.0], poly=lambda: IntPolynomial((1, 0, 1)))


def test_profile_cross_check_passes_consistent_polynomial(k3):
    p = char_poly(k3)
    assert quadratic_integer_profile([3.0], poly=lambda: p) == (3, (1,))
