"""Exact integer arithmetic backing the periodicity test.

det(xI - A) is computed modulo primes p with (n + 1)(p - 1)^2 < 2^63, by
Hessenberg reduction and the Hessenberg recurrence (Cohen, A Course in
Computational Algebraic Number Theory, 2.2) in int64 numpy, where each matrix
product is exact and reduced once; one pass reduces a group of primes.  The
residues are lifted by CRT past an edge-count bound on the coefficients and
checked for the shape of a skew-symmetric characteristic polynomial.  Squared
eigenvalue magnitudes of a skew-symmetric integer matrix are algebraic
integers; recognizing them as b^2 * Delta with Delta square-free is what
decides periodicity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from .errors import InconsistentExactCheckError, InputError
from .graph import OrientedGraph

__all__ = [
    "IntPolynomial",
    "char_poly",
    "square_free_part",
    "quadratic_integer_profile",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial with coefficients stored lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs or (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def even_part(self) -> tuple[int, "IntPolynomial"]:
        """Split off the largest power of x: p(x) = x^m * q(x).

        Returns (m, q).  For the characteristic polynomial of a
        skew-symmetric matrix, q contains only even-degree terms.
        """
        coeffs = self.coeffs
        m = 0
        while m < len(coeffs) - 1 and coeffs[m] == 0:
            m += 1
        return m, IntPolynomial(coeffs[m:])

    @cached_property
    def _in_x_squared(self) -> "IntPolynomial":
        """q with p(x) = x^m * q(x^2), built on first read: for p = x^m times an even polynomial."""
        return IntPolynomial(self.even_part()[1].coeffs[0::2])


@cache
def _prime_below(ceiling: int) -> int:
    """The largest prime in (47, ``ceiling``), for ``ceiling`` <= 3.2e9, kept per ceiling.

    A gcd with 3 * 5 * ... * 47 drops most composites at once; Miller-Rabin
    with bases 2, 3, 5, 7 is exact on the rest: x = a^d mod m by one pow per
    base, then x^2, x^4, ..., x^(2^(s-1)) by squaring.  char_poly walks one
    chain of these down from the ceiling of each n, so a later call at the
    same n tests no candidate again."""
    for m in range((ceiling - 2) | 1, 1, -2):
        s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s with d odd
        if math.gcd(m, 307444891294245705) == 1 and all(
            (x := pow(a, (m - 1) >> s, m)) == 1
            or m - 1 in accumulate(range(s - 1), lambda y, _: y * y % m, initial=x)
            for a in (2, 3, 5, 7)
        ):
            return m


# int64 entries in one pass's stack: every prime of n <= 64, six at n = 128, one from n = 224 up
_GROUP_ENTRIES = 100_000


def _char_poly_mod(a: np.ndarray, primes: list[int]) -> list[list[int]]:
    """det(xI - A) mod each prime of ``primes``, lowest degree first, one list per prime.

    Every p has (n + 1)(p - 1)^2 < 2^63.  A goes to upper Hessenberg form H by
    similarity; p_m = det(xI - H[:m, :m]) is x p_{m-1} - sum_i c_i p_{i-1} with
    c_i = H[i-1, m-1] H[i, i-1] ... H[m-1, m-2].  One prime works on the n x n
    matrix with a scalar modulus; a group works on a stack of them, one per
    prime, with moduli shaped to broadcast against matrices (p) and rows (q).
    The group pivots on the row its first prime picks.  det(xI - H) mod p does
    not depend on that choice, but a prime whose entry in that row is 0 while
    its column below is not cannot pivot there, and is recomputed alone."""
    k, n = len(primes), len(a)
    q = primes[0] if k == 1 else np.array(primes, dtype=np.int64)[:, None]
    p = q if k == 1 else q[:, :, None]
    h = a % p
    lead, lone = h if k == 1 else h[0], set()
    for j in range(n - 2):
        i = j + 1 if lead[j + 1, j] else j + 1 + int(np.argmax(lead[j + 1 :, j] != 0))
        pivots = h[..., i, j].tolist()
        if k == 1:
            if pivots == 0:
                continue
            inv = pow(pivots, -1, q)
        else:
            if 0 in pivots:
                below = h[:, j + 1 :, j].any(axis=1).tolist()
                lone.update(r for r, x, b in zip(primes, pivots, below) if b and not x)
            inv = np.array([pow(x, -1, r) if x else 0 for x, r in zip(pivots, primes)])[:, None]
        if i != j + 1:
            h[..., [i, j + 1], :] = h[..., [j + 1, i], :]
            h[..., :, [i, j + 1]] = h[..., :, [j + 1, i]]
        u = h[..., j + 2 :, j] * inv % q
        block = h[..., j + 2 :, j:]
        block -= u[..., None] * h[..., j + 1, None, j:]
        block %= p
        column = h[..., :, j + 1]
        column += (h[..., :, j + 2 :] @ u[..., None])[..., 0]
        column %= q
    sub = np.diagonal(h, -1, -2, -1).T.reshape(n - 1, *np.shape(q))  # H[m, m - 1] per prime
    polys = np.zeros((*h.shape[:-2], n + 1, n + 1), dtype=np.int64)  # row m: p_m, monic
    polys[..., 0, 0] = 1
    t = np.ones((*h.shape[:-2], n), dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            t[..., : m - 1] = t[..., : m - 1] * sub[m - 2] % q
        c = t[..., :m] * h[..., :m, m - 1] % q
        polys[..., m, 1 : m + 1] = polys[..., m - 1, :m]
        cp = (c[..., None, :] @ polys[..., :m, :m])[..., 0, :]
        polys[..., m, :m] = (polys[..., m, :m] - cp) % q
    residues = polys[..., n, :].reshape(k, n + 1).tolist()
    for r in lone:
        residues[primes.index(r)] = _char_poly_mod(a, [r])[0]
    return residues


def _coefficient_bound(g: OrientedGraph) -> int:
    """max_k C(P, k) * ceil(|E|^k / P^k), P = n // 2: no coefficient of det(xI - A) is larger."""
    half = g.n // 2
    return max(math.comb(half, k) * -(-(len(g.edges) ** k) // half**k) for k in range(half + 1))


def char_poly(g: OrientedGraph) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) with exact integer coefficients.

    It is x^m * prod(x^2 + z_r) over at most P = n // 2 numbers z_r >= 0 with
    sum z_r = sum A_ij^2 / 2 = |E|, so by Maclaurin's inequality the coefficient
    e_k(z) is at most C(P, k) * (|E| / P)^k.  Residues mod primes p with
    (n + 1)(p - 1)^2 < 2^63, drawn largest first and reduced in groups whose
    stack of n x n matrices stays within _GROUP_ENTRIES, are combined by CRT
    until the modulus exceeds twice that bound, so the symmetric lift is
    exact.  A result not of that shape
    (monic of degree n, zero at odd offsets from x^m, nonnegative elsewhere)
    raises InconsistentExactCheckError.
    """
    n, bound = g.n, _coefficient_bound(g)
    primes, modulus, p = [], 1, math.isqrt((2**63 - 1) // (n + 1))
    while modulus <= 2 * bound:
        p = _prime_below(p)
        primes.append(p)
        modulus *= p
    size = max(1, _GROUP_ENTRIES // max(n * n, 1))
    coeffs, modulus = [0] * (n + 1), 1
    for s in range(0, len(primes), size):
        group = primes[s : s + size]
        for p, residues in zip(group, _char_poly_mod(g.adjacency, group)):
            step = pow(modulus, -1, p)
            coeffs = [x + modulus * ((r - x) * step % p) for x, r in zip(coeffs, residues)]
            modulus *= p
    poly = IntPolynomial(tuple(x - modulus if 2 * x > modulus else x for x in coeffs))
    even = poly.even_part()[1].coeffs
    if poly.degree != n or even[-1] != 1 or any(even[1::2]) or min(even) < 0:
        raise InconsistentExactCheckError(
            f"characteristic polynomial {poly.coeffs} is not x^m times a monic "
            "even polynomial with nonnegative coefficients"
        )
    return poly


def square_free_part(m: int) -> int:
    """Largest square-free divisor d of m with m/d a perfect square (m >= 1)."""
    if m < 1:
        raise ValueError(f"square_free_part needs a positive integer, got {m}")
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            exp = 0
            while m % d == 0:
                m //= d
                exp += 1
            if exp % 2:
                result *= d
        d += 1 if d == 2 else 2
    return result * m


def quadratic_integer_profile(
    y_squared_values,
    tol: float = 1e-6,
    poly: Callable[[], IntPolynomial] | None = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Recognize squared eigenvalue magnitudes as b^2 * Delta, Delta square-free.

    Parameters
    ----------
    y_squared_values : iterable of float
        Values |theta_r|^2 for the nonzero eigenvalues of interest.
    tol : float
        Absolute tolerance for integer recognition, a finite number in
        (0, 0.5); any other value raises InputError before any value is read.
    poly : function returning an IntPolynomial, optional
        Returns the characteristic polynomial of the graph.  When given,
        every recognized integer c is cross-checked to be a root of the
        integer polynomial obtained by substituting x^2 = -y; disagreement
        raises InconsistentExactCheckError (float rounding and exact
        arithmetic must not contradict each other).  It is called only
        once every value has been recognized as an integer, so a costly
        polynomial is never computed for values the float test rejects.

    Returns
    -------
    (Delta, b_values) with b_values sorted ascending and deduplicated,
    or None when the values are not all integers sharing one square-free
    part.
    """
    if not 0.0 < tol < 0.5:  # nan compares false, and tol >= 0.5 would call 2.5 an integer
        raise InputError(f"tol must be a finite number in (0, 0.5), got {tol!r}")
    recognized: list[int] = []
    for value in y_squared_values:
        value = float(value)
        c = round(value)
        if abs(value - c) > tol or c < 1:
            return None
        if c not in recognized:
            recognized.append(c)
    if not recognized:
        return None
    if poly is not None:
        reduced = poly()._in_x_squared  # q(z), z = x^2, built once per polynomial
        for c in recognized:
            if reduced(-c) != 0:
                raise InconsistentExactCheckError(
                    f"float value {c} is not an exact squared eigenvalue; "
                    f"tolerance {tol} admits a wrong integer"
                )
    deltas = {square_free_part(c) for c in recognized}
    if len(deltas) != 1:
        return None
    delta = deltas.pop()
    b_values = []
    for c in recognized:
        b = math.isqrt(c // delta)
        if b * b * delta != c:
            raise InconsistentExactCheckError(
                f"{c} is not b^2 * {delta} for an integer b"
            )
        b_values.append(b)
    return delta, tuple(sorted(set(b_values)))
