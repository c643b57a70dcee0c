"""Exact integer arithmetic backing the periodicity test.

Characteristic polynomials are computed over arbitrary-precision Python
integers (coefficients of det(xI - A) grow quickly; fixed-width types
would silently overflow).  Squared eigenvalue magnitudes of a
skew-symmetric integer matrix are algebraic integers; recognizing them
as b^2 * Delta with Delta square-free is what decides periodicity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import InconsistentExactCheckError
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


def char_poly(g: OrientedGraph) -> IntPolynomial:
    """Characteristic polynomial det(xI - A) with exact integer coefficients.

    Uses the Faddeev-LeVerrier recurrence; each division by the step index
    is exact for integer matrices, and an inexact one raises
    InconsistentExactCheckError.
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
        Absolute tolerance for integer recognition.
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
        _, even = poly().even_part()
        coeffs = even.coeffs
        if any(coeffs[1::2]):
            raise InconsistentExactCheckError(
                "characteristic polynomial of a skew-symmetric matrix must have "
                "only even-degree terms after stripping powers of x"
            )
        reduced = IntPolynomial(coeffs[0::2])  # q(z) with z = x^2
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
