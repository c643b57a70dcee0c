"""Periodicity certificates for vertices of oriented graphs.

A vertex a is periodic when U(sigma) e_a = phase * e_a for some sigma > 0
and phase in {+1, -1}.  That happens exactly when every nonzero
eigenvalue in the vertex's support has |theta_r|^2 = b_r^2 * Delta for a
common square-free Delta; with g = gcd(b_r), the minimal period is

    sigma = pi / (g * sqrt(Delta))     with phase -1, possible only when
                                       0 is outside the support and every
                                       b_r / g is odd;
    sigma = 2*pi / (g * sqrt(Delta))   with phase +1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arithmetic
from .cospectral import EigenvalueSupport
from .errors import DisconnectedGraphError
from .graph import _check_vertex
from .spectral import SpectralDecomposition, _check_time

__all__ = ["PeriodicityCertificate", "is_periodic", "verify_period"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SPOT_CHECK_COUNT = 16
_PERIOD_TOL = 1e-7


@dataclass(frozen=True)
class PeriodicityCertificate:
    """Exact description of a vertex's minimal period.

    ``b_coeffs`` maps each nonzero support index r to the positive integer
    b_r with |theta_r| = b_r * sqrt(Delta).
    """

    vertex: int
    delta: int
    b_coeffs: dict[int, int]
    g: int
    phase: int
    sigma: float
    zero_in_support: bool


def is_periodic(
    sd: SpectralDecomposition, support: EigenvalueSupport
) -> PeriodicityCertificate | None:
    """Decide periodicity of the supported vertex and build its certificate.

    Any graph is accepted, since the characterization reads only a's support; an
    isolated vertex (support {0}) never moves and raises DisconnectedGraphError.
    Returns None when the support's nonzero eigenvalues do not share a square-free
    Delta; the integer recognition is cross-checked against the exact characteristic
    polynomial, computed (once per decomposition) only when every value is an integer.
    """
    nonzero = [r for r in support.members if sd.eigenvalues[r] != 0.0]
    zero_in_support = len(nonzero) != len(support.members)
    if not nonzero:
        raise DisconnectedGraphError(
            f"vertex {support.vertex} is isolated: the walk leaves it in place at every time"
        )
    squares = [float(sd.eigenvalues[r]) ** 2 for r in nonzero]
    profile = arithmetic.quadratic_integer_profile(squares, poly=lambda: sd.char_poly)
    if profile is None:
        return None
    delta, b_values = profile
    b_of = {b * b * delta: b for b in b_values}  # c = b^2 * Delta -> b, as recognized
    b_coeffs = {r: b_of[round(sq)] for r, sq in zip(nonzero, squares)}
    gcd_b = math.gcd(*b_coeffs.values())
    phase = -1 if not zero_in_support and all(b // gcd_b % 2 for b in b_coeffs.values()) else +1
    sigma = (1.0 if phase == -1 else 2.0) * math.pi / (gcd_b * math.sqrt(delta))
    return PeriodicityCertificate(
        vertex=support.vertex,
        delta=delta,
        b_coeffs=b_coeffs,
        g=gcd_b,
        phase=phase,
        sigma=sigma,
        zero_in_support=zero_in_support,
    )


def verify_period(sd: SpectralDecomposition, cert: PeriodicityCertificate) -> bool:
    """Numerically confirm the certificate's period, and that sigma/p is none for p = 2, 3, 5, 7.

    With w_r = ||E_r e_a||^2, U(t)[a, a] = sum_r w_r cos(t*y_r) (U is real) and
    ||U(t) e_a -+ e_a||^2 = sum_r w_r -+ 2 U(t)[a, a] + 1, read in one (21 x R) product at
    sigma / p for p = 1, 2, 3, 5, 7 and at 16 spot times in (0, sigma), fixed per vertex.
    Checks ||U(sigma) e_a - phase * e_a|| < tol = 1e-7, and that at the other 20 times the
    walker is far (> 10*tol) from both +e_a and -e_a.  So a period taken 2, 3, 5 or 7 times
    fails; minimality beyond factors 2, 3, 5 and 7 rests on the exact certificate.
    """
    a = cert.vertex
    _check_vertex(sd.n, a)
    _check_time(sd, cert.sigma)
    w = sd.class_norms(sd.vectors[a]) ** 2
    # a golden-ratio (Weyl) sequence from a, in [0.01, 0.99): clear of the returns at 0 and sigma
    spots = [0.01 + 0.98 * ((a + j) * _GOLDEN % 1.0) for j in range(1, _SPOT_CHECK_COUNT + 1)]
    times = np.array([cert.sigma / p for p in (1, 2, 3, 5, 7)] + [cert.sigma * f for f in spots])
    back, *others = (np.cos(times[:, None] * sd.eigenvalues) @ w).tolist()
    total = float(w.sum()) + 1.0
    near = total - 2.0 * cert.phase * back < _PERIOD_TOL**2  # squared distances
    return near and total - 2.0 * max(map(abs, others)) > (10 * _PERIOD_TOL) ** 2
