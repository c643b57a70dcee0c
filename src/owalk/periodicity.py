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
from .graph import is_connected
from .spectral import SpectralDecomposition, propagator_column

__all__ = ["PeriodicityCertificate", "is_periodic", "verify_period"]

_SPOT_CHECK_SEED = 20260817
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

    Requires a connected graph on at least two vertices.  Returns None
    when the support's nonzero eigenvalues do not share a square-free
    Delta; the integer recognition is cross-checked against the exact
    characteristic polynomial, which is computed (once per decomposition)
    only when every value has been recognized as an integer.
    """
    g = sd.graph
    if g.n < 2 or not is_connected(g):
        raise DisconnectedGraphError(
            "periodicity is defined for connected graphs on >= 2 vertices"
        )
    nonzero = [r for r in support.members if sd.eigenvalues[r] != 0.0]
    zero_in_support = len(nonzero) != len(support.members)
    if not nonzero:
        return None
    squares = [float(sd.eigenvalues[r]) ** 2 for r in nonzero]
    profile = arithmetic.quadratic_integer_profile(squares, poly=lambda: sd.char_poly)
    if profile is None:
        return None
    delta, _ = profile
    b_coeffs: dict[int, int] = {}
    for r, sq in zip(nonzero, squares):
        c = round(sq)
        b_coeffs[r] = math.isqrt(c // delta)
    gcd_b = math.gcd(*b_coeffs.values())
    all_odd = all((b // gcd_b) % 2 == 1 for b in b_coeffs.values())
    if not zero_in_support and all_odd:
        phase = -1
        sigma = math.pi / (gcd_b * math.sqrt(delta))
    else:
        phase = +1
        sigma = 2.0 * math.pi / (gcd_b * math.sqrt(delta))
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
    """Numerically confirm the certificate's period and its minimality.

    Checks ||U(sigma) e_a - phase * e_a|| < tol with tol = 1e-7, and that
    at 16 seeded random times inside (0, sigma) the walker is far
    (> 10*tol) from both +e_a and -e_a, so no smaller period was missed.
    """
    a = cert.vertex
    basis = np.zeros(sd.n)
    basis[a] = 1.0
    col = propagator_column(sd, a, cert.sigma)
    if np.linalg.norm(col - cert.phase * basis) >= _PERIOD_TOL:
        return False
    rng = np.random.default_rng(_SPOT_CHECK_SEED + a)
    for t in rng.uniform(0.0, cert.sigma, size=_SPOT_CHECK_COUNT):
        col = propagator_column(sd, a, float(t))
        if np.linalg.norm(col - basis) <= 10 * _PERIOD_TOL:
            return False
        if np.linalg.norm(col + basis) <= 10 * _PERIOD_TOL:
            return False
    return True
