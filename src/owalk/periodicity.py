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
import random
from dataclasses import dataclass

import numpy as np

from . import arithmetic
from .cospectral import EigenvalueSupport
from .errors import DisconnectedGraphError
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

    Requires a connected graph on at least two vertices, decided once per
    decomposition.  Returns None when the support's nonzero eigenvalues do not
    share a square-free Delta; the integer recognition is cross-checked against
    the exact characteristic polynomial, which is computed (once per
    decomposition) only when every value has been recognized as an integer.
    """
    if sd.n < 2 or not sd.connected:
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
    """Numerically confirm the certificate's period, and that sigma/p is none for p = 2, 3, 5, 7.

    One product gives U(t) e_a at sigma / p for p = 1, 2, 3, 5, 7 and at 16 seeded
    random times in (0, sigma).  Checks ||U(sigma) e_a - phase * e_a|| < tol with
    tol = 1e-7, and that at the other 20 times the walker is far (> 10*tol) from
    both +e_a and -e_a.  So a period taken 2, 3, 5 or 7 times fails; minimality
    beyond factors 2, 3, 5 and 7 rests on the exact certificate.
    """
    a = cert.vertex
    rng = random.Random(_SPOT_CHECK_SEED + a)
    times = [cert.sigma / p for p in (1, 2, 3, 5, 7)]
    times += [rng.uniform(0.0, cert.sigma) for _ in range(_SPOT_CHECK_COUNT)]
    cols = propagator_column(sd, a, np.array(times)[:, None])
    e_a = (np.arange(sd.n) == a)[:, None, None]
    dist = np.linalg.norm(cols[:, :, None] - e_a * [1.0, -1.0], axis=0)  # from +e_a, -e_a
    far = (dist[1:] > 10 * _PERIOD_TOL).all()
    return bool(dist[0, (1 - cert.phase) // 2] < _PERIOD_TOL and far)
