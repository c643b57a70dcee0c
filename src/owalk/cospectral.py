"""Eigenvalue supports, strong cospectrality, and quarrels.

The support of a vertex is the set of eigenvalues whose idempotent sees
it.  Two vertices a, b are strongly cospectral when every idempotent
maps their basis vectors to unimodular multiples of each other:
E_r e_a = alpha_r E_r e_b with |alpha_r| = 1.  The quarrel q_r is the
phase exponent alpha_r = exp(i*pi*q_r), normalized to (-1, 1] (so a
real negative alpha gives q = 1, not -1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralDecomposition

__all__ = [
    "EigenvalueSupport",
    "CospectralityCertificate",
    "eigenvalue_support",
    "strong_cospectrality",
]


def default_support_threshold(n: int) -> float:
    return 1e-8 * n


@dataclass(frozen=True)
class EigenvalueSupport:
    """Indices r with ||E_r e_vertex|| above threshold."""

    vertex: int
    members: tuple[int, ...]
    threshold: float

    def __contains__(self, r: int) -> bool:
        return r in self.members


@dataclass(frozen=True)
class CospectralityCertificate:
    """Witness that two vertices are strongly cospectral.

    ``alphas`` maps each support index r to the unimodular alpha_r with
    E_r e_a = alpha_r * E_r e_b; ``quarrels`` holds q_r = arg(alpha_r)/pi
    in (-1, 1].  ``residual`` is the largest norm mismatch over the
    support.
    """

    a: int
    b: int
    support: tuple[int, ...]
    alphas: dict[int, complex]
    quarrels: dict[int, float]
    residual: float


def _members(cols: np.ndarray, threshold: float) -> tuple[int, ...]:
    """Indices r whose row E_r e_a of ``cols`` has norm above threshold."""
    norms = np.linalg.norm(cols, axis=1)
    return tuple(int(r) for r in np.flatnonzero(norms > threshold))


def eigenvalue_support(sd: SpectralDecomposition, a: int) -> EigenvalueSupport:
    """Support of vertex ``a``: eigenvalue indices whose idempotent sees it."""
    threshold = default_support_threshold(sd.n)
    members = _members(sd.columns(a), threshold)
    return EigenvalueSupport(vertex=a, members=members, threshold=threshold)


def strong_cospectrality(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    tol: float = 1e-7,
) -> CospectralityCertificate | None:
    """Certificate that a and b are strongly cospectral, or None.

    Returns None when the supports differ or some idempotent fails the
    unimodular-multiple relation beyond ``tol``.
    """
    threshold = default_support_threshold(sd.n)
    cols_a, cols_b = sd.columns(a), sd.columns(b)
    support = _members(cols_a, threshold)
    if support != _members(cols_b, threshold):
        return None
    inners = sd.pair_coeffs(a, b)
    alphas: dict[int, complex] = {}
    quarrels: dict[int, float] = {}
    residual = 0.0
    for r in support:
        # e_b^T E_r e_a equals <E_r e_b, E_r e_a>; its phase is alpha_r
        # whenever the two columns really are unimodular multiples.
        inner = complex(inners[r])
        if abs(inner) <= threshold * threshold:
            return None
        alpha = inner / abs(inner)
        residual = max(residual, float(np.linalg.norm(cols_a[r] - alpha * cols_b[r])))
        if residual > tol:
            return None
        q = cmath.phase(alpha) / math.pi
        if q <= -1.0:
            q += 2.0
        alphas[r] = alpha
        quarrels[r] = q
    return CospectralityCertificate(
        a=a,
        b=b,
        support=support,
        alphas=alphas,
        quarrels=quarrels,
        residual=residual,
    )
