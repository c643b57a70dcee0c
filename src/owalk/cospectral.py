"""Eigenvalue supports, strong cospectrality, and quarrels.

The support of a vertex is the set of eigenvalues whose idempotent sees
it.  Two vertices a, b are strongly cospectral when every idempotent
maps their basis vectors to unimodular multiples of each other:
E_r e_a = alpha_r E_r e_b with |alpha_r| = 1.  The quarrel q_r is the
phase exponent alpha_r = exp(i*pi*q_r), normalized to (-1, 1] (so a
real negative alpha gives q = 1, not -1).

Both are read from rows a and b of the blocks V_r in O(n): ||E_r e_a||
is ||V_r[a]||, and ||E_r e_a - alpha E_r e_b|| is ||V_r[a] - conj(alpha) V_r[b]||.
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


def _members(norms: np.ndarray, threshold: float) -> tuple[int, ...]:
    """Indices r whose norm ||E_r e_a|| is above threshold."""
    return tuple(int(r) for r in np.flatnonzero(norms > threshold))


def eigenvalue_support(sd: SpectralDecomposition, a: int) -> EigenvalueSupport:
    """Support of vertex ``a``: eigenvalue indices whose idempotent sees it."""
    threshold = default_support_threshold(sd.n)
    members = _members(sd.class_norms(sd.vectors[a]), threshold)
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
    row_a, row_b = sd.vectors[a], sd.vectors[b]
    support = _members(sd.class_norms(row_a), threshold)
    if support != _members(sd.class_norms(row_b), threshold):
        return None
    inners = sd.pair_coeffs(a, b)
    alphas: dict[int, complex] = {}
    quarrels: dict[int, float] = {}
    for r in support:
        # e_b^T E_r e_a equals <E_r e_b, E_r e_a>; its phase is alpha_r
        # whenever the two columns really are unimodular multiples.
        inner = complex(inners[r])
        if abs(inner) <= threshold * threshold:
            return None
        alpha = inner / abs(inner)
        q = cmath.phase(alpha) / math.pi
        if q <= -1.0:
            q += 2.0
        alphas[r] = alpha
        quarrels[r] = q
    # the residual is the largest ||E_r e_a - alpha_r E_r e_b||, which is
    # ||V_r[a] - conj(alpha_r) V_r[b]||, over the support
    conj_alphas = np.zeros(len(sd.eigenvalues), dtype=complex)
    conj_alphas[list(support)] = np.conj(list(alphas.values()))
    mismatch = sd.class_norms(row_a - np.repeat(conj_alphas, sd.multiplicities) * row_b)
    residual = float(mismatch[list(support)].max())
    if residual > tol:
        return None
    return CospectralityCertificate(
        a=a,
        b=b,
        support=support,
        alphas=alphas,
        quarrels=quarrels,
        residual=residual,
    )
