"""Eigenvalue supports, strong cospectrality, and quarrels.

The support of a vertex is the set of eigenvalues whose idempotent sees
it.  Two vertices a, b are strongly cospectral when every idempotent
maps their basis vectors to unimodular multiples of each other:
E_r e_a = alpha_r E_r e_b with |alpha_r| = 1.  The quarrel q_r is the
phase exponent alpha_r = exp(i*pi*q_r), normalized to (-1, 1] (so a
real negative alpha gives q = 1, not -1).

Both are read from rows a and b of the blocks V_r in O(n): ||E_r e_a||
is ||V_r[a]||, and ||E_r e_a - alpha E_r e_b|| is ||V_r[a] - conj(alpha) V_r[b]||.
That mismatch is at least | ||V_r[a]|| - ||V_r[b]|| | when |alpha| = 1, so a pair
whose class norms differ by more than 2*tol is refuted before any phase is formed.
Each call makes a fixed number of whole-array passes; per support member it takes
libm atan2 (bit-identical to cmath.phase) and Python float steps on alpha's parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _check_vertex
from .spectral import SpectralDecomposition, _check_tol

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


def _members(norms: np.ndarray, threshold: float) -> np.ndarray:
    """Indices r whose norm ||E_r e_a|| is above threshold, ascending."""
    return (norms > threshold).nonzero()[0]  # not np.flatnonzero, whose ravel costs ~2 us a call


def eigenvalue_support(sd: SpectralDecomposition, a: int) -> EigenvalueSupport:
    """Support of vertex ``a``: eigenvalue indices whose idempotent sees it."""
    _check_vertex(sd.n, a)
    threshold = default_support_threshold(sd.n)
    members = tuple(_members(sd.class_norms(sd.vectors[a]), threshold).tolist())
    return EigenvalueSupport(vertex=a, members=members, threshold=threshold)


def strong_cospectrality(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    tol: float = 1e-7,
) -> CospectralityCertificate | None:
    """Certificate that a and b are strongly cospectral, or None.

    Returns None when the supports differ, when some class's norms on rows a and b differ
    by more than 2*tol, or when some idempotent fails the unimodular-multiple relation
    beyond ``tol``.  A ``tol`` outside (0, 1) raises InputError.
    """
    _check_vertex(sd.n, a, b)
    _check_tol(tol)
    threshold = default_support_threshold(sd.n)
    row_a, row_b = sd.vectors[a], sd.vectors[b]
    norms_a, norms_b = sd.class_norms(row_a), sd.class_norms(row_b)
    members = _members(norms_a, threshold)
    support = tuple(members.tolist())
    if support != tuple(_members(norms_b, threshold).tolist()):
        return None
    if abs(norms_a - norms_b)[members].max() > 2.0 * tol:
        return None
    # e_b^T E_r e_a = <E_r e_b, E_r e_a> has phase alpha_r; hypot, atan2 and dividing re + im*0
    # and im - re*0 round as abs(complex), cmath.phase and complex / float, signed zeros too.
    inner = sd.pair_coeffs(a, b)[members]
    re, im = inner.real, inner.imag
    mag = np.hypot(re, im)
    if mag.min() <= threshold * threshold:
        return None
    re_alpha, im_alpha = (re + im * 0.0) / mag, (im - re * 0.0) / mag
    re_list, im_list = re_alpha.tolist(), im_alpha.tolist()
    q = [t / math.pi for t in map(math.atan2, im_list, re_list)]
    # the residual is the largest ||E_r e_a - alpha_r E_r e_b||, which is
    # ||V_r[a] - conj(alpha_r) V_r[b]||, over the support
    conj_alphas = np.zeros(len(sd.eigenvalues), dtype=complex)
    conj_alphas[members] = list(map(complex, re_list, [-x for x in im_list]))
    mismatch = sd.class_norms(row_a - np.repeat(conj_alphas, sd.multiplicities) * row_b)
    residual = float(mismatch[members].max())
    if residual > tol:
        return None
    return CospectralityCertificate(
        a=a,
        b=b,
        support=support,
        alphas=dict(zip(support, map(complex, re_list, im_list))),
        quarrels=dict(zip(support, [x + 2.0 if x <= -1.0 else x for x in q])),
        residual=residual,
    )
