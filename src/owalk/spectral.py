"""Spectral decomposition of the walk generator and the propagator U(t).

The skew-symmetric adjacency matrix A has purely imaginary spectrum
{i*y_r} with real y_r.  We diagonalize the Hermitian matrix -iA, whose
real eigenvalues are exactly those y_r, and group repeated eigenvalues
into classes; their orthonormal eigenvector blocks V_r are all that is
stored, and the orthogonal projections (idempotents) E_r = V_r V_r^H give

    A = sum_r theta_r * E_r,        theta_r = i * y_r.

Propagator sign convention: U(t) = sum_r exp(-t*theta_r) * E_r, fixed so
that a walker sitting at the tail of an oriented edge initially flows
toward the head with positive amplitude (d/dt U(t)[head, tail] at t=0 is
+1 for every edge).  U(t) is real orthogonal; the amplitude for transfer
from a to b after time t is U(t)[b, a].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import arithmetic
from .errors import (
    AmbiguousGroupingError,
    EigensolverFailureError,
    NonRealResultError,
)
from .graph import OrientedGraph

__all__ = [
    "SpectralDecomposition",
    "decompose",
    "transition_matrix",
    "cluster_values",
]

DEFAULT_GROUPING_TOL = 1e-8
REALNESS_TOL = 1e-8


def cluster_values(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of sorted ``values`` whose neighbors lie within ``tol``.

    Raises AmbiguousGroupingError when two distinct clusters end up closer
    than 10*tol, since membership would then hinge on the tolerance choice.
    """
    clusters: list[list[int]] = []
    for i, v in enumerate(values):
        if clusters and v - values[clusters[-1][-1]] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    for left, right in zip(clusters, clusters[1:]):
        gap = values[right[0]] - values[left[-1]]
        if gap < 10 * tol:
            raise AmbiguousGroupingError(
                f"eigenvalue clusters separated by {gap:.3e} < 10*{tol:.3e}"
            )
    return clusters


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues i*y_r of A with their eigenvector blocks V_r."""

    graph: OrientedGraph
    eigenvalues: np.ndarray          # y_r, real, strictly increasing
    vectors: np.ndarray              # orthonormal, n x n, read-only
    starts: np.ndarray               # V_r = vectors[:, starts[r]:starts[r+1]]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts, append=self.n).tolist())

    def pair_coeffs(self, a: int, b: int) -> np.ndarray:
        """E_r[b, a] over r, so that U(t)[b, a] = sum_r exp(-i*t*y_r) * E_r[b, a]."""
        v = self.vectors
        return np.add.reduceat(v[b] * v[a].conj(), self.starts)

    def class_norms(self, x: np.ndarray) -> np.ndarray:
        """Norm of a length-n row over each class; ||E_r e_a|| over r on row a."""
        return np.sqrt(np.add.reduceat((x * x.conj()).real, self.starts))

    @cached_property
    def idempotents(self) -> tuple[np.ndarray, ...]:
        """The n x n projectors E_r = V_r V_r^H, built on first read."""
        blocks = np.split(self.vectors, self.starts[1:], axis=1)
        return tuple(v_r @ v_r.conj().T for v_r in blocks)

    @cached_property
    def char_poly(self) -> arithmetic.IntPolynomial:
        """Exact characteristic polynomial of the graph, computed on first use."""
        return arithmetic.char_poly(self.graph)


def decompose(g: OrientedGraph) -> SpectralDecomposition:
    """Spectral decomposition of the graph's adjacency matrix.

    Repeated eigenvalues are merged within DEFAULT_GROUPING_TOL relative
    to the scale 1 + spectral radius.
    """
    herm = -1j * g.adjacency.astype(np.float64)
    try:
        mu, vec = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailureError(f"eigh did not converge: {exc}") from exc
    scale = 1.0 + (abs(mu).max() if mu.size else 0.0)
    tol_abs = DEFAULT_GROUPING_TOL * scale
    clusters = cluster_values(mu, tol_abs)
    eigenvalues = np.array([np.mean(mu[cluster]) for cluster in clusters])
    eigenvalues[abs(eigenvalues) < tol_abs] = 0.0
    vec.setflags(write=False)
    return SpectralDecomposition(
        graph=g,
        eigenvalues=eigenvalues,
        vectors=vec,
        starts=np.array([cluster[0] for cluster in clusters], dtype=np.intp),
    )


def transition_matrix(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """Propagator U(t) as a real orthogonal matrix.

    The imaginary parts of the eigenfunction sum must vanish; anything
    above REALNESS_TOL raises NonRealResultError.
    """
    phases = np.repeat(np.exp(-1j * t * sd.eigenvalues), sd.multiplicities)
    u = (sd.vectors * phases) @ sd.vectors.conj().T
    worst = float(abs(u.imag).max()) if sd.n else 0.0
    if worst > REALNESS_TOL:
        raise NonRealResultError(
            f"propagator carries imaginary parts up to {worst:.3e}"
        )
    return u.real


def propagator_column(sd: SpectralDecomposition, a: int, t: float) -> np.ndarray:
    """Column a of U(t), i.e. the state reached from vertex ``a``, complex."""
    # row b of the C-ordered n x R product is E_r[b, a]; this layout fixes the
    # rounding of the reported probabilities (others differ in the last bits)
    v = sd.vectors
    coeffs = np.add.reduceat(v * v[a].conj(), sd.starts, axis=1)
    return coeffs @ np.exp(-1j * t * sd.eigenvalues)
