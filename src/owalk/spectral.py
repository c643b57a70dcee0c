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
from .errors import AmbiguousGroupingError, EigensolverFailureError, InputError
from .graph import OrientedGraph, _check_vertex

__all__ = [
    "SpectralDecomposition",
    "decompose",
]

DEFAULT_GROUPING_TOL = 1e-8
REALNESS_TOL = 1e-8  # imaginary parts a real column U(t) e_a may carry


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

    def __post_init__(self) -> None:
        self.vectors.setflags(write=False)

    def __reduce__(self):  # copies and pickles rebuild through __post_init__
        return SpectralDecomposition, (self.graph, self.eigenvalues, self.vectors, self.starts)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def multiplicities(self) -> tuple[int, ...]:
        starts = self.starts.tolist()  # not np.diff, whose first call in a process costs ~0.2 ms
        return tuple(b - a for a, b in zip(starts, [*starts[1:], self.n]))

    def pair_coeffs(self, a: int, b: int) -> np.ndarray:
        """E_r[b, a] over r, so that U(t)[b, a] = sum_r exp(-i*t*y_r) * E_r[b, a]."""
        _check_vertex(self.n, a, b)
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
    return SpectralDecomposition(
        graph=g,
        eigenvalues=eigenvalues,
        vectors=vec,
        starts=np.array([cluster[0] for cluster in clusters], dtype=np.intp),
    )


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite number in (0, 1); nan compares false against it."""
    if not 0.0 < tol < 1.0:
        raise InputError(f"tol must be a finite number in (0, 1), got {tol!r}")


def _check_time(sd: SpectralDecomposition, t: float | np.ndarray, tol: float = REALNESS_TOL) -> None:
    """Refuse a non-finite time t, or one past min(tol, REALNESS_TOL) / (rho * 2^-52): the
    phases t*y with |y| <= rho, and U(t) e_a built from them, round by up to |t| * rho * 2^-52."""
    reach = float(abs(t).max(initial=0.0)) if isinstance(t, np.ndarray) else abs(float(t))
    y, limit = sd.eigenvalues, min(tol, REALNESS_TOL)
    rho = max(-float(y[0]), float(y[-1])) if len(y) else 0.0
    if not reach < np.inf:
        raise InputError(f"time {reach!r} is not finite")
    if reach * rho * 2.0**-52 > limit:
        raise InputError(
            f"|t| = {reach!r} is past {limit * 2**52 / rho:.6g}, the longest time at which "
            f"the phases t*y (|y| <= {rho:.6g}) round by less than {limit!r}"
        )


def propagator_column(sd: SpectralDecomposition, a: int, t: float | np.ndarray) -> np.ndarray:
    """Column a of U(t), the state reached from vertex ``a``, complex; n x K for K x 1 times."""
    _check_vertex(sd.n, a)
    _check_time(sd, t)
    # row b of the C-ordered n x R matrix is E_r[b, a] and each time takes its own matrix-
    # vector product; the reported bits, alike alone or in a batch, hinge on this layout
    v = sd.vectors
    coeffs = np.add.reduceat(v * v[a].conj(), sd.starts, axis=1)
    return (coeffs @ np.exp(-1j * t * sd.eigenvalues)[..., None])[..., 0].T
