"""Exception types shared across the package.

Every error belongs to exactly one of two families under `OwalkError`:
`InputError` covers problems with what the user handed in (bad graphs,
bad vertex indices, work beyond a stated bound), while
`InternalInconsistencyError` covers checks that should never fail on a
well-formed run and signal a tolerance or logic problem when they do.
The command line exits 2 for the first family and 3 for the second.
Negative verdicts are not errors: the analyses return None for them.
"""

from __future__ import annotations

__all__ = [
    "OwalkError",
    "InputError",
    "InternalInconsistencyError",
    "DuplicateEdgeError",
    "SelfLoopError",
    "VertexOutOfRangeError",
    "UnknownExampleError",
    "GraphParseError",
    "DisconnectedGraphError",
    "EigensolverFailureError",
    "AmbiguousGroupingError",
    "NonRealResultError",
    "InconsistentExactCheckError",
    "VerificationFailedError",
    "SearchBudgetExceededError",
]


class OwalkError(Exception):
    """Base class for all package errors."""


class InputError(OwalkError):
    """The caller's input (graph, vertex, file) is invalid."""


class InternalInconsistencyError(OwalkError):
    """An internal cross-check failed; results cannot be trusted."""


class DuplicateEdgeError(InputError):
    """The same unordered vertex pair appears more than once."""


class SelfLoopError(InputError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(InputError):
    """A vertex index falls outside [0, n)."""


class UnknownExampleError(InputError):
    """No builtin example graph has the requested name."""


class GraphParseError(InputError):
    """A graph file cannot be read as text or does not follow the expected grammar."""


class DisconnectedGraphError(InputError):
    """The vertex is isolated: it never moves, so it has no period and no transfer."""


class EigensolverFailureError(InternalInconsistencyError):
    """The Hermitian eigensolver did not converge."""


class AmbiguousGroupingError(InternalInconsistencyError):
    """Two eigenvalue clusters sit too close to separate reliably."""


class NonRealResultError(InternalInconsistencyError):
    """A matrix that must be real carries imaginary parts above tolerance."""


class InconsistentExactCheckError(InternalInconsistencyError):
    """Float rounding and the exact integer polynomial disagree."""


class VerificationFailedError(InternalInconsistencyError):
    """A parity condition passed but the numeric check did not."""


class SearchBudgetExceededError(InputError):
    """The automorphism search exhausted its node budget: the candidate images
    tried, plus n * |G| charged before a group of order |G| is listed."""
