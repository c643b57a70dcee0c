"""Continuous quantum walks on oriented graphs.

An oriented graph is encoded by its skew-symmetric adjacency matrix A
(A[u, v] = 1 when the edge runs u -> v).  The walk is the one-parameter
group U(t) = exp(-t A); this package decides periodicity, strong
cospectrality, perfect state transfer and multiple state transfer, and
produces numerically verified certificates for each.
"""

from .arithmetic import IntPolynomial, char_poly, quadratic_integer_profile, square_free_part
from .autos import (
    SwitchingAutomorphism,
    find_switching_automorphisms,
    is_switching_automorphism,
    orbit,
)
from .cospectral import (
    CospectralityCertificate,
    EigenvalueSupport,
    eigenvalue_support,
    strong_cospectrality,
)
from .errors import (
    DisconnectedGraphError,
    GraphParseError,
    InputError,
    InternalInconsistencyError,
    OwalkError,
    SearchBudgetExceededError,
    VerificationFailedError,
)
from .graph import (
    BUILTIN_NAMES,
    OrientedGraph,
    build_graph,
    builtin_example,
    is_connected,
    parse_graph,
    serialize_graph,
)
from .periodicity import PeriodicityCertificate, is_periodic, verify_period
from .spectral import SpectralDecomposition, decompose, propagator_column
from .transfer import (
    MSTCertificate,
    TransferCertificate,
    complete_char,
    first_char_check,
    mst_search,
    scan_pst,
    verify_pst,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "CospectralityCertificate",
    "DisconnectedGraphError",
    "EigenvalueSupport",
    "GraphParseError",
    "InputError",
    "IntPolynomial",
    "InternalInconsistencyError",
    "MSTCertificate",
    "OrientedGraph",
    "OwalkError",
    "PeriodicityCertificate",
    "SearchBudgetExceededError",
    "SpectralDecomposition",
    "SwitchingAutomorphism",
    "TransferCertificate",
    "VerificationFailedError",
    "build_graph",
    "builtin_example",
    "char_poly",
    "complete_char",
    "decompose",
    "eigenvalue_support",
    "find_switching_automorphisms",
    "first_char_check",
    "is_connected",
    "is_periodic",
    "is_switching_automorphism",
    "mst_search",
    "orbit",
    "parse_graph",
    "propagator_column",
    "quadratic_integer_profile",
    "scan_pst",
    "serialize_graph",
    "square_free_part",
    "strong_cospectrality",
    "verify_period",
    "verify_pst",
    "__version__",
]
