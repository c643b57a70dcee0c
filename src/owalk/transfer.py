"""Perfect state transfer: verification, characterization, scanning, MST.

Perfect state transfer (PST) from a to b at time tau means
U(tau) e_a = phase * e_b with phase in {+1, -1}.  It needs a and b to be
strongly cospectral; on their eigenvalue support it is then
e^{-i*tau*y_r} * alpha_r = phase for every r, so with quarrels
alpha_r = e^{i*pi*q_r} the transfer condition becomes a parity
statement: the numbers q_r - tau*y_r/pi must all be even integers
(phase +1) or all odd integers (phase -1).

The scan solves this condition directly, without sampling |U(t)[b, a]|:
one support index fixes a discrete set of candidate times, the parity
test keeps the transfer times among them, and each kept time is
polished and verified numerically.  The same path serves periodic and
aperiodic sources.

Multiple state transfer (MST) is PST between every ordered pair of a
vertex set.  Such sets arise as orbits of switching automorphisms: when
a is periodic with minimal period sigma and phase epsilon, and P is a
switching automorphism whose orbit of a has length k, PST from a to
P^m a at sigma/k for some m coprime to k forces PST inside the whole
orbit, at times that are multiples of sigma/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autos import SwitchingAutomorphism, find_switching_automorphisms, orbit
from .cospectral import CospectralityCertificate, eigenvalue_support, strong_cospectrality
from .errors import (
    DisconnectedGraphError,
    InputError,
    NonRealResultError,
    NoValidMError,
    NotCospectralError,
    NotPeriodicError,
    NotStronglyCospectralError,
    VerificationFailedError,
)
from .periodicity import PeriodicityCertificate, is_periodic
from .spectral import REALNESS_TOL, SpectralDecomposition, propagator_column

__all__ = [
    "TransferCertificate",
    "MSTCertificate",
    "verify_pst",
    "first_char_check",
    "scan_pst",
    "complete_char",
    "mst_search",
]

DEFAULT_SCAN_TMAX = 20.0
MAX_SCAN_CANDIDATES = 200_000
DEFAULT_PST_TOL = 1e-7
DEFAULT_PARITY_TOL = 1e-6


@dataclass(frozen=True)
class TransferCertificate:
    """Numerically verified perfect state transfer event."""

    source: int
    target: int
    time: float
    phase: int
    residual: float
    method: str


@dataclass(frozen=True)
class MSTCertificate:
    """Verified multiple state transfer on an automorphism orbit.

    ``pair_times``, ``phases`` and ``residuals`` are keyed by positions
    (i, j) into ``orbit``; the base transfer runs from orbit[0] to
    orbit[m] at ``base_time``.
    """

    orbit: tuple[int, ...]
    base_time: float
    automorphism: SwitchingAutomorphism
    m: int
    pair_times: dict[tuple[int, int], float]
    phases: dict[tuple[int, int], int]
    residuals: dict[tuple[int, int], float]


def verify_pst(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    tau: float,
    tol: float = DEFAULT_PST_TOL,
    method: str = "direct",
) -> TransferCertificate | None:
    """Certificate that U(tau) e_a = phase * e_b, or None.

    The realized column must be real (transfer phases are +-1, never a
    general unimodular number, and NonRealResultError is raised otherwise);
    the better of the two signs is kept when its residual beats ``tol``.
    """
    col = propagator_column(sd, a, tau)
    worst = float(abs(col.imag).max())
    if not worst < REALNESS_TOL:
        raise NonRealResultError(
            f"propagator column at t = {tau!r} carries imaginary parts up to {worst:.3e}"
        )
    target = np.zeros(sd.n)
    target[b] = 1.0
    real_col = col.real
    res_plus = float(np.linalg.norm(real_col - target))
    res_minus = float(np.linalg.norm(real_col + target))
    phase, residual = (1, res_plus) if res_plus <= res_minus else (-1, res_minus)
    if residual >= tol:
        return None
    return TransferCertificate(
        source=a, target=b, time=tau, phase=phase, residual=residual, method=method
    )


def first_char_check(
    cospec: CospectralityCertificate | None,
    sd: SpectralDecomposition,
    tau: float,
) -> str | None:
    """Parity test for PST at ``tau`` between a strongly cospectral pair.

    Evaluates v_r = q_r - tau*y_r/pi over the support; returns "even" or
    "odd" when every v_r is within DEFAULT_PARITY_TOL of an integer and
    the parities agree, else None.  PST at tau is equivalent to a uniform
    parity, with phase +1 for even and -1 for odd.
    """
    if cospec is None:
        raise NotStronglyCospectralError(
            "first characterization needs a strong cospectrality certificate"
        )
    values = [
        cospec.quarrels[r] - tau * float(sd.eigenvalues[r]) / math.pi
        for r in cospec.support
    ]
    parity = _parity_of(values)
    if parity is None:
        return None
    return "odd" if parity else "even"


def _parity_of(values: list[float]) -> int | None:
    """Common parity of near-integer values: 0 even, 1 odd, None otherwise."""
    parity: int | None = None
    for v in values:
        k = round(v)
        if abs(v - k) > DEFAULT_PARITY_TOL:
            return None
        if parity is None:
            parity = k % 2
        elif parity != k % 2:
            return None
    return parity


def _refine_peak(coeffs: np.ndarray, y: np.ndarray, t: float) -> float:
    """Newton iterations on the derivative of |amplitude|^2, started at ``t``.

    ``coeffs`` are E_r[b, a] over r, so the amplitude is
    sum_r exp(-i*t*y_r) * coeffs[r]; the candidate time moves onto the
    nearby maximum of |amplitude| to near machine precision.
    """
    dcoeffs = -1j * y * coeffs
    ddcoeffs = -(y**2) * coeffs
    for _ in range(8):
        ph = np.exp(-1j * t * y)
        amp = ph @ coeffs
        damp = ph @ dcoeffs
        ddamp = ph @ ddcoeffs
        grad = 2.0 * (damp * amp.conjugate()).real
        curv = 2.0 * (abs(damp) ** 2 + (ddamp * amp.conjugate()).real)
        if curv >= 0.0:
            break
        step = grad / curv
        t -= step
        if abs(step) < 1e-14 * max(1.0, abs(t)):
            break
    return float(t)


def scan_pst(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    t_max: float = DEFAULT_SCAN_TMAX,
    grid: int = MAX_SCAN_CANDIDATES,
    tol: float = DEFAULT_PST_TOL,
) -> list[TransferCertificate]:
    """Find all PST events from a to b with time in (0, t_max].

    Transfer needs a strongly cospectral pair.  On the support index r0
    of least nonzero |y|, v_r0 = q_r0 - t*y_r0/pi must be an integer, so
    the only candidate times are t*|y_r0|/pi = offset + j for integers
    j >= 0; ``first_char_check`` keeps those where every v_r shares one
    parity, and each one is polished by Newton and verified with
    ``verify_pst``.  ``grid`` caps the number of candidate times: a
    longer scan raises InputError instead of being cut short.
    Certificates are sorted by time.
    """
    cospec = strong_cospectrality(sd, a, b, tol=tol)
    if cospec is None:
        return []
    y = sd.eigenvalues
    nonzero = [r for r in cospec.support if y[r] != 0.0]
    if not nonzero:
        raise DisconnectedGraphError(
            f"vertex {a} is isolated: the walk leaves it in place at every time"
        )
    r0 = min(nonzero, key=lambda r: abs(y[r]))
    y0 = abs(float(y[r0]))
    q0 = cospec.quarrels[r0]
    offset = (q0 if y[r0] > 0 else -q0) % 1.0
    if offset < DEFAULT_PARITY_TOL:
        offset += 1.0  # j = 0 would be t = 0, where nothing has moved
    span = t_max * y0 / math.pi - offset
    if not span < grid:
        raise InputError(
            f"scanning (0, {t_max!r}] would examine about {span:.3g} candidate times, "
            f"more than the bound of {grid}"
        )
    coeffs = sd.pair_coeffs(a, b)
    certificates: list[TransferCertificate] = []
    for j in range(math.floor(span) + 1):
        tau = math.pi * (offset + j) / y0
        if first_char_check(cospec, sd, tau) is None:
            continue
        t_star = _refine_peak(coeffs, y, tau)
        if certificates and abs(t_star - certificates[-1].time) < 1e-8:
            continue
        cert = verify_pst(sd, a, b, t_star, tol, method="scan")
        if cert is not None:
            certificates.append(cert)
    return certificates


def complete_char(
    sd: SpectralDecomposition,
    a: int,
    p: SwitchingAutomorphism,
    tol: float = DEFAULT_PST_TOL,
) -> MSTCertificate:
    """Certify MST on the orbit of ``a`` under ``p`` via the parity criterion.

    Requires strong cospectrality of a with p(a) (NotCospectralError) and
    periodicity of a (NotPeriodicError).  Searches for m coprime to the
    orbit length k such that the numbers

        m * q_r(a, p(a)) - c * sign(y_r) * b_r / (g * k)

    share a parity over the support, where c is 1 for period phase -1 and
    2 for phase +1 (the c-term is sigma*y_r/(k*pi) written exactly).  A
    passing m implies PST from a to p^m(a) at sigma/k; every ordered
    orbit pair is then verified numerically, and any numeric failure
    after a parity pass raises VerificationFailedError.
    """
    orb = orbit(p, a)
    k = len(orb)
    if k < 2:
        raise ValueError(f"orbit of vertex {a} has length {k} < 2")
    cospec = strong_cospectrality(sd, a, p.apply(a), tol=tol)
    if cospec is None:
        raise NotCospectralError(
            f"vertices {a} and {p.apply(a)} are not strongly cospectral"
        )
    support = eigenvalue_support(sd, a)
    period = is_periodic(sd, support)
    if period is None:
        raise NotPeriodicError(f"vertex {a} is not periodic")
    c = 1 if period.phase == -1 else 2
    chosen_m: int | None = None
    for m in range(1, k):
        if math.gcd(m, k) != 1:
            continue
        terms = []
        for r in cospec.support:
            y = float(sd.eigenvalues[r])
            if y == 0.0:
                v_term = 0.0
            else:
                v_term = c * math.copysign(period.b_coeffs[r], y) / (period.g * k)
            terms.append(m * cospec.quarrels[r] - v_term)
        parity = _parity_of(terms)
        if parity is not None:
            chosen_m = m
            expected_phase = -1 if parity else 1
            break
    if chosen_m is None:
        raise NoValidMError(
            f"no m coprime to {k} satisfies the parity condition for vertex {a}"
        )
    tau = period.sigma / k
    base = verify_pst(sd, a, orb[chosen_m], tau, tol)
    if base is None:
        raise VerificationFailedError(
            f"parity passed at m={chosen_m} but transfer {a} -> {orb[chosen_m]} "
            f"at {tau} failed the numeric check"
        )
    if base.phase != expected_phase:
        raise VerificationFailedError(
            f"parity predicts phase {expected_phase} but the realized phase "
            f"is {base.phase}"
        )
    m_inv = pow(chosen_m, -1, k)
    pair_times: dict[tuple[int, int], float] = {}
    phases: dict[tuple[int, int], int] = {}
    residuals: dict[tuple[int, int], float] = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            steps = ((j - i) * m_inv) % k
            t_ij = steps * tau
            cert = verify_pst(sd, orb[i], orb[j], t_ij, tol)
            if cert is None:
                raise VerificationFailedError(
                    f"orbit pair {orb[i]} -> {orb[j]} failed at t = {t_ij}"
                )
            pair_times[(i, j)] = t_ij
            phases[(i, j)] = cert.phase
            residuals[(i, j)] = cert.residual
    return MSTCertificate(
        orbit=orb,
        base_time=tau,
        automorphism=p,
        m=chosen_m,
        pair_times=pair_times,
        phases=phases,
        residuals=residuals,
    )


def mst_search(
    sd: SpectralDecomposition,
    vertex: int | None = None,
    tol: float = DEFAULT_PST_TOL,
) -> list[MSTCertificate]:
    """Search automorphism orbits of length >= 3 for multiple state transfer.

    Tries every switching automorphism of the graph and every start
    vertex (or just ``vertex``); condition failures are skipped, numeric
    verification failures propagate.  Each orbit set is certified once:
    its base time sigma/k is fixed by the set, so a set already held is
    not tried again.
    """
    autos = find_switching_automorphisms(sd.graph)
    best: dict[frozenset[int], MSTCertificate] = {}
    for p in autos:
        tried: set[frozenset[int]] = set()
        starts = [vertex] if vertex is not None else list(range(sd.n))
        for a in starts:
            orb = orbit(p, a)
            if len(orb) < 3:
                continue
            key = frozenset(orb)
            if key in tried or key in best:
                continue
            tried.add(key)
            try:
                best[key] = complete_char(sd, a, p, tol=tol)
            except (NotCospectralError, NotPeriodicError, NoValidMError):
                continue
    return sorted(best.values(), key=lambda c: (c.base_time, c.orbit))
