"""Perfect state transfer: verification, characterization, scanning, MST.

Perfect state transfer (PST) from a to b at time tau means
U(tau) e_a = phase * e_b with phase in {+1, -1}.  On the eigenvalue
support this is e^{-i*tau*y_r} * alpha_r = phase for every r, so with
quarrels alpha_r = e^{i*pi*q_r} the transfer condition becomes a parity
statement: the numbers q_r - tau*y_r/pi must all be even integers
(phase +1) or all odd integers (phase -1).

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
    NonRealResultError,
    NoValidMError,
    NotCospectralError,
    NotPeriodicError,
    NotStronglyCospectralError,
    VerificationFailedError,
)
from .periodicity import PeriodicityCertificate, is_periodic
from .spectral import (
    REALNESS_TOL,
    SpectralDecomposition,
    amplitude_samples,
    propagator_column,
)

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
DEFAULT_SCAN_GRID = 200_000
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
    tol: float = DEFAULT_PARITY_TOL,
) -> str | None:
    """Parity test for PST at ``tau`` between a strongly cospectral pair.

    Evaluates v_r = q_r - tau*y_r/pi over the support; returns "even" or
    "odd" when every v_r is within ``tol`` of an integer and the parities
    agree, else None.  PST at tau is equivalent to a uniform parity, with
    phase +1 for even and -1 for odd.
    """
    if cospec is None:
        raise NotStronglyCospectralError(
            "first characterization needs a strong cospectrality certificate"
        )
    values = [
        cospec.quarrels[r] - tau * float(sd.eigenvalues[r]) / math.pi
        for r in cospec.support
    ]
    parity = _parity_of(values, tol)
    if parity is None:
        return None
    return "odd" if parity else "even"


def _parity_of(values: list[float], tol: float) -> int | None:
    """Common parity of near-integer values: 0 even, 1 odd, None otherwise."""
    parity: int | None = None
    for v in values:
        k = round(v)
        if abs(v - k) > tol:
            return None
        if parity is None:
            parity = k % 2
        elif parity != k % 2:
            return None
    return parity


def _refine_peak(
    sd: SpectralDecomposition, a: int, b: int, lo: float, hi: float
) -> float:
    """Locate the fidelity maximum inside (lo, hi) to near machine precision.

    Golden-section narrows the bracket, then Newton iterations on the
    derivative of |amplitude|^2 polish the root (pure golden stalls once
    the fidelity is flat to rounding error).
    """
    coeffs = sd.pair_coeffs(a, b)
    y = sd.eigenvalues

    def fid2(t: float) -> float:
        amp = np.exp(-1j * t * y) @ coeffs
        return float(abs(amp) ** 2)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fid2(x1), fid2(x2)
    for _ in range(200):
        if hi - lo < 1e-9:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fid2(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fid2(x1)
    t = 0.5 * (lo + hi)
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
    grid: int = DEFAULT_SCAN_GRID,
    tol: float = DEFAULT_PST_TOL,
) -> list[TransferCertificate]:
    """Find all PST events from a to b with time in (0, t_max].

    Fidelity is sampled on a uniform grid; local maxima above
    1 - 1000*tol are refined and then verified, so the returned times are
    accurate to far better than the grid spacing.  Certificates are
    sorted by time.
    """
    if t_max <= 0 or grid < 3:
        raise ValueError("scan needs t_max > 0 and at least 3 grid points")
    step = t_max / grid
    times = step * np.arange(1, grid + 1)
    fids = np.abs(amplitude_samples(sd, a, b, times))
    threshold = 1.0 - 1e3 * tol
    interior = np.arange(1, grid - 1)
    peaks = interior[
        (fids[interior] >= fids[interior - 1])
        & (fids[interior] >= fids[interior + 1])
        & (fids[interior] > threshold)
    ]
    certificates: list[TransferCertificate] = []
    for i in peaks:
        t_star = _refine_peak(sd, a, b, times[i - 1], times[i + 1])
        if not 0.0 < t_star <= t_max + step:
            continue
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
    parity_tol: float = DEFAULT_PARITY_TOL,
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
        parity = _parity_of(terms, parity_tol)
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
    node_budget: int | None = None,
) -> list[MSTCertificate]:
    """Search automorphism orbits of length >= 3 for multiple state transfer.

    Tries every switching automorphism of the graph and every start
    vertex (or just ``vertex``); condition failures are skipped, numeric
    verification failures propagate.  One certificate is kept per orbit
    set, the one with the smallest base time.
    """
    kwargs = {} if node_budget is None else {"node_budget": node_budget}
    autos = find_switching_automorphisms(sd.graph, **kwargs)
    best: dict[frozenset[int], MSTCertificate] = {}
    for p in autos:
        tried: set[frozenset[int]] = set()
        starts = [vertex] if vertex is not None else list(range(sd.n))
        for a in starts:
            orb = orbit(p, a)
            if len(orb) < 3:
                continue
            key = frozenset(orb)
            if key in tried:
                continue
            tried.add(key)
            try:
                cert = complete_char(sd, a, p, tol=tol)
            except (NotCospectralError, NotPeriodicError, NoValidMError):
                continue
            held = best.get(key)
            if held is None or cert.base_time < held.base_time - 1e-12:
                best[key] = cert
    return sorted(best.values(), key=lambda c: (c.base_time, c.orbit))
