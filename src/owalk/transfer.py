"""Perfect state transfer: verification, characterization, scanning, MST.

Perfect state transfer (PST) from a to b at time tau means
U(tau) e_a = phase * e_b with phase in {+1, -1}.  It needs a and b to be
strongly cospectral; on their eigenvalue support it is then
e^{-i*tau*y_r} * alpha_r = phase for every r, so with quarrels
alpha_r = e^{i*pi*q_r} the transfer condition becomes a parity
statement: the numbers q_r - tau*y_r/pi must all be even integers
(phase +1) or all odd integers (phase -1).  A is real, so the class of
-y_r carries the quarrel -q_r and the number -(q_r - tau*y_r/pi), of the
same parity: the test reads only the classes with y_r >= 0.

The scan solves this condition directly, without sampling |U(t)[b, a]|:
one support index fixes a discrete set of candidate times, the parity
test keeps the transfer times among them, and each kept time, solved to
rounding, is verified numerically, over one period of the source: PST
a -> b at tau > 0 makes a periodic.  e^{-i*tau*y_r} = phase/alpha_r is
algebraic, so by Gelfond-Schneider every ratio y_s/y_r of the support is
rational; the support is Galois-closed, so every y_r^2 is a rational
algebraic integer, with one square-free Delta.  So the events are one
class mod sigma, and an aperiodic source has none.

Multiple state transfer (MST) is PST between every ordered pair of a
vertex set.  Such sets arise as orbits of switching automorphisms: if a
is periodic with minimal period sigma and strongly cospectral with P a,
for a switching automorphism P whose orbit of a has length k, PST from a
to P^m a at sigma/k for an m coprime to k forces PST on the whole orbit.
``complete_char`` takes both certificates; ``mst_search`` decides each once.

P carries signs: P e_u = s_{p(u)} e_{p(u)}, and P commutes with every
E_r.  Applying P^i to E_r e_a = alpha_r E_r e_{p(a)} gives
E_r e_{p^i(a)} = alpha_r s_{p(a)} s_{p^(i+1)(a)} E_r e_{p^(i+1)(a)}, so

    E_r e_a = alpha_r^m * s_{p(a)}^m * s_{p(a)} s_{p^2(a)} ... s_{p^m(a)} * E_r e_{p^m(a)}.

The sign factor is the same for every r: it leaves the parity test as it
is and multiplies the phase that the parity predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autos import SwitchingAutomorphism, find_switching_automorphisms, orbit
from .cospectral import CospectralityCertificate, eigenvalue_support, strong_cospectrality
from .errors import InputError, NonRealResultError, VerificationFailedError
from .graph import _check_vertex
from .periodicity import PeriodicityCertificate, is_periodic
from .spectral import REALNESS_TOL, SpectralDecomposition, _check_time, _check_tol, propagator_column

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
SCAN_BLOCK = 1024  # candidate times per array pass of scan_pst
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

    ``pairs`` maps positions (i, j) into ``orbit`` to the certificate of
    the transfer orbit[i] -> orbit[j]; the base transfer runs from
    orbit[0] to orbit[m] at ``base_time``.
    """

    orbit: tuple[int, ...]
    base_time: float
    automorphism: SwitchingAutomorphism
    m: int
    pairs: dict[tuple[int, int], TransferCertificate]


def verify_pst(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    tau: float,
    tol: float = DEFAULT_PST_TOL,
) -> TransferCertificate | None:
    """Certificate that U(tau) e_a = phase * e_b, or None.

    The realized column must be real (transfer phases are +-1, never a general unimodular
    number, and NonRealResultError is raised otherwise); the better of the two signs is kept
    when its residual beats ``tol``.  A vertex outside [0, n), a ``tol`` outside (0, 1) or a
    ``tau`` whose phases round past ``tol`` raises InputError.
    """
    _check_vertex(sd.n, a, b)
    _check_tol(tol)
    _check_time(sd, tau, tol)
    return next(iter(_verify_times(sd, a, b, [tau], tol, "direct")), None)


def _verify_times(
    sd: SpectralDecomposition, a: int, b: int | list[int], times: list, tol: float, method: str
) -> list[TransferCertificate]:
    """The transfers a -> b verified at ``times``, in the order of the times.

    ``b`` is one target for every time or a list of one target per time.  One
    product gives the columns U(t) e_a of all K times; a column that is not
    real raises NonRealResultError.
    """
    cols = propagator_column(sd, a, np.array(times)[:, None])
    rows, targets = np.arange(len(times)), np.broadcast_to(b, len(times))
    diffs = cols.real.T[:, None].repeat(2, axis=1)  # U(t) e_a -+ e_b, one pair per time
    diffs[rows, 0, targets] -= 1.0
    diffs[rows, 1, targets] += 1.0
    # (K, 2, 1, n) @ (K, 2, n, 1) takes one BLAS dot per row, as np.linalg.norm does
    norms = np.sqrt(diffs[:, :, None] @ diffs[..., None]).reshape(-1, 2).tolist()
    imags = abs(cols.imag).max(axis=0).tolist()
    certificates = []
    for tau, target, imag, (rp, rm) in zip(times, targets.tolist(), imags, norms):
        if not imag < REALNESS_TOL:
            raise NonRealResultError(
                f"propagator column at t = {tau!r} carries imaginary parts up to {imag:.3e}"
            )
        phase, residual = (1, rp) if rp <= rm else (-1, rm)
        if residual < tol:
            certificates.append(TransferCertificate(a, target, tau, phase, residual, method))
    return certificates


def first_char_check(
    cospec: CospectralityCertificate | None,
    sd: SpectralDecomposition,
    tau: float,
) -> str | None:
    """Parity test for PST at ``tau`` between a strongly cospectral pair.

    Evaluates v_r = q_r - tau*y_r/pi over the support classes with y_r >= 0;
    returns "even" or "odd" when every v_r is within DEFAULT_PARITY_TOL of
    an integer and the parities agree, else None.  PST at tau is equivalent
    to a uniform parity, with phase +1 for even and -1 for odd.  A pair that
    is not strongly cospectral (``cospec`` None) has no transfer at any time.
    """
    if cospec is None:
        return None
    half = [r for r in cospec.support if sd.eigenvalues[r] >= 0.0]
    q = np.array([cospec.quarrels[r] for r in half])
    parity = _parity_of((q - tau * sd.eigenvalues[half] / math.pi)[None])[0]
    return None if parity < 0 else ("odd" if parity else "even")


def _parity_of(values: np.ndarray) -> np.ndarray:
    """Common parity of each row of near-integer values: 0 even, 1 odd, -1 none."""
    k = np.rint(values)
    parity = k % 2
    common = ((abs(values - k) <= DEFAULT_PARITY_TOL) & (parity == parity[:, :1])).all(axis=1)
    return np.where(common, parity[:, 0], -1.0).astype(int)


def scan_pst(
    sd: SpectralDecomposition,
    a: int,
    b: int,
    t_max: float = DEFAULT_SCAN_TMAX,
    grid: int = MAX_SCAN_CANDIDATES,
    tol: float = DEFAULT_PST_TOL,
) -> list[TransferCertificate]:
    """Find all PST events from a to b with time in (0, t_max].

    Transfer needs a strongly cospectral pair and a periodic source (module docstring),
    else the answer is [] at any horizon.  On the support index r0 of least nonzero |y|,
    v_r0 = q_r0 - t*y_r0/pi must be an integer, so the only candidate times are
    t*|y_r0|/pi = offset + j for integers j >= 0, K = sigma*|y_r0|/pi of them per period.
    In blocks of SCAN_BLOCK, the parity test of ``first_char_check`` keeps the j < K
    where every v_r shares one parity, and ``verify_pst``'s criteria verify a kept j at the
    time as solved, in one product with the first block of its progression j + iK.  A j that
    fails is dropped with its progression; once one passes, a member that fails raises
    VerificationFailedError.  A ``tol`` outside (0, 1), a ``t_max`` past ``verify_pst``'s
    time bound (both checked first), or more than ``grid`` candidate times raises
    InputError instead of a short scan.  Certificates are sorted by time, in a list whose
    ``period`` is the periodicity certificate of a (None if a is aperiodic or the pair is
    not strongly cospectral).
    """
    _check_tol(tol)
    _check_time(sd, t_max, tol)
    cospec = strong_cospectrality(sd, a, b, tol=tol)
    period = None if cospec is None else is_periodic(sd, eigenvalue_support(sd, a))
    if period is None:
        return _Events(None)
    y = sd.eigenvalues
    r0 = min(period.b_coeffs, key=lambda r: abs(y[r]))
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
    half = [r for r in cospec.support if y[r] >= 0.0]
    q, ys = np.array([cospec.quarrels[r] for r in half]), y[half]
    count = math.floor(span) + 1
    per_period = (2 if period.phase == 1 else 1) * period.b_coeffs[r0] // period.g  # K
    for block in range(0, min(per_period, count), SCAN_BLOCK):
        index = np.arange(block, min(block + SCAN_BLOCK, per_period, count))
        taus = math.pi * (offset + index) / y0
        for j in index[_parity_of(q - taus[:, None] * ys / math.pi) >= 0].tolist():
            # two transfer times differ by a period (module docstring), so j's class is all
            certificates = _Events(period)
            for start in range(j, count, per_period * SCAN_BLOCK):
                members = np.arange(start, min(start + per_period * SCAN_BLOCK, count), per_period)
                times = (math.pi * (offset + members) / y0).tolist()
                certs = _verify_times(sd, a, b, times, tol, "scan")
                if start == j and not (certs and certs[0].time == times[0]):
                    break  # j fails its check, so neither it nor its progression is an event
                if len(certs) < len(times):
                    missed = min(set(times) - {c.time for c in certs})
                    raise VerificationFailedError(
                        f"PST {a} -> {b} recurs at t = {missed!r} by the period, yet fails its check"
                    )
                certificates += certs
            if certificates:
                return certificates
    return _Events(period)


class _Events(list):
    """``scan_pst``'s certificates with the source's ``period``, so that a caller tags
    them by sigma without deciding periodicity again."""

    def __init__(self, period: PeriodicityCertificate | None) -> None:
        super().__init__()
        self.period = period


def complete_char(
    sd: SpectralDecomposition,
    p: SwitchingAutomorphism,
    cospec: CospectralityCertificate | None,
    period: PeriodicityCertificate | None,
    tol: float = DEFAULT_PST_TOL,
) -> MSTCertificate | None:
    """Certify MST on the orbit of a = ``cospec.a`` under ``p`` via the parity criterion.

    Takes strong cospectrality of a with p(a) and periodicity of a, and
    returns None when either is None; certificates that do not fit an
    orbit of length >= 2 raise ValueError.  Searches for m coprime to the
    orbit length k such that the numbers

        m * q_r(a, p(a)) - c * b_r / (g * k)

    share a parity over the support classes with y_r >= 0 (b_r = 0 at
    y_r = 0), where c is 1 for period phase -1 and 2 for phase +1 (the
    c-term is sigma*y_r/(k*pi) written exactly), and returns None when no
    m does.  A passing m implies PST from a to p^m(a) at sigma/k, with the
    phase of the parity times the sign factor of p (module docstring);
    every ordered orbit pair is then verified numerically, one product per
    orbit source, and any numeric failure after a parity pass raises
    VerificationFailedError.  A ``tol`` outside (0, 1) raises InputError.
    """
    _check_tol(tol)
    if cospec is None or period is None:
        return None
    a = cospec.a
    orb = orbit(p, a)
    k = len(orb)
    if k < 2 or cospec.b != p.apply(a) or period.vertex != a:
        raise ValueError(f"certificates ({a}, {cospec.b}), {period.vertex} do not fit orbit {orb}")
    c = 1 if period.phase == -1 else 2
    y = sd.eigenvalues
    half = [r for r in cospec.support if y[r] >= 0.0]
    v_terms = [0.0 if y[r] == 0.0 else c * period.b_coeffs[r] / (period.g * k) for r in half]
    ms = [m for m in range(1, k) if math.gcd(m, k) == 1]
    q = [cospec.quarrels[r] for r in half]
    parities = _parity_of(np.multiply.outer(ms, q) - v_terms).tolist()
    passing = [(m, parity) for m, parity in zip(ms, parities) if parity >= 0]
    if not passing:
        return None
    m, parity = passing[0]
    sign = p.signs[orb[1]] ** m * math.prod(p.signs[w] for w in orb[1 : m + 1])
    expected_phase = (-1 if parity else 1) * sign
    tau = period.sigma / k
    m_inv = pow(m, -1, k)
    pairs: dict[tuple[int, int], TransferCertificate] = {}
    for i in range(k):
        js = [j for j in range(k) if j != i]
        times = [((j - i) * m_inv % k) * tau for j in js]
        certs = _verify_times(sd, orb[i], [orb[j] for j in js], times, tol, "direct")
        found = {cert.target: cert for cert in certs}
        for j, t_ij in zip(js, times):
            if orb[j] not in found:
                raise VerificationFailedError(
                    f"parity passed at m={m} but orbit pair {orb[i]} -> {orb[j]} "
                    f"failed the numeric check at t = {t_ij}"
                )
            pairs[i, j] = found[orb[j]]
    if pairs[0, m].phase != expected_phase:
        raise VerificationFailedError(
            f"parity predicts phase {expected_phase} but the realized phase "
            f"is {pairs[0, m].phase}"
        )
    return MSTCertificate(orbit=orb, base_time=tau, automorphism=p, m=m, pairs=pairs)


def mst_search(
    sd: SpectralDecomposition,
    vertex: int | None = None,
    tol: float = DEFAULT_PST_TOL,
) -> list[MSTCertificate]:
    """Search automorphism orbits of length >= 3 for multiple state transfer.

    Tries every cycle of every switching automorphism from its least
    vertex a (or the cycle from ``vertex``), deciding strong cospectrality
    once per pair (a, p(a)) and periodicity once per a; negative verdicts
    are skipped, numeric verification failures propagate.  A set already
    certified is not tried again: its base time sigma/k is fixed by the set.
    A ``vertex`` outside [0, n) or a ``tol`` outside (0, 1) is refused before the group is listed.
    """
    _check_tol(tol)
    if vertex is not None:
        _check_vertex(sd.n, vertex)
    cospecs: dict[tuple[int, int], CospectralityCertificate | None] = {}
    periods: dict[int, PeriodicityCertificate | None] = {}
    best: dict[frozenset[int], MSTCertificate] = {}
    for p in find_switching_automorphisms(sd.graph):
        for cycle in p.cycles() if vertex is None else (orbit(p, vertex),):
            key = frozenset(cycle)
            if len(cycle) < 3 or key in best:
                continue
            a, b = cycle[0], cycle[1]
            if (a, b) not in cospecs:
                cospecs[a, b] = strong_cospectrality(sd, a, b, tol=tol)
            if cospecs[a, b] is not None and a not in periods:
                periods[a] = is_periodic(sd, eigenvalue_support(sd, a))
            if cospecs[a, b] is None or periods[a] is None:
                continue
            cert = complete_char(sd, p, cospecs[a, b], periods[a], tol=tol)
            if cert is not None:
                best[key] = cert
    return sorted(best.values(), key=lambda c: (c.base_time, c.orbit))
