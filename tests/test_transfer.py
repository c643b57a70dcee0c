import functools
import math
import random
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

import owalk.arithmetic
import owalk.transfer
from owalk import (
    SwitchingAutomorphism,
    build_graph,
    builtin_example,
    complete_char,
    decompose,
    eigenvalue_support,
    first_char_check,
    is_connected,
    is_periodic,
    is_switching_automorphism,
    mst_search,
    scan_pst,
    strong_cospectrality,
    verify_pst,
)
from owalk.errors import DisconnectedGraphError, InputError, VerificationFailedError
from owalk.transfer import DEFAULT_PARITY_TOL, MAX_SCAN_CANDIDATES

from conftest import (
    grid_scan,
    k3_power,
    paley_tournament,
    random_oriented_graph,
    scalar_scan_pst,
)

K3_TAU = 2 * math.pi / (3 * math.sqrt(3))
IRR5_TAU = (math.pi + math.acos(3.0 / 4.0)) / math.sqrt(7)


def test_k3_regression_pair_orientation(k3_sd):
    # The walker circulates 0 -> 1 -> 2 -> 0: vertex 1 is reached at
    # sigma/3 and vertex 2 only at 2*sigma/3.  A conjugated propagator
    # convention would swap these two times; keep them pinned.
    one = verify_pst(k3_sd, 0, 1, K3_TAU)
    assert one is not None
    assert one.phase == 1
    assert one.residual < 1e-10
    two_early = verify_pst(k3_sd, 0, 2, K3_TAU)
    assert two_early is None
    two = verify_pst(k3_sd, 0, 2, 2 * K3_TAU)
    assert two is not None and two.phase == 1


def test_single_edge_quarter_turn(single_edge_sd):
    cert = verify_pst(single_edge_sd, 0, 1, math.pi / 2)
    assert cert is not None
    assert cert.phase == 1
    back = verify_pst(single_edge_sd, 1, 0, math.pi / 2)
    assert back is not None
    assert back.phase == -1


def test_irrational5_transfer_time(irrational5_sd):
    cert = verify_pst(irrational5_sd, 3, 4, IRR5_TAU)
    assert cert is not None
    assert cert.phase == -1
    assert cert.residual < 1e-10
    # no transfer earlier than IRR5_TAU
    early = scan_pst(irrational5_sd, 3, 4, t_max=IRR5_TAU * 0.99)
    assert early == []


def test_scan_finds_k3_events(k3_sd):
    certs = scan_pst(k3_sd, 0, 1, t_max=6.0)
    sigma = 2 * math.pi / math.sqrt(3)
    assert len(certs) == 2
    assert abs(certs[0].time - K3_TAU) < 1e-9
    assert abs(certs[1].time - (K3_TAU + sigma)) < 1e-9
    assert all(c.phase == 1 and c.method == "scan" for c in certs)


def test_scan_finds_nothing_without_transfer(irrational5_sd, p4_sd):
    assert scan_pst(irrational5_sd, 0, 3, t_max=6.0) == []
    assert scan_pst(p4_sd, 0, 3, t_max=6.0) == []


def test_scan_time_precision(k3_sd, irrational5_sd, mst8_sd):
    # every scanned time up to t = 2000 lies within 8 ulp of its closed form,
    # evaluated to 50 digits: sigma/3 + j*sigma on k3, (pi + arccos(3/4) +
    # 2*pi*j)/sqrt(7) on irrational5 and multiples of pi/4 on mst8
    mp = mpmath.mp
    cases = [
        (k3_sd, 0, 1, lambda j: 2 * mp.pi * (3 * j + 1) / (3 * mp.sqrt(3))),
        (irrational5_sd, 3, 4, lambda j: (mp.pi + mp.acos(0.75) + 2 * mp.pi * j) / mp.sqrt(7)),
        (mst8_sd, 0, 1, lambda j: (4 * j + 2) * mp.pi / 4),
        (mst8_sd, 0, 6, lambda j: (4 * j + 1) * mp.pi / 4),
        (mst8_sd, 0, 7, lambda j: (4 * j + 3) * mp.pi / 4),
    ]
    for sd, a, b, closed_form in cases:
        certs = scan_pst(sd, a, b, t_max=2000.0)
        with mpmath.workdps(50):
            exact = [closed_form(j) for j in range(len(certs) + 1)]
            assert certs and exact[-2] <= 2000 < exact[-1], (a, b, len(certs))
            for cert, t in zip(certs, exact):
                ulps = abs(mpmath.mpf(cert.time) - t) / math.ulp(cert.time)
                assert ulps <= 8, (a, b, cert.time, mpmath.nstr(t, 20), float(ulps))


def _cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _scan_graphs(rng):
    """The builtins, C4, C8, k3 x k3 and 24 seeded random graphs."""
    graphs = [builtin_example(name) for name in ("k3", "irrational5", "mst8")]
    graphs += [_cycle(4), _cycle(8), k3_power(2)]
    graphs += [random_oriented_graph(rng, int(rng.integers(2, 13))) for _ in range(24)]
    return graphs


def test_scan_matches_grid_oracle(rng):
    # the solved candidate times and an independent fidelity grid must
    # report the same events, on every ordered pair, with the same phases
    events = 0
    for g in _scan_graphs(rng):
        sd = decompose(g)
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                solved = [(c.time, c.phase) for c in scan_pst(sd, a, b, t_max=10.0)]
                sampled = grid_scan(sd, a, b, t_max=10.0)
                assert len(solved) == len(sampled), (g.edges, a, b, solved, sampled)
                for (t, phase), (s, oracle_phase) in zip(solved, sampled):
                    assert abs(t - s) < 1e-9 and phase == oracle_phase, (g.edges, a, b)
                events += len(solved)
    assert events > 100


def _scan_or_error(scan, sd, a, b, t_max):
    try:
        return scan(sd, a, b, t_max=t_max)
    except Exception as exc:  # both scans must fail alike
        return type(exc)


def test_block_scan_matches_scalar_oracle(rng, k3_sd, irrational5_sd, mst8_sd):
    # candidates taken in blocks give the certificates of the scan that tests
    # and verifies one candidate at a time, equal to the last bit (times,
    # phases, methods and residuals)
    cases = [
        (decompose(g), a, b, 10.0)
        for g in _scan_graphs(rng)
        for a in range(g.n)
        for b in range(g.n)
        if a != b
    ]
    cases += [(k3_sd, 0, 1, 20000.0), (irrational5_sd, 3, 4, 200.0)]
    cases += [(mst8_sd, 0, b, 400.0) for b in range(1, 8)]
    events = 0
    for sd, a, b, t_max in cases:
        got = _scan_or_error(scan_pst, sd, a, b, t_max)
        want = _scan_or_error(scalar_scan_pst, sd, a, b, t_max)
        where = (sd.graph.edges, a, b, t_max)
        if isinstance(want, type):
            assert got is want, where
            continue
        assert got == want, where
        events += len(got)
    assert events > 5513 + 84 + 3 * 127


def _reversed(g):
    return build_graph(g.n, [(v, u) for u, v in g.edges])


def test_reversal_transposes_transfer(rng):
    # reversing every edge gives A' = -A, so U'(t) = U(t)^T: PST a -> b at
    # tau holds exactly when PST b -> a holds at tau on the reversed graph,
    # with the same phase
    events = 0
    for g in _scan_graphs(rng):
        sd, rev = decompose(g), decompose(_reversed(g))
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                forward = scan_pst(sd, a, b, t_max=10.0)
                backward = scan_pst(rev, b, a, t_max=10.0)
                assert len(forward) == len(backward), (g.edges, a, b)
                for f, r in zip(forward, backward):
                    assert abs(f.time - r.time) < 1e-9 and f.phase == r.phase, (g.edges, a, b)
                events += len(forward)
    assert events > 100


def test_scan_memory_is_bounded_by_a_block(k3_sd):
    # about 199 000 candidate times, just under the bound: beyond the
    # certificates it returns, the scan holds one block of candidates at a time
    t_max = 199_000 * math.pi / math.sqrt(3)
    tracemalloc.start()
    try:
        certs = scan_pst(k3_sd, 0, 1, t_max=t_max)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(certs) > 99_000
    assert peak - held < 2 * 2**20, (peak, held)


def test_scan_long_horizon_k3(k3_sd):
    # every event sigma/3 + j*sigma up to t = 20000, none lost to a grid
    sigma = 2 * math.pi / math.sqrt(3)
    certs = scan_pst(k3_sd, 0, 1, t_max=20000.0)
    assert len(certs) == 5513
    for j, cert in enumerate(certs):
        expected = sigma / 3 + j * sigma
        assert abs(cert.time - expected) < 1e-9 + 1e-13 * expected
        assert cert.phase == 1


def test_scan_refuses_too_many_candidates(k3_sd):
    with pytest.raises(InputError):
        scan_pst(k3_sd, 0, 1, t_max=1e9)
    with pytest.raises(InputError):
        scan_pst(k3_sd, 0, 1, t_max=100.0, grid=10)
    assert len(scan_pst(k3_sd, 0, 1, t_max=100.0, grid=100)) == 28


def test_times_past_the_rounding_bound_are_input_errors(mst8_sd):
    # mst8 has max|y| = 4: a phase t*y rounds by up to 4t * 2^-52, past the
    # realness bound 1e-8 at t = 1.1259e7.  At 1.1e8 the column's imaginary
    # parts would reach 5e-8, which is the user's time, not an internal fault
    for tau in (1.1e8, -1.1e8, math.nan, math.inf):
        with pytest.raises(InputError, match="past|not finite"):
            verify_pst(mst8_sd, 0, 1, tau)
    assert verify_pst(mst8_sd, 0, 1, 1.1e7) is None
    with pytest.raises(InputError, match="past 1.1259e"):
        verify_pst(mst8_sd, 0, 1, 1.2e6, tol=1e-9)
    # the horizon is refused before the cospectrality test: k3^3's 0 and 1 are
    # not strongly cospectral, and still a horizon of 1e17 is no answer
    sd = decompose(k3_power(3))
    assert strong_cospectrality(sd, 0, 1) is None
    with pytest.raises(InputError, match="past"):
        scan_pst(sd, 0, 1, t_max=1e17)
    with pytest.raises(InputError, match="not finite"):
        scan_pst(sd, 0, 1, t_max=math.nan)


def test_scan_refuses_isolated_vertex():
    # an isolated vertex never moves, so every time would be a return
    sd = decompose(build_graph(3, [(0, 1)]))
    with pytest.raises(DisconnectedGraphError):
        scan_pst(sd, 2, 2, t_max=1.0)


def _parity_rows(monkeypatch, fail=False):
    """Patch the scan's parity test to count the candidate rows it is handed, or to fail."""
    real, rows = owalk.transfer._parity_of, []

    def counting(values):
        assert not fail, "a candidate time was examined"
        rows.append(len(values))
        return real(values)

    monkeypatch.setattr(owalk.transfer, "_parity_of", counting)
    return rows


def test_aperiodic_source_has_no_transfer_at_any_horizon(monkeypatch):
    # PST needs a periodic source (transfer module), so a strongly cospectral pair
    # with an aperiodic source is answered from its certificates, with no candidate
    # examined, even where the candidates would pass the bound of MAX_SCAN_CANDIDATES
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(20):
        sd = decompose(random_oriented_graph(rng, int(rng.integers(3, 8))))
        for a in range(sd.n):
            if not sd.graph.adjacency[a].any():
                continue
            for b in range(sd.n):
                cospec = strong_cospectrality(sd, a, b) if a != b else None
                if cospec and not is_periodic(sd, eigenvalue_support(sd, a)):
                    assert scalar_scan_pst(sd, a, b, t_max=60.0) == []
                    y0 = min(abs(sd.eigenvalues[r]) for r in cospec.support if sd.eigenvalues[r])
                    pairs.append((sd, a, b, y0))
    assert len(pairs) > 10
    assert any(1e6 * y0 / math.pi > MAX_SCAN_CANDIDATES for *_, y0 in pairs)
    _parity_rows(monkeypatch, fail=True)
    for sd, a, b, _ in pairs:
        assert scan_pst(sd, a, b, t_max=1e6) == []


def test_scan_tests_the_parity_of_one_period(monkeypatch, k3_sd):
    # k3 has K = 2 candidates per period (sigma*sqrt(3)/pi), and its transfers
    # 0 -> 1 at sigma/3 and 0 -> 2 at 2*sigma/3 are the first and the second;
    # a scan that tested fewer than K would lose 0 -> 2
    sigma = 2 * math.pi / math.sqrt(3)
    (two,) = scan_pst(k3_sd, 0, 2, t_max=sigma)
    assert abs(two.time - 2 * sigma / 3) < 1e-12 and two.phase == 1
    rows = _parity_rows(monkeypatch)
    assert len(scan_pst(k3_sd, 0, 1, t_max=20000.0)) == 5513 and sum(rows) == 2
    # a periodic, strongly cospectral pair with no transfer: the parity test fails
    # on the K = 2 candidates of the first period (y = +-1, +-2), and so at every time
    sd = decompose(build_graph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (2, 3)]))
    period = is_periodic(sd, eigenvalue_support(sd, 0))
    assert strong_cospectrality(sd, 0, 2) and abs(period.sigma - 2 * math.pi) < 1e-12
    rows.clear()
    assert scan_pst(sd, 0, 2, t_max=1e5) == [] and sum(rows) == 2


def test_scan_raises_when_a_transfer_does_not_recur(monkeypatch, k3_sd):
    # a verified transfer recurs every period, so a member of its progression
    # that fails verification is an inconsistency, not a missing event
    spoiled = scan_pst(k3_sd, 0, 1, t_max=20.0)[3].time
    real = owalk.transfer._verify_times

    def spoiling(sd, a, b, times, tol, method):
        return [c for c in real(sd, a, b, times, tol, method) if c.time != spoiled]

    monkeypatch.setattr(owalk.transfer, "_verify_times", spoiling)
    with pytest.raises(VerificationFailedError, match=re.escape(repr(spoiled))):
        scan_pst(k3_sd, 0, 1, t_max=20.0)


def test_scan_verifies_a_kept_candidate_with_the_first_block_of_its_progression(
    monkeypatch, k3_sd
):
    # one product takes the kept j and the next SCAN_BLOCK - 1 members of j + iK,
    # so k3's 5 513 events take 6 products of at most 1024 times
    sizes = []
    real = owalk.transfer.propagator_column

    def counting(sd, a, t):
        sizes.append(len(t))
        return real(sd, a, t)

    monkeypatch.setattr(owalk.transfer, "propagator_column", counting)
    assert len(scan_pst(k3_sd, 0, 1, t_max=20000.0)) == 5513
    assert sizes == [1024] * 5 + [393]


@pytest.mark.parametrize("spoiled", [0, 1, 1023, 1024, 5512])
def test_scan_drops_a_failed_candidate_and_raises_on_a_failed_member(
    monkeypatch, k3_sd, spoiled
):
    # a kept candidate that fails its check is no event, nor is any member of its
    # progression, though they share its product; once it passes, a member that
    # fails is an inconsistency, in its first product or a later one
    events = scan_pst(k3_sd, 0, 1, t_max=20000.0)
    products = []
    real = owalk.transfer._verify_times

    def spoiling(sd, a, b, times, tol, method):
        products.append(times)
        return [c for c in real(sd, a, b, times, tol, method) if c.time != events[spoiled].time]

    monkeypatch.setattr(owalk.transfer, "_verify_times", spoiling)
    if spoiled == 0:
        assert scan_pst(k3_sd, 0, 1, t_max=20000.0) == []
        assert len(products) == 1 and products[0][0] == events[0].time
        return
    with pytest.raises(VerificationFailedError, match=re.escape(repr(events[spoiled].time))):
        scan_pst(k3_sd, 0, 1, t_max=20000.0)


def test_scan_verifies_every_recurrence_up_to_the_time_bound(k3_sd):
    # up to the longest time _check_time admits for tol = 1e-9, the phases round
    # by less than tol, so every member of the progression verifies
    sigma = 2 * math.pi / math.sqrt(3)
    t_max = 1e-9 * 2**52 / math.sqrt(3) * (1 - 1e-12)
    certs = scan_pst(k3_sd, 0, 1, t_max=t_max, tol=1e-9, grid=1_500_000)
    assert len(certs) == math.floor((t_max - sigma / 3) / sigma) + 1 == 716_770
    assert max(c.residual for c in certs) < 1e-9


def _verdicts(sds):
    """Every periodicity verdict and every scan event in (0, 20] of the decompositions."""
    out = []
    for sd in sds:
        for a in range(sd.n):
            if not sd.graph.adjacency[a].any():
                continue  # an isolated vertex is refused
            period = is_periodic(sd, eigenvalue_support(sd, a))
            out.append(None if period is None else (period.delta, period.b_coeffs))
            for b in range(sd.n):
                out.append([(c.time, c.phase) for c in scan_pst(sd, a, b, t_max=20.0)])
    return out


@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_no_verdict_rests_on_the_recognition_or_parity_tolerance(scale, monkeypatch):
    # "no transfer" from an aperiodic source rests on recognizing y^2 as integers
    # (tolerance 1e-6) and the scan's events on the parity test (also 1e-6):
    # scaling either by 10^3 or 10^-3 changes no verdict on these graphs
    rng = np.random.default_rng(31)
    graphs = [builtin_example(name) for name in ("k3", "irrational5", "mst8")]
    graphs += [_cycle(n) for n in range(3, 13)] + [paley_tournament(q) for q in (7, 11)]
    graphs += [k3_power(2)] + [random_oriented_graph(rng, 3 + i % 6) for i in range(20)]
    sds = [decompose(g) for g in graphs]
    expected = _verdicts(sds)
    assert sum(map(bool, expected)) > 200
    recognize = owalk.arithmetic.quadratic_integer_profile
    with monkeypatch.context() as patch:
        scaled = functools.partial(recognize, tol=1e-6 * scale)
        patch.setattr(owalk.arithmetic, "quadratic_integer_profile", scaled)
        assert _verdicts(sds) == expected
    with monkeypatch.context() as patch:
        patch.setattr(owalk.transfer, "DEFAULT_PARITY_TOL", DEFAULT_PARITY_TOL * scale)
        assert _verdicts(sds) == expected


def test_first_char_k3(k3_sd):
    cospec = strong_cospectrality(k3_sd, 0, 1)
    assert first_char_check(cospec, k3_sd, K3_TAU) == "even"
    # 2*K3_TAU transfers 0 -> 2, so the (0, 1) pair fails there
    assert first_char_check(cospec, k3_sd, 2 * K3_TAU) is None
    assert first_char_check(cospec, k3_sd, 0.77) is None


def test_first_char_irrational5(irrational5_sd):
    cospec = strong_cospectrality(irrational5_sd, 3, 4)
    assert first_char_check(cospec, irrational5_sd, IRR5_TAU) == "odd"
    wrong = (math.pi - math.acos(3.0 / 4.0)) / math.sqrt(7)
    assert first_char_check(cospec, irrational5_sd, wrong) is None


def test_first_char_requires_certificate(k3_sd):
    # a pair that is not strongly cospectral has no transfer at any time
    assert first_char_check(None, k3_sd, K3_TAU) is None


def test_first_char_matches_verify_on_random_graphs(rng):
    # parity verdicts and realized transfers must agree either way
    checked = 0
    for _ in range(30):
        g = random_oriented_graph(rng, int(rng.integers(2, 6)))
        sd = decompose(g)
        for a in range(g.n):
            for b in range(g.n):
                if a == b:
                    continue
                cospec = strong_cospectrality(sd, a, b)
                if cospec is None:
                    continue
                for t in rng.uniform(0.05, 6.0, size=3):
                    parity = first_char_check(cospec, sd, float(t))
                    cert = verify_pst(sd, a, b, float(t), tol=1e-6)
                    assert (parity is not None) == (cert is not None)
                    if cert is not None:
                        checked += 1
                        expected = 1 if parity == "even" else -1
                        assert cert.phase == expected
    # random times virtually never hit a transfer; the equivalence is
    # still exercised through the None == None branch thousands of times


def _certified(sd, a, p):
    """complete_char on the orbit of ``a``, with the certificates it takes."""
    cospec = strong_cospectrality(sd, a, p.apply(a))
    return complete_char(sd, p, cospec, is_periodic(sd, eigenvalue_support(sd, a)))


def test_complete_char_k3(k3_sd):
    rot = SwitchingAutomorphism((1, 2, 0), (1, 1, 1))
    cert = _certified(k3_sd, 0, rot)
    assert cert.orbit == (0, 1, 2)
    assert cert.m == 1
    assert abs(cert.base_time - K3_TAU) < 1e-12
    assert len(cert.pairs) == 6
    assert max(pair.residual for pair in cert.pairs.values()) < 1e-10
    # one direct certificate per ordered orbit pair
    for (i, j), pair in cert.pairs.items():
        assert (pair.source, pair.target, pair.method) == (cert.orbit[i], cert.orbit[j], "direct")
    # orbit positions i -> j reached after ((j - i) * m^-1) mod 3 steps
    assert abs(cert.pairs[0, 2].time - 2 * K3_TAU) < 1e-12
    assert abs(cert.pairs[2, 0].time - K3_TAU) < 1e-12
    # round trip phases multiply to the period phase (+1 for k3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert cert.pairs[i, j].phase * cert.pairs[j, i].phase == 1


def test_complete_char_rejects_non_cospectral_orbit(irrational5_sd):
    # 0 -> 1 -> 2 -> 0 relabeling fixes the graph but the orbit pairs
    # are only cospectral, not strongly cospectral
    perm = (1, 2, 0, 3, 4)
    p = SwitchingAutomorphism(perm, (1, 1, 1, 1, 1))
    assert is_switching_automorphism(irrational5_sd.graph, p)
    assert strong_cospectrality(irrational5_sd, 0, 1) is None
    assert _certified(irrational5_sd, 0, p) is None


def test_complete_char_requires_orbit(k3_sd):
    neg = SwitchingAutomorphism((0, 1, 2), (-1, -1, -1))
    with pytest.raises(ValueError):
        _certified(k3_sd, 0, neg)


def test_complete_char_checks_its_certificates(k3_sd):
    rot = SwitchingAutomorphism((1, 2, 0), (1, 1, 1))
    period = {a: is_periodic(k3_sd, eigenvalue_support(k3_sd, a)) for a in range(3)}
    cospec = {(a, b): strong_cospectrality(k3_sd, a, b) for a in range(3) for b in range(3)}
    assert complete_char(k3_sd, rot, cospec[0, 1], period[0]).orbit == (0, 1, 2)
    # certificates of another pair, or of another vertex, do not fit the orbit step 0 -> 1
    for pair, vertex in [((0, 2), 0), ((1, 2), 0), ((0, 0), 0), ((0, 1), 1), ((0, 1), 2)]:
        with pytest.raises(ValueError):
            complete_char(k3_sd, rot, cospec[pair], period[vertex])
    # a missing certificate is a negative verdict, not an error
    assert complete_char(k3_sd, rot, None, period[0]) is None
    assert complete_char(k3_sd, rot, cospec[0, 1], None) is None
    assert complete_char(k3_sd, rot, None, None) is None


def test_complete_char_names_the_pair_that_fails(k3_sd):
    # a parity pass whose numeric check fails names the first failing pair
    rot = SwitchingAutomorphism((1, 2, 0), (1, 1, 1))
    cospec = strong_cospectrality(k3_sd, 0, 1)
    period = is_periodic(k3_sd, eigenvalue_support(k3_sd, 0))
    with pytest.raises(VerificationFailedError, match="orbit pair 0 -> 1 failed"):
        complete_char(k3_sd, rot, cospec, period, tol=1e-30)


def test_complete_char_alternating_c4_swap():
    # alternating 4-cycle: 0 and 2 are strongly cospectral and periodic
    # with sigma = pi, and the swap (0 2)(1 3) passes the parity test at
    # m = 1, so PST 0 -> 2 holds at sigma/2
    sd = decompose(build_graph(4, [(0, 1), (2, 1), (2, 3), (0, 3)]))
    swap = SwitchingAutomorphism((2, 3, 0, 1), (1, 1, 1, 1))
    assert is_switching_automorphism(sd.graph, swap)
    cert = _certified(sd, 0, swap)
    assert cert is not None
    assert (cert.orbit, cert.m) == ((0, 2), 1)
    assert abs(cert.base_time - math.pi / 2) < 1e-12
    assert verify_pst(sd, 0, 2, cert.base_time) is not None


def test_complete_char_no_valid_m():
    # 0 and 2 are strongly cospectral and 0 is periodic with sigma = 2*pi,
    # yet m = 1, the only m coprime to 2, fails the parity test: there is
    # no transfer 0 -> 2 at any time
    sd = decompose(build_graph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (2, 3)]))
    p = SwitchingAutomorphism((2, 3, 0, 1), (-1, 1, 1, -1))
    assert is_switching_automorphism(sd.graph, p)
    cospec = strong_cospectrality(sd, 0, 2)
    period = is_periodic(sd, eigenvalue_support(sd, 0))
    assert cospec is not None and period is not None
    assert abs(period.sigma - 2 * math.pi) < 1e-12
    assert complete_char(sd, p, cospec, period) is None
    assert scan_pst(sd, 0, 2, t_max=4 * period.sigma) == []


def test_mst_search_k3(k3_sd):
    certs = mst_search(k3_sd)
    assert len(certs) == 1
    assert set(certs[0].orbit) == {0, 1, 2}
    assert abs(certs[0].base_time - K3_TAU) < 1e-12


def test_mst_search_mst8(mst8_sd):
    certs = mst_search(mst8_sd)
    orbits = [frozenset(c.orbit) for c in certs]
    assert frozenset({0, 1, 6, 7}) in orbits
    for cert in certs:
        assert abs(cert.base_time - math.pi / 4) < 1e-12
        assert len(cert.pairs) == 12
        assert max(pair.residual for pair in cert.pairs.values()) < 1e-6


def test_mst_search_vertex_filter(mst8_sd):
    certs = mst_search(mst8_sd, vertex=0)
    assert [frozenset(c.orbit) for c in certs] == [frozenset({0, 1, 6, 7})]


def test_mst_search_empty_on_aperiodic(p4_sd):
    assert mst_search(p4_sd) == []


def test_mst_pair_times_cross_check_scan(mst8_sd):
    # every pair time claimed by the orbit certificate must appear in an
    # independent fidelity scan of that pair
    certs = mst_search(mst8_sd, vertex=0)
    cert = certs[0]
    for pair in cert.pairs.values():
        a, b, t = pair.source, pair.target, pair.time
        scanned = grid_scan(mst8_sd, a, b, t_max=3.3)
        assert any(abs(s - t) < 1e-9 and phase == pair.phase for s, phase in scanned), (a, b, t)


def test_mst_search_certifies_each_orbit_set_once(mst8_sd, monkeypatch):
    # the base time sigma/k is fixed by the orbit set, so a set that is
    # already certified is never handed to complete_char again
    real = owalk.transfer.complete_char
    calls = []
    held = set()

    def counting(sd, p, cospec, period, tol):
        key = frozenset(owalk.transfer.orbit(p, cospec.a))
        assert key not in held, key
        calls.append(key)
        cert = real(sd, p, cospec, period, tol=tol)
        held.add(key)
        return cert

    monkeypatch.setattr(owalk.transfer, "complete_char", counting)
    certs = mst_search(mst8_sd)
    assert {frozenset(c.orbit) for c in certs} == held
    assert len(calls) == 2


@pytest.mark.parametrize("g", [k3_power(3), paley_tournament(11)], ids=["k3xk3xk3", "paley11"])
def test_mst_search_decides_each_pair_and_vertex_once(g, monkeypatch):
    sd = decompose(g)
    expected = [(c.orbit, c.m, c.pairs) for c in mst_search(sd)]
    pairs, vertices = [], []

    def cospectrality(sd, a, b, tol):
        pairs.append((a, b))
        return strong_cospectrality(sd, a, b, tol=tol)

    def periodicity(sd, support):
        vertices.append(support.vertex)
        return is_periodic(sd, support)

    monkeypatch.setattr(owalk.transfer, "strong_cospectrality", cospectrality)
    monkeypatch.setattr(owalk.transfer, "is_periodic", periodicity)
    assert [(c.orbit, c.m, c.pairs) for c in mst_search(sd)] == expected
    assert pairs
    assert len(pairs) == len(set(pairs)), "a pair (a, p(a)) was tested twice"
    # periodicity is decided exactly for the starts of strongly cospectral pairs
    assert set(vertices) == {a for a, b in pairs if strong_cospectrality(sd, a, b)}
    assert len(vertices) == len(set(vertices)), "a start vertex was tested twice"


def _switched(g, d):
    """The graph of D A D, D = diag(d): edge u -> v reverses wherever d_u * d_v = -1."""
    return build_graph(g.n, [(u, v) if d[u] * d[v] == 1 else (v, u) for u, v in g.edges])


SWITCHING_GRAPHS = {
    "k3": builtin_example("k3"),
    "mst8": builtin_example("mst8"),
    "k3xk3": k3_power(2),
    **{f"c{k}": _cycle(k) for k in range(3, 13)},
    "paley7": paley_tournament(7),
    "paley11": paley_tournament(11),
}


@pytest.mark.parametrize("name", SWITCHING_GRAPHS)
def test_mst_search_is_switching_invariant(name):
    # U'(t) = D U(t) D for A' = D A D, so switching moves only transfer
    # phases, by d_a * d_b: the MST sets and their base times stay, while
    # the automorphisms that carry them gain signs
    g = SWITCHING_GRAPHS[name]
    expected = sorted((sorted(c.orbit), c.base_time) for c in mst_search(decompose(g)))
    rnd = random.Random(11)
    for _ in range(4):
        d = [rnd.choice((1, -1)) for _ in range(g.n)]
        found = sorted((sorted(c.orbit), c.base_time) for c in mst_search(decompose(_switched(g, d))))
        assert [s for s, _ in found] == [s for s, _ in expected], d
        assert all(abs(t - u) < 1e-9 for (_, t), (_, u) in zip(found, expected)), d


def test_mst_search_never_raises_on_random_graphs():
    # the predicted phase carries the signs of the automorphism, so no
    # valid input ends in VerificationFailedError
    rng = np.random.default_rng(2)
    certified = graphs = 0
    while graphs < 1000:
        g = random_oriented_graph(rng, int(rng.integers(3, 10)))
        if not is_connected(g):
            continue
        graphs += 1
        sd = decompose(g)
        certified += len(mst_search(sd)) + len(mst_search(sd, vertex=0))
    assert certified > 20


def test_verify_pst_rejects_wrong_time(k3_sd):
    assert verify_pst(k3_sd, 0, 1, K3_TAU * 1.01) is None
    assert verify_pst(k3_sd, 0, 1, 0.0) is None


def test_transfer_implies_strong_cospectrality(k3_sd, irrational5_sd, mst8_sd):
    for sd, pairs in (
        (k3_sd, [(0, 1)]),
        (irrational5_sd, [(3, 4)]),
        (mst8_sd, [(0, 1), (0, 6), (0, 7)]),
    ):
        for a, b in pairs:
            certs = scan_pst(sd, a, b, t_max=4.0)
            assert certs
            assert strong_cospectrality(sd, a, b) is not None
