"""Relabeling, switching and reversal relations on generated connected graphs.

Switching by a diagonal sign matrix D gives A' = DAD, so U'(t) = D U(t) D:
every vertex keeps its Delta, sigma and period phase, and PST a -> b keeps
its times while its phase is multiplied by d_a * d_b.  Reversing every edge
gives A' = -A, so U'(t) = U(t)^T: PST a -> b at tau holds exactly when the
reversed graph has PST b -> a at tau, with the same phase.  These run on
n <= 8.

On n <= 10, relabeling by a permutation P gives E'_r = P E_r P^T: the
support of pi(a) holds the eigenvalues of the support of a, and the pair
(pi(a), pi(b)) has the quarrels of (a, b).  Under switching E'_r = D E_r D,
so E'_r e_a = alpha_r d_a d_b E'_r e_b: a quarrel shifts by 1 mod 2 exactly
where d_a * d_b = -1.

Across layers, PST a -> b needs a periodic a, and U(sigma) e_a = phase * e_a
makes the events of a pair one progression: consecutive scan events differ by
the source's sigma, each phase the previous one times the period phase, and
the report tags each event with its own fraction of sigma.

The graphs are relabeled builtins and a few small PST families, so that
transfers occur, and random orientations of connected graphs.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from owalk import build_graph, builtin_example, decompose, eigenvalue_support, is_periodic
from owalk import scan_pst, strong_cospectrality
from owalk.cli import _sigma_multiple, main

T_MAX = 8.0
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_TRANSFER_GRAPHS = [builtin_example(name) for name in ("k3", "irrational5", "mst8")]
_TRANSFER_GRAPHS += [
    build_graph(2, [(0, 1)]),  # PST 0 -> 1 at pi/2
    build_graph(4, [(0, 1), (2, 1), (2, 3), (0, 3)]),  # alternating C4: PST 0 -> 2 at pi/2
    build_graph(4, [(0, 1), (0, 2), (0, 3)]),  # star, periodic center
]


@st.composite
def _random_connected(draw, n_max=8):
    n = draw(st.integers(2, n_max))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    pairs |= set(draw(st.lists(st.sampled_from([(u, v) for v in range(n) for u in range(v)]))))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [(v, u) if f else (u, v) for (u, v), f in zip(sorted(pairs), flips)])


@st.composite
def _relabeled(draw):
    g = draw(st.sampled_from(_TRANSFER_GRAPHS))
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


GRAPHS = st.one_of(_relabeled(), _random_connected())
GRAPHS_10 = st.one_of(_relabeled(), _random_connected(10))


def _periods(sd):
    certs = [is_periodic(sd, eigenvalue_support(sd, a)) for a in range(sd.n)]
    return [None if c is None else (c.delta, c.sigma, c.phase) for c in certs]


def _same_events(got, want, phase_factor=1):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert abs(g.time - w.time) < 1e-9 and g.phase == w.phase * phase_factor, (g, w)


@SETTINGS
@given(g=GRAPHS, data=st.data())
def test_switching_keeps_periods_and_transfer_times(g, data):
    d = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n))
    switched = build_graph(g.n, [(u, v) if d[u] == d[v] else (v, u) for u, v in g.edges])
    sd, sw = decompose(g), decompose(switched)
    assert _periods(sd) == _periods(sw)
    for a in range(g.n):
        for b in range(g.n):
            if a != b:
                before, after = scan_pst(sd, a, b, T_MAX), scan_pst(sw, a, b, T_MAX)
                _same_events(after, before, d[a] * d[b])


@SETTINGS
@given(g=GRAPHS)
def test_reversal_swaps_source_and_target(g):
    sd, rev = decompose(g), decompose(build_graph(g.n, [(v, u) for u, v in g.edges]))
    for a in range(g.n):
        for b in range(g.n):
            if a != b:
                _same_events(scan_pst(rev, b, a, T_MAX), scan_pst(sd, a, b, T_MAX))


@SETTINGS
@given(g=GRAPHS)
def test_scan_events_recur_with_the_source_period(g):
    sd = decompose(g)
    for a in range(g.n):
        period = is_periodic(sd, eigenvalue_support(sd, a))
        for b in range(g.n):
            events = scan_pst(sd, a, b, 5 * T_MAX)
            assert period is not None or events == [], (a, b)
            for before, after in zip(events, events[1:]):
                assert abs(after.time - before.time - period.sigma) < 1e-9 * after.time, (a, b)
                assert after.phase == before.phase * period.phase, (a, b)


def test_report_tags_equal_the_fraction_of_each_event(capsys):
    assert main(["pst", "k3", "0", "1", "--scan", "--t-max", "20000", "--json"]) == 0
    events = json.loads(capsys.readouterr().out)["transfers"]
    assert len(events) == 5513
    for e in events:
        frac = _sigma_multiple(e["time"], e["sigma"])
        assert e["sigma_multiple"] == f"{frac.numerator}/{frac.denominator}", e


def _quarrel_shift(before, after):
    """(q' - q) mod 2 for each support index, in [0, 2)."""
    return [(after.quarrels[r] - before.quarrels[r]) % 2.0 for r in before.support]


def _near(x, target, tol=1e-12):
    """x within tol of target on the circle R / 2Z."""
    return abs((x - target + 1.0) % 2.0 - 1.0) < tol


def _pair_certificates(sd, label=lambda v: v):
    pairs = [(a, b) for a in range(sd.n) for b in range(sd.n)]
    return {(a, b): strong_cospectrality(sd, label(a), label(b)) for a, b in pairs}


@SETTINGS
@given(g=GRAPHS_10, data=st.data())
def test_relabeling_maps_supports_and_quarrels(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    sd = decompose(g)
    sp = decompose(build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    assert len(sd.eigenvalues) == len(sp.eigenvalues)
    assert all(abs(x - y) < 1e-9 for x, y in zip(sd.eigenvalues, sp.eigenvalues))
    for a in range(g.n):
        # class r of one decomposition holds the same eigenvalue as class r of the other
        assert eigenvalue_support(sd, a).members == eigenvalue_support(sp, perm[a]).members
    relabeled = _pair_certificates(sp, lambda v: perm[v])
    for pair, cert in _pair_certificates(sd).items():
        other = relabeled[pair]
        assert (cert is None) == (other is None), pair
        if cert is not None:
            assert cert.support == other.support
            assert all(_near(s, 0.0) for s in _quarrel_shift(cert, other)), pair


@SETTINGS
@given(g=GRAPHS_10, data=st.data())
def test_switching_shifts_quarrels_where_signs_differ(g, data):
    d = data.draw(st.lists(st.sampled_from((1, -1)), min_size=g.n, max_size=g.n))
    switched = build_graph(g.n, [(u, v) if d[u] == d[v] else (v, u) for u, v in g.edges])
    after = _pair_certificates(decompose(switched))
    for (a, b), cert in _pair_certificates(decompose(g)).items():
        other = after[a, b]
        assert (cert is None) == (other is None), (a, b)
        if cert is not None:
            assert cert.support == other.support
            shift = 0.0 if d[a] == d[b] else 1.0
            assert all(_near(s, shift) for s in _quarrel_shift(cert, other)), (a, b, d)
