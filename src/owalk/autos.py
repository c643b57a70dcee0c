"""Switching automorphisms: signed permutations commuting with the adjacency.

A switching automorphism is a monomial matrix P (one nonzero entry of
+-1 per row and column) with P^T A P = A, exactly, over the integers.
We store it as a permutation together with a sign per *image* vertex, so
the matrix has entry signs[perm[u]] at position (perm[u], u) and acts as
P e_u = signs[perm[u]] * e_{perm[u]}.

Entrywise the exact identity reads

    signs[perm[u]] * signs[perm[v]] * A[perm[u]][perm[v]] == A[u][v].

The search leaves out the identity matrix.  The identity permutation
with all signs -1 is always a switching automorphism, so for n >= 1 the
list it reports is never empty.

The group is found as a stabilizer chain along a breadth-first base, the
vertices in the order ``graph._components`` visits them (McKay & Piperno,
Practical graph isomorphism II, 2014; Seress, Permutation Group
Algorithms, 2003).  Level i holds the automorphisms fixing every earlier
base vertex with sign +1.  From the last level up, each image (w, s) of
the level's base vertex b not yet in the orbit of (b, +1) gets a
backtracking search that stops at its first leaf, a new generator; the
orbit closed under the generators gives one transversal element per
point.  Branches die once the images still open to the unassigned
vertices cannot be matched one-to-one.  The group is listed as products
of one transversal element per level (level 0's sign pinned to +1), each
then emitted again negated, so |G| = 2 * prod(transversal lengths) is
known first.  ``node_budget`` counts candidate images tried by all
searches, plus n * |G| charged before any product is formed.

``SwitchingAutomorphism.cycles`` is the one cycle walk: ``order`` reads
it, and ``transfer.mst_search`` tries each cycle from its least vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SearchBudgetExceededError, VerificationFailedError
from .graph import OrientedGraph, _check_vertex, _components

__all__ = [
    "SwitchingAutomorphism",
    "find_switching_automorphisms",
    "is_switching_automorphism",
    "orbit",
]

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SwitchingAutomorphism:
    """Signed permutation; ``signs`` are indexed by image vertex."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, a: int) -> int:
        _check_vertex(len(self.perm), a)
        return self.perm[a]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of ``perm``, each from its least vertex, in order of that vertex."""
        seen: set[int] = set()
        out = []
        for u in range(len(self.perm)):
            if u not in seen:
                out.append(orbit(self, u))
                seen.update(out[-1])
        return tuple(out)

    @property
    def order(self) -> int:
        """Smallest k >= 1 with the k-th matrix power equal to the identity.

        Over a cycle of length L, P^L e_u is e_u times the product of the
        signs of the cycle's vertices, so each cycle needs L steps, or 2L
        when that product is -1; the order is the lcm over the cycles.
        """
        return math.lcm(
            *(
                len(c) if math.prod(self.signs[w] for w in c) == 1 else 2 * len(c)
                for c in self.cycles()
            )
        )


def _compose(
    outer: SwitchingAutomorphism, inner: SwitchingAutomorphism
) -> SwitchingAutomorphism:
    """Automorphism acting as ``inner`` first, then ``outer``.

    Private, so that tracers wrapping public functions count it as search.
    """
    n = len(inner.perm)
    perm = tuple(outer.perm[inner.perm[u]] for u in range(n))
    signs = [1] * n
    for u in range(n):
        w = perm[u]
        signs[w] = inner.signs[inner.perm[u]] * outer.signs[w]
    return SwitchingAutomorphism(perm, tuple(signs))


def orbit(p: SwitchingAutomorphism, a: int) -> tuple[int, ...]:
    """Vertices a, p(a), p(p(a)), ... until the cycle closes."""
    _check_vertex(len(p.perm), a)
    out = [a]
    w = p.perm[a]
    while w != a:
        out.append(w)
        w = p.perm[w]
    return tuple(out)


def is_switching_automorphism(g: OrientedGraph, p: SwitchingAutomorphism) -> bool:
    """Exact integer check of the defining identity P^T A P = A."""
    a = g.adjacency
    n = g.n
    if sorted(p.perm) != list(range(n)) or len(p.signs) != n or not set(p.signs) <= {-1, 1}:
        return False
    perm = np.array(p.perm, dtype=np.int64)
    t = np.array(p.signs, dtype=np.int64)[perm]
    return bool((t[:, None] * t * a[perm][:, perm] == a).all())


def find_switching_automorphisms(
    g: OrientedGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SwitchingAutomorphism]:
    """Every switching automorphism, from a stabilizer chain (module docstring).

    Results are sorted lexicographically by (perm, signs), and each one is
    checked exactly (VerificationFailedError).  The identity matrix is
    omitted; -I is always listed.  The empty graph (n = 0) gets the empty
    signed permutation.
    ``node_budget`` bounds the candidate images tried by all searches
    together plus n * |G|, charged before listing (SearchBudgetExceededError).
    """
    n = g.n
    if n == 0:
        return [SwitchingAutomorphism((), ())]
    transversals, nodes = _stabilizer_chain(g, node_budget)
    order = 2 * math.prod(map(len, transversals))  # the 2 is -I: level 0's sign is pinned
    if nodes + n * order > node_budget:
        raise SearchBudgetExceededError(
            f"automorphism group of order {order} is too large to list in {node_budget} nodes"
        )
    identity = SwitchingAutomorphism(tuple(range(n)), (1,) * n)
    listed = [identity]
    for reps in transversals:
        if len(reps) > 1:
            listed = [_compose(rep, below) for rep in reps for below in listed]
    listed += [SwitchingAutomorphism(p.perm, tuple(-x for x in p.signs)) for p in listed]
    autos = sorted(listed, key=lambda p: (p.perm, p.signs))
    for p in autos:
        if not is_switching_automorphism(g, p):
            raise VerificationFailedError(
                f"search produced perm={p.perm} signs={p.signs}, which fails P^T A P = A"
            )
    return [p for p in autos if p != identity]


def _stabilizer_chain(
    g: OrientedGraph, node_budget: int
) -> tuple[list[list[SwitchingAutomorphism]], int]:
    """Transversals from the last level up (level 0's with sign +1 only) and
    the candidate images tried, for n >= 1 (module docstring)."""
    n = g.n
    rows = g.adjacency.tolist()
    base = [v for part in _components(g) for v in part]
    identity = SwitchingAutomorphism(tuple(range(n)), (1,) * n)
    img, signs = list(range(n)), [1] * n  # the assignment; signs indexed by image
    nodes = 0
    # by_value[w][c + 1]: bit mask of the vertices y with A[y][w] == c
    by_value = [
        [sum(1 << y for y in range(n) if rows[y][w] == c) for c in (-1, 0, 1)] for w in range(n)
    ]

    def fix(ok: list, pos: int, w: int, s: int) -> list | None:
        # ok[x]: bit masks of the y that x may still go to with sign +1 and -1;
        # sending base[pos] to (w, s) must keep A exact on every pair with it
        u, col, unused = base[pos], by_value[w], ~(1 << w)
        ok = [
            (p & col[s * rows[x][u] + 1] & unused, m & col[1 - s * rows[x][u]] & unused)
            for x, (p, m) in enumerate(ok)
        ]
        # the unassigned vertices must go one-to-one onto the unused ones;
        # compatibility splits both into blocks (equal masks), which need equal sides
        blocks: dict[int, int] = {}
        for x in base[pos + 1 :]:
            blocks[ok[x][0] | ok[x][1]] = blocks.get(ok[x][0] | ok[x][1], 0) + 1
        return ok if all(m.bit_count() == k for m, k in blocks.items()) else None

    def spend(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > node_budget:
            raise SearchBudgetExceededError(f"automorphism search exceeded {node_budget} nodes")

    def candidates(ok: list, pos: int) -> list[tuple[int, int]]:
        plus, minus = ok[base[pos]]
        found = [(w, s) for w in range(n) for s, m in ((1, plus), (-1, minus)) if m >> w & 1]
        spend(len(found))
        return found

    def first_leaf(ok: list, pos: int, w: int, s: int) -> SwitchingAutomorphism | None:
        # first automorphism that extends the assignment with base[pos] -> (w, s)
        ok = fix(ok, pos, w, s)
        if ok is None:
            return None
        img[base[pos]], signs[w] = w, s
        if pos == n - 1:
            return SwitchingAutomorphism(tuple(img), tuple(signs))
        for w, s in candidates(ok, pos + 1):
            leaf = first_leaf(ok, pos + 1, w, s)
            if leaf is not None:
                return leaf
        return None

    degrees = [sum(map(abs, row)) for row in rows]
    same = {d: sum(1 << y for y in range(n) if degrees[y] == d) for d in set(degrees)}
    ok = [(same[d], same[d]) for d in degrees]
    prefix_ok = []  # entry i: base[:i] fixed with sign +1
    for pos in range(n):
        prefix_ok.append(ok)
        ok = fix(ok, pos, base[pos], 1)
    generators: list[SwitchingAutomorphism] = []
    transversals = []
    for level in reversed(range(n)):
        ok, u = prefix_ok.pop(), base[level]
        orbit = _orbit(generators, u, identity)
        for w, s in candidates(ok, level):
            if (w, s) in orbit or (level == 0 and s == -1):
                continue
            leaf = first_leaf(ok, level, w, s)
            if leaf is not None:
                generators.append(leaf)
                orbit = _orbit(generators, u, identity)
        transversals.append([rep for (w, s), rep in orbit.items() if level or s == 1])
    return transversals, nodes


def _orbit(
    generators: list[SwitchingAutomorphism], u: int, identity: SwitchingAutomorphism
) -> dict[tuple[int, int], SwitchingAutomorphism]:
    """Orbit of (u, +1) under the generators, with one element reaching each point."""
    reps = {(u, 1): identity}
    queue = [(u, 1)]
    for v, s in queue:
        for gen in generators:
            w = gen.perm[v]
            point = (w, s * gen.signs[w])
            if point not in reps:
                reps[point] = _compose(gen, reps[(v, s)])
                queue.append(point)
    return reps
