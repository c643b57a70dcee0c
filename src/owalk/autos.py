"""Switching automorphisms: signed permutations commuting with the adjacency.

A switching automorphism is a monomial matrix P (one nonzero entry of
+-1 per row and column) with P^T A P = A, exactly, over the integers.
We store it as a permutation together with a sign per *image* vertex, so
the matrix has entry signs[perm[u]] at position (perm[u], u) and acts as
P e_u = signs[perm[u]] * e_{perm[u]}.

Entrywise the exact identity reads

    signs[perm[u]] * signs[perm[v]] * A[perm[u]][perm[v]] == A[u][v].

The identity permutation with all signs -1 is always a switching
automorphism; the search therefore reports it, and suppresses only the
identity-with-all-+1 matrix unless nothing else exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SearchBudgetExceededError, VerificationFailedError
from .graph import OrientedGraph

__all__ = [
    "SwitchingAutomorphism",
    "find_switching_automorphisms",
    "is_switching_automorphism",
    "compose",
    "orbit",
]

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SwitchingAutomorphism:
    """Signed permutation; ``signs`` are indexed by image vertex."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def apply(self, a: int) -> int:
        return self.perm[a]

    def matrix_of(self) -> np.ndarray:
        """Monomial matrix with entry signs[perm[u]] at (perm[u], u)."""
        n = len(self.perm)
        m = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            m[self.perm[u], u] = self.signs[self.perm[u]]
        return m

    @property
    def order(self) -> int:
        """Smallest k >= 1 with the k-th matrix power equal to the identity.

        Over a cycle of length L, P^L e_u is e_u times the product of the
        signs of the cycle's vertices, so each cycle needs L steps, or 2L
        when that product is -1; the order is the lcm over the cycles.
        """
        seen: set[int] = set()
        cycle_orders = []
        for u in range(len(self.perm)):
            if u in seen:
                continue
            cycle = orbit(self, u)
            seen.update(cycle)
            sign = math.prod(self.signs[w] for w in cycle)
            cycle_orders.append(len(cycle) if sign == 1 else 2 * len(cycle))
        return math.lcm(*cycle_orders)


def compose(
    outer: SwitchingAutomorphism, inner: SwitchingAutomorphism
) -> SwitchingAutomorphism:
    """Automorphism acting as ``inner`` first, then ``outer``."""
    n = len(inner.perm)
    perm = tuple(outer.perm[inner.perm[u]] for u in range(n))
    signs = [1] * n
    for u in range(n):
        w = perm[u]
        signs[w] = inner.signs[inner.perm[u]] * outer.signs[w]
    return SwitchingAutomorphism(perm, tuple(signs))


def orbit(p: SwitchingAutomorphism, a: int) -> tuple[int, ...]:
    """Vertices a, p(a), p(p(a)), ... until the cycle closes."""
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
    if sorted(p.perm) != list(range(n)) or any(s not in (-1, 1) for s in p.signs):
        return False
    for u in range(n):
        pu = p.perm[u]
        su = p.signs[pu]
        for v in range(n):
            pv = p.perm[v]
            if su * p.signs[pv] * a[pu, pv] != a[u, v]:
                return False
    return True


def _assignment_order(g: OrientedGraph) -> list[int]:
    # breadth-first order so that every non-root vertex has an assigned
    # neighbor when reached, forcing its sign instead of branching
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    order: list[int] = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in sorted(neighbors[u]):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def find_switching_automorphisms(
    g: OrientedGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SwitchingAutomorphism]:
    """Enumerate switching automorphisms by backtracking.

    Candidates are pruned by degree and by exact consistency with all
    previously assigned vertices; signs propagate along edges, so free
    sign choices arise only at the first vertex of each connected
    component (the very first is pinned to +1 and both global signs are
    emitted afterward, since negating every sign preserves the identity).

    Results are sorted lexicographically by (perm, signs).  The identity
    permutation with all +1 signs is omitted unless it is the only
    automorphism.  ``node_budget`` bounds the number of search steps
    (SearchBudgetExceededError).
    """
    n = g.n
    if n == 0:
        return [SwitchingAutomorphism((), ())]
    a = g.adjacency
    degrees = [g.degree(u) for u in range(n)]
    order = _assignment_order(g)
    img = [-1] * n
    t = [0] * n  # sign factor seen from the source: t[u] = signs[img[u]]
    used = [False] * n
    nodes = 0
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def consistent(u: int, w: int, tu: int) -> bool:
        for v in order:
            iv = img[v]
            if iv < 0 or v == u:
                continue
            if tu * t[v] * a[w, iv] != a[u, v]:
                return False
        return True

    def extend(pos: int):
        nonlocal nodes
        if pos == n:
            perm = tuple(img)
            signs = [0] * n
            for u in range(n):
                signs[img[u]] = t[u]
            found.add((perm, tuple(signs)))
            found.add((perm, tuple(-s for s in signs)))
            return
        u = order[pos]
        anchored = [v for v in order[:pos] if a[u, v] != 0]
        for w in range(n):
            if used[w] or degrees[w] != degrees[u]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceededError(
                    f"automorphism search exceeded {node_budget} nodes"
                )
            if anchored:
                v0 = anchored[0]
                ref = a[w, img[v0]]
                if ref == 0:
                    continue
                # entries are +-1, so dividing equals multiplying
                tu = int(a[u, v0]) * t[v0] * int(ref)
                sign_options = (tu,)
            elif pos == 0:
                sign_options = (1,)  # global sign quotient, re-emitted later
            else:
                sign_options = (1, -1)
            for tu in sign_options:
                if not consistent(u, w, tu):
                    continue
                img[u] = w
                t[u] = tu
                used[w] = True
                extend(pos + 1)
                img[u] = -1
                t[u] = 0
                used[w] = False

    extend(0)
    autos = [
        SwitchingAutomorphism(perm, signs) for perm, signs in sorted(found)
    ]
    for p in autos:
        if not is_switching_automorphism(g, p):
            raise VerificationFailedError(
                f"search produced perm={p.perm} signs={p.signs}, which fails P^T A P = A"
            )
    trivial = SwitchingAutomorphism(tuple(range(n)), (1,) * n)
    nontrivial = [p for p in autos if p != trivial]
    return nontrivial if nontrivial else autos
