"""Oriented graphs and their skew-symmetric adjacency matrices.

An oriented graph assigns a direction to every edge of a simple graph.
Its adjacency matrix A has A[u][v] = +1 when the edge runs u -> v,
A[v][u] = -1, and 0 elsewhere, so A is skew-symmetric with entries in
{-1, 0, +1} and zero diagonal.

Graph file grammar (one directive per line, ``#`` starts a comment):

    n <vertex-count>
    e <tail> <head>

The ``n`` line must come before any ``e`` line.  Serialization emits the
edge list sorted lexicographically by (tail, head).  A graph is a frozen value, equal
by (n, edges); copies and pickles rebuild it through its constructor's checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    GraphParseError,
    InputError,
    SelfLoopError,
    UnknownExampleError,
    VertexOutOfRangeError,
)

__all__ = [
    "OrientedGraph",
    "build_graph",
    "is_connected",
    "parse_graph",
    "serialize_graph",
    "builtin_example",
    "BUILTIN_NAMES",
]


@dataclass(frozen=True, slots=True)
class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1.

    ``edges`` holds the oriented edges (tail, head) sorted lexicographically, and
    ``adjacency`` the read-only skew-symmetric matrix with entries in {-1, 0, 1}.
    ``n`` and every endpoint are read through ``operator.index``, so a float, a
    string or an edge that is not a pair raises InputError.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
        except TypeError:
            raise InputError(f"vertex count {self.n!r} is not an integer") from None
        if n < 0:
            raise VertexOutOfRangeError(f"vertex count must be nonnegative, got {n}")
        pairs: dict[frozenset[int], tuple[int, int]] = {}  # {u, v} -> (u, v)
        for edge in self.edges:
            try:
                u, v = map(operator.index, edge)
            except (TypeError, ValueError):  # ValueError: not two endpoints
                raise InputError(f"edge {edge!r} is not a pair of integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(
                    f"edge ({u}, {v}) leaves the vertex range [0, {n})"
                )
            if u == v:
                raise SelfLoopError(f"edge ({u}, {v}) is a self loop")
            key = frozenset((u, v))
            if key in pairs:
                raise DuplicateEdgeError(
                    f"vertex pair {{{min(u, v)}, {max(u, v)}}} appears more than once"
                )
            pairs[key] = u, v
        try:
            a = np.zeros((n, n), dtype=np.int64)
        except (MemoryError, ValueError):  # ValueError: past numpy's largest array size
            raise InputError(
                f"the {n} x {n} adjacency matrix of n = {n} vertices cannot be allocated"
            ) from None
        for u, v in pairs.values():
            a[u, v], a[v, u] = 1, -1
        a.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(pairs.values())))
        object.__setattr__(self, "adjacency", a)

    def __reduce__(self):
        return OrientedGraph, (self.n, self.edges)

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, edges={list(self.edges)})"


def _check_vertex(n: int, *vertices: int) -> None:
    """Refuse a vertex index outside [0, n), which numpy would wrap or fail on."""
    for v in vertices:
        if not 0 <= v < n:
            raise VertexOutOfRangeError(f"vertex {v} out of range for n = {n}")


def build_graph(n: int, edges: Sequence[tuple[int, int]]) -> OrientedGraph:
    """Validate and build an oriented graph from an edge list."""
    return OrientedGraph(n, edges)


def is_connected(g: OrientedGraph) -> bool:
    """True when the underlying undirected graph is connected.

    Vacuously true for graphs with at most one vertex.
    """
    return len(_components(g)) <= 1


def _components(g: OrientedGraph) -> list[list[int]]:
    """Connected components, each in breadth-first order from its least vertex.

    Neighbors are visited in increasing order.  Flattened, this is the base
    of the automorphism search: every vertex but a component's first has a
    neighbor earlier in the order.
    """
    rows, cols = np.nonzero(g.adjacency)  # row-major: each row's neighbors ascending
    bounds = np.searchsorted(rows, np.arange(g.n + 1)).tolist()
    cols = cols.tolist()
    seen = [False] * g.n
    components = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for u in order:
            for w in cols[bounds[u] : bounds[u + 1]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        components.append(order)
    return components


def parse_graph(text: str) -> OrientedGraph:
    """Parse graph file text into an :class:`OrientedGraph`."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise GraphParseError(f"line {lineno}: repeated n directive")
            if len(fields) != 2:
                raise GraphParseError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: vertex count {fields[1]!r} is not an integer"
                ) from None
            if n < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
        elif fields[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: e directive before n")
            if len(fields) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e <tail> <head>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(
                    f"line {lineno}: edge endpoints must be integers"
                ) from None
            edges.append((u, v))
        else:
            raise GraphParseError(
                f"line {lineno}: unknown directive {fields[0]!r}"
            )
    if n is None:
        raise GraphParseError("missing n directive")
    return OrientedGraph(n, edges)


def serialize_graph(g: OrientedGraph) -> str:
    """Render a graph as file text with edges sorted by (tail, head)."""
    lines = [f"n {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _mst8_edges() -> list[tuple[int, int]]:
    edges = [(x, y) for x in (0, 1, 6, 7) for y in (2, 3, 4, 5)]
    edges += [(6, 0), (0, 7), (7, 1), (1, 6)]
    edges += [(4, 2), (2, 5), (5, 3), (3, 4)]
    return edges


_BUILTINS: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "k3": (3, [(0, 1), (1, 2), (2, 0)]),
    "irrational5": (5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
    "mst8": (8, _mst8_edges()),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_example(name: str) -> OrientedGraph:
    """Return a named builtin example graph.

    Available names: ``k3`` (cyclically oriented triangle), ``irrational5``
    (five vertices, seven edges, irrational transfer time), ``mst8``
    (eight vertices, 24 edges, four-vertex multiple state transfer).
    """
    try:
        n, edges = _BUILTINS[name]
    except KeyError:
        raise UnknownExampleError(
            f"unknown example {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return OrientedGraph(n, edges)
