import numpy as np
import pytest

from owalk import (
    BUILTIN_NAMES,
    OrientedGraph,
    build_graph,
    builtin_example,
    is_connected,
    parse_graph,
    serialize_graph,
)
from owalk.errors import (
    DuplicateEdgeError,
    GraphParseError,
    InputError,
    SelfLoopError,
    UnknownExampleError,
    VertexOutOfRangeError,
)

from conftest import random_oriented_graph


def test_adjacency_skew_symmetric_k3(k3):
    a = k3.adjacency
    assert a.shape == (3, 3)
    assert (a == -a.T).all()
    assert a[0, 1] == 1 and a[1, 0] == -1  # edge 0 -> 1


def test_adjacency_entries_random(rng):
    for _ in range(25):
        g = random_oriented_graph(rng, int(rng.integers(1, 9)))
        a = g.adjacency
        assert (a == -a.T).all()
        assert set(np.unique(a)) <= {-1, 0, 1}
        assert (np.diag(a) == 0).all()


def test_edges_stored_sorted():
    g = build_graph(4, [(3, 2), (0, 1), (1, 3)])
    assert g.edges == ((0, 1), (1, 3), (3, 2))


def test_adjacency_is_read_only(k3):
    with pytest.raises(ValueError):
        k3.adjacency[0, 1] = 5


def test_graph_equality_and_hash():
    g1 = build_graph(3, [(0, 1), (1, 2)])
    g2 = build_graph(3, [(1, 2), (0, 1)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != build_graph(3, [(1, 0), (1, 2)])


def test_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])


def test_rejects_duplicate_edge_both_directions():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(2, [(-1, 0)])


def test_is_connected():
    assert is_connected(build_graph(3, [(0, 1), (2, 1)]))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(0, []))
    assert not is_connected(build_graph(2, []))


def test_parse_round_trip(k3, irrational5, mst8):
    for g in (k3, irrational5, mst8):
        assert parse_graph(serialize_graph(g)) == g


def test_parse_comments_and_blank_lines():
    text = "# a triangle\nn 3\n\ne 0 1  # first\ne 1 2\ne 2 0\n"
    assert parse_graph(text) == builtin_example("k3")


def test_parse_errors_name_the_line():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("e 0 1\n")
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("n 2\nq 0 1\n")
    with pytest.raises(GraphParseError, match="missing n"):
        parse_graph("# nothing\n")
    with pytest.raises(GraphParseError):
        parse_graph("n two\n")


def test_builtin_names():
    assert BUILTIN_NAMES == ("irrational5", "k3", "mst8")
    with pytest.raises(UnknownExampleError):
        builtin_example("petersen")


def test_builtin_shapes(k3, irrational5, mst8):
    assert (k3.n, len(k3.edges)) == (3, 3)
    assert (irrational5.n, len(irrational5.edges)) == (5, 7)
    assert (mst8.n, len(mst8.edges)) == (8, 24)


def test_graph_is_immutable(k3):
    with pytest.raises(AttributeError):
        k3.n = 5


def test_repr_mentions_size(k3):
    assert "3" in repr(k3)


def test_isolated_vertex_allowed():
    g = build_graph(3, [(0, 1)])
    assert not g.adjacency[2].any()
    assert isinstance(g, OrientedGraph)


@pytest.mark.parametrize("n", [10**8, 10**10])
def test_unallocatable_vertex_count_is_an_input_error(n):
    # the n x n adjacency matrix would take 8e16 bytes or more; numpy
    # refuses it before touching memory (past 2^63 bytes it cannot even
    # state the size), and the error names the vertex count
    with pytest.raises(InputError, match=str(n)):
        build_graph(n, [])


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, [(0, 1.9)]),  # int() would truncate it to the edge (0, 1)
        (3, [("0", "2")]),  # int() would parse it as the edge (0, 2)
        (2.0, [(0, 1)]),  # numpy refuses a float shape with a bare TypeError
        (3, [(0, 1, 2)]),  # unpacking refuses it with a bare ValueError
    ],
)
def test_non_integer_input_is_an_input_error(n, edges):
    with pytest.raises(InputError, match="not an integer|not a pair of integers"):
        build_graph(n, edges)


def test_numpy_integers_and_bools_are_vertices():
    g = build_graph(np.int64(3), [(np.int32(0), True), (np.uint8(1), 2)])
    assert g == build_graph(3, [(0, 1), (1, 2)])
    assert type(g.n) is int
    assert all(type(x) is int for edge in g.edges for x in edge)
