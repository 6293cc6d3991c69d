import pytest
from hypothesis import given, strategies as st

from gridirr import (
    Edge,
    GridSpec,
    InvalidEdgeError,
    InvalidParameterError,
    ScopeError,
    Vertex,
    canonical_edge,
    grid_dims,
    make_grid,
    require_window_scope,
    transpose,
)

dims = st.integers(min_value=1, max_value=9)


@pytest.mark.parametrize(
    "m,n,vcount,ecount",
    [(2, 3, 6, 7), (2, 2, 4, 4), (3, 5, 15, 22), (1, 1, 1, 0), (1, 4, 4, 3)],
)
def test_element_counts(m, n, vcount, ecount):
    g = make_grid(GridSpec(m, n))
    assert len(g.vertices) == vcount
    assert len(g.edges) == ecount


@given(dims, dims)
def test_count_formulas(m, n):
    g = make_grid(GridSpec(m, n))
    assert len(g.vertices) == m * n
    assert len(g.edges) == 2 * m * n - m - n


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7))
def test_degrees(m, n):
    g = make_grid(GridSpec(m, n))
    degrees = [sum(v in (e.a, e.b) for e in g.edges) for v in g.sorted_vertices()]
    assert set(degrees) <= {2, 3, 4}
    assert degrees.count(2) == 4


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2)])
def test_rejects_nonpositive_dimensions(m, n):
    with pytest.raises(InvalidParameterError):
        GridSpec(m, n)


def test_canonical_edge_reorders():
    e = canonical_edge(Vertex(2, 1), Vertex(1, 1))
    assert e == Edge(Vertex(1, 1), Vertex(2, 1))
    assert e.a == Vertex(1, 1)


def test_canonical_edge_already_canonical():
    e = canonical_edge(Vertex(1, 1), Vertex(1, 2))
    assert (e.a, e.b) == (Vertex(1, 1), Vertex(1, 2))


def test_canonical_edge_rejects_diagonal():
    with pytest.raises(InvalidEdgeError):
        canonical_edge(Vertex(1, 1), Vertex(2, 2))


def test_canonical_edge_rejects_loop():
    with pytest.raises(InvalidEdgeError):
        canonical_edge(Vertex(1, 1), Vertex(1, 1))


def test_edge_is_its_coordinate_key():
    e = Edge(Vertex(1, 2), Vertex(1, 1))
    key = ((1, 1), (1, 2))
    assert e == key and hash(e) == hash(key)
    assert Vertex(2, 3) == (2, 3) and hash(Vertex(2, 3)) == hash((2, 3))
    host = make_grid(GridSpec(2, 3))
    assert host.index[e] == host.index[key] == host.elements.index(e)
    assert host.index[Vertex(2, 3)] == host.index[(2, 3)] == 5


def test_edge_repr_and_self_loop_message():
    e = Edge(Vertex(1, 2), Vertex(1, 1))
    assert repr(e) == "Edge(a=Vertex(i=1, j=1), b=Vertex(i=1, j=2))"
    with pytest.raises(InvalidEdgeError, match=r"^self-loop at \(1,1\)$"):
        Edge(Vertex(1, 1), Vertex(1, 1))


@given(dims, dims)
def test_edge_canonicalization_is_stable(m, n):
    g = make_grid(GridSpec(m, n))
    for e in g.edges:
        assert canonical_edge(e.a, e.b) == e
        assert canonical_edge(e.b, e.a) == e
        assert Edge(e.b, e.a) == e


def test_grid_dims_roundtrip():
    assert grid_dims(make_grid(GridSpec(3, 7))) == (3, 7)


def test_transpose_swaps_dims():
    g = make_grid(GridSpec(2, 5))
    assert transpose(g) == make_grid(GridSpec(5, 2))
    assert transpose(transpose(g)) == g


def test_window_scope_hint_suggests_transpose():
    with pytest.raises(ScopeError, match="swap m and n"):
        require_window_scope(5, 5, 2)
    with pytest.raises(ScopeError):
        require_window_scope(1, 2, 3)
    with pytest.raises(ScopeError):
        require_window_scope(2, 4, 3)
    require_window_scope(2, 2, 2)
