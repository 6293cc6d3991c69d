import enum
import re

import pytest
from hypothesis import given, strategies as st

import reference
from gridirr import (
    Edge,
    Graph,
    GridSpec,
    InvalidEdgeError,
    InvalidParameterError,
    LabelingKind,
    ScopeError,
    Vertex,
    closed_form_strength,
    enumerate_windows,
    graph_from_elements,
    grid_bound_report,
    grid_dims,
    lower_bound,
    make_grid,
    require_window_scope,
    strength_report,
)
from gridirr.grid import canonical_order, column_slices, require_integers

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
    degrees = [sum(v in (e.a, e.b) for e in g.edges) for v in g.elements[: g.counts[0]]]
    assert set(degrees) <= {2, 3, 4}
    assert degrees.count(2) == 4


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2)])
def test_rejects_nonpositive_dimensions(m, n):
    with pytest.raises(InvalidParameterError):
        GridSpec(m, n)


def test_edge_reorders_its_ends():
    e = Edge(Vertex(2, 1), Vertex(1, 1))
    assert e == Edge(Vertex(1, 1), Vertex(2, 1))
    assert e.a == Vertex(1, 1)


def test_edge_keeps_ordered_ends():
    e = Edge(Vertex(1, 1), Vertex(1, 2))
    assert (e.a, e.b) == (Vertex(1, 1), Vertex(1, 2))


def test_edge_rejects_loop():
    with pytest.raises(InvalidEdgeError):
        Edge(Vertex(1, 1), Vertex(1, 1))


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


def test_edge_make_and_replace_canonicalize():
    assert Edge._make([Vertex(1, 2), Vertex(1, 1)]) == Edge(Vertex(1, 1), Vertex(1, 2))
    assert Edge._make([Vertex(1, 2), Vertex(1, 1)]).a == Vertex(1, 1)
    e = Edge(Vertex(1, 1), Vertex(1, 2))
    assert e._replace(a=Vertex(2, 2)) == Edge(Vertex(1, 2), Vertex(2, 2))
    with pytest.raises(InvalidEdgeError, match=r"^self-loop at \(1,1\)$"):
        e._replace(b=e.a)


@given(dims, dims)
def test_edge_canonicalization_is_stable(m, n):
    g = make_grid(GridSpec(m, n))
    for e in g.edges:
        assert Edge(e.a, e.b) == e
        assert Edge(e.b, e.a) == e


def test_grid_dims_roundtrip():
    assert grid_dims(make_grid(GridSpec(3, 7))) == (3, 7)


def test_grid_dims_of_an_empty_graph_is_rejected():
    with pytest.raises(InvalidParameterError, match="^graph has no vertices$"):
        grid_dims(Graph(vertices=frozenset(), edges=frozenset()))


def test_graph_from_elements_names_the_edge_outside_the_vertex_set():
    a, b = Vertex(1, 1), Vertex(1, 2)
    with pytest.raises(InvalidParameterError) as excinfo:
        graph_from_elements([a], [Edge(a, b)])
    assert str(excinfo.value) == (
        "edge (1,1)-(1,2) has an endpoint outside the vertex set"
    )


def test_window_scope_hint_suggests_transpose():
    with pytest.raises(ScopeError, match="swap m and n"):
        require_window_scope(5, 5, 2)
    with pytest.raises(ScopeError):
        require_window_scope(1, 2, 3)
    with pytest.raises(ScopeError):
        require_window_scope(2, 4, 3)
    require_window_scope(2, 2, 2)


def test_column_slices_cover_each_column_and_gap_of_make_grid():
    for m in range(2, 7):
        for n in range(2, 13):
            _check_column_slices(m, n)


def _check_column_slices(m, n):
    elements = make_grid(GridSpec(m, n)).elements
    positions = range(len(elements))
    columns, gaps = column_slices(m, n)
    assert (len(columns), len(gaps)) == (2 * m - 1, m)
    seen = []
    for rows, width in ((columns, n), (gaps, n - 1)):
        for row in rows:
            row = [pos for s in row for pos in positions[s]]
            assert len(row) == width, (m, n, row)
            seen += row
            for j, element in enumerate(map(elements.__getitem__, row), start=1):
                if rows is gaps:  # a horizontal edge from column j to j + 1
                    (i, q), (p, r) = element
                    assert (p, q, r) == (i, j, j + 1), (m, n, element)
                elif isinstance(element, Edge):  # a vertical edge in column j
                    (i, q), (p, r) = element
                    assert (q, r, p) == (j, j, i + 1), (m, n, element)
                else:
                    assert element.j == j, (m, n, element)
    assert sorted(seen) == list(positions)  # each position exactly once


def test_window_indices_select_the_reference_windows():
    for m in range(2, 13):
        for n in range(m, 13):
            grid = make_grid(GridSpec(m, n))
            elements = grid.elements
            for c in range(m, n + 1):
                indices = enumerate_windows(grid, c).indices
                assert len(indices) == n - c + 1
                for l, positions in enumerate(indices, start=1):
                    assert positions == tuple(sorted(set(positions)))
                    window = reference.window_subgraph(m, c, l)
                    assert {elements[pos] for pos in positions} == {
                        *window.vertices, *window.edges
                    }, (m, c, n, l)


# each entry point with the value under test in one integer parameter
INTEGER_PARAMETERS = {
    "GridSpec.m": ("m", lambda x: GridSpec(x, 3)),
    "GridSpec.n": ("n", lambda x: GridSpec(2, x)),
    "require_window_scope.m": ("m", lambda x: require_window_scope(x, 2, 3)),
    "require_window_scope.c": ("c", lambda x: require_window_scope(2, x, 3)),
    "require_window_scope.n": ("n", lambda x: require_window_scope(2, 2, x)),
    "lower_bound.t": ("t", lambda x: lower_bound(LabelingKind.VERTEX, x, 4, 4)),
    "lower_bound.vH": ("vH", lambda x: lower_bound(LabelingKind.TOTAL, 3, x, 4)),
    "lower_bound.eH": ("eH", lambda x: lower_bound(LabelingKind.EDGE, 3, 4, x)),
    "closed_form_strength.n": (
        "n", lambda x: closed_form_strength(LabelingKind.VERTEX, 2, x, 2)
    ),
    "grid_bound_report.n": (
        "n", lambda x: grid_bound_report(LabelingKind.EDGE, 2, 2, x)
    ),
    "strength_report.n": (
        "n", lambda x: strength_report(LabelingKind.VERTEX, 2, 2, x)
    ),
}


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=["True", "2.0", "str"])
@pytest.mark.parametrize("entry", sorted(INTEGER_PARAMETERS))
def test_integer_parameters_reject_bools_and_non_integers(entry, bad):
    what, call = INTEGER_PARAMETERS[entry]
    message = f"{what} must be an integer, got {bad!r}"
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        call(bad)


class Size(enum.IntEnum):
    TWO = 2


def test_require_integers_accepts_an_int_subclass_and_rejects_a_bool():
    """Exact ints take a shortcut; a subclass still passes and a bool fails."""
    require_integers(m=Size.TWO, n=3)
    GridSpec(Size.TWO, 3)
    with pytest.raises(InvalidParameterError, match="^m must be an integer, got True$"):
        require_integers(n=3, m=True)


def test_integers_out_of_range_keep_their_errors():
    with pytest.raises(InvalidParameterError, match="grid dimensions must be positive"):
        GridSpec(0, 3)
    with pytest.raises(ScopeError, match="2 <= m <= c <= n"):
        require_window_scope(1, 2, 3)
    with pytest.raises(InvalidParameterError, match="^member count must be >= 1, got 0$"):
        lower_bound(LabelingKind.VERTEX, 0, 4, 4)


def _hand_built_grid(m, n):
    """The m-by-n grid from its coordinates, through graph_from_elements."""
    vertices = [Vertex(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    edges = [Edge(v, Vertex(v.i + di, v.j + dj))
             for v in vertices for di, dj in ((0, 1), (1, 0))
             if v.i + di <= m and v.j + dj <= n]
    return graph_from_elements(vertices, edges)


def test_make_grid_makes_its_elements_when_first_read():
    for m in range(1, 7):
        for n in range(1, 7):
            spec = GridSpec(m, n)
            grid, hand = make_grid(spec), _hand_built_grid(m, n)
            assert vars(grid) == {"spec": spec}, (m, n)
            assert grid.counts == hand.counts == (m * n, 2 * m * n - m - n)
            assert [grid.element(pos) for pos in range(-len(hand.elements), 0)] == list(
                hand.elements
            )
            assert vars(grid) == {"spec": spec, "counts": hand.counts}, (m, n)
            assert grid.slices == column_slices(m, n) and grid.slices is grid.slices
            assert vars(grid) == {"spec": spec, "counts": hand.counts, "slices": grid.slices}
            assert grid.elements == hand.elements
            assert grid.elements == tuple(sorted(grid.elements, key=canonical_order))
            assert [grid.element(pos) for pos in range(len(hand.elements))] == list(
                hand.elements
            )
            assert grid.index == hand.index
            assert grid.vertices == hand.vertices and grid.edges == hand.edges
            assert grid.elements[: grid.counts[0]] == hand.elements[: hand.counts[0]]
            assert grid.elements[grid.counts[0] :] == hand.elements[hand.counts[0] :]
            assert grid == hand and hand == grid and hash(grid) == hash(hand)
            assert make_grid(spec) == hand and hash(make_grid(spec)) == hash(hand)
            assert grid_dims(make_grid(spec)) == grid_dims(hand) == (m, n)
            assert hand.spec is None
            for pos in (len(hand.elements), -len(hand.elements) - 1):
                with pytest.raises(IndexError):
                    make_grid(spec).element(pos)


def test_grids_with_a_spec_compare_their_specs():
    grid, same, other = make_grid(GridSpec(4, 40)), make_grid(GridSpec(4, 40)), make_grid(GridSpec(40, 4))
    assert grid == same and not grid != same
    assert grid != other and grid != make_grid(GridSpec(4, 41))
    for g in (grid, same, other):
        assert not hasattr(g, "foo")  # only vertices and edges are made on first read
        assert "elements" not in g.__dict__ and vars(g) == {"spec": g.spec}
    hand = _hand_built_grid(4, 40)  # sets compared, and hashed alike
    assert grid == hand and hand == grid and hash(grid) == hash(hand) == hash(same)
    assert hand != _hand_built_grid(4, 41) and grid != Graph(vertices=hand.vertices, edges=frozenset())
    assert grid != (grid.vertices, grid.edges) and grid.__eq__(grid.spec) is NotImplemented
