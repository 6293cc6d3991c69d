"""Grid graphs and generic finite simple graphs with exact element identity.

A grid graph has m rows and n columns of vertices; vertex (i, j) sits in
row i (1-based) and column j (1-based).  Edges join orthogonal neighbours:
vertical edges (i, j)-(i+1, j) and horizontal edges (i, j)-(i, j+1).

Elements are their coordinate keys: a :class:`Vertex` equals and hashes
as (i, j), an :class:`Edge` as ((i, j), (p, q)) with endpoints in order.
:func:`canonical_order` sorts vertices row-major, then edges.  A
:func:`make_grid` graph holds only its spec until its elements are read;
it makes them in that order, without sorting, and :meth:`Graph.element`
gives one from its position alone.  Through the rows of
:func:`column_slices`, made once per such graph as :attr:`Graph.slices`,
the constructions write labels at those positions, the verifier sums
window weights and :func:`window_positions` reads a window's positions.

The same ``Graph`` container also serves arbitrary simple graphs: vertex
identities stay (i, j) pairs, with non-grid inputs conventionally embedded
in a single row (i = 1, j = ordinal).  ``Edge`` accepts any pair of
distinct vertices, grid-adjacent or not, so user-supplied hosts round-trip
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, count, islice, repeat
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .errors import InvalidEdgeError, InvalidParameterError, ScopeError


class Vertex(NamedTuple):
    """Grid vertex at row ``i``, column ``j`` (both 1-based).

    Tuple ordering gives the row-major canonical order used everywhere:
    (1,1), (1,2), ..., (2,1), ...
    """

    i: int
    j: int


class _EdgeFields(NamedTuple):
    a: Vertex
    b: Vertex


class Edge(_EdgeFields):
    """Unordered vertex pair stored with endpoints in row-major order.

    Construction canonicalizes: ``Edge(b, a) == Edge(a, b)``.  Self-loops
    are rejected; adjacency is not checked here (general graphs may carry
    non-grid edges).
    """

    __slots__ = ()

    def __new__(cls, a: Vertex, b: Vertex) -> Edge:
        if a == b:
            raise InvalidEdgeError(f"self-loop at {format_element(a)}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable: Iterable[Vertex]) -> Edge:  # _replace calls it too
        return cls(*iterable)


Element = Union[Vertex, Edge]


def canonical_order(element: Element) -> tuple:
    """Sort key of the canonical element order: vertices row-major, then
    edges by endpoints."""
    return (isinstance(element, Edge), element)


def format_element(element: Element) -> str:
    """Compact rendering: ``(i,j)`` for vertices, ``(i,j)-(i,j)`` for edges."""
    if isinstance(element, Vertex):
        return f"({element.i},{element.j})"
    return f"({element.a.i},{element.a.j})-({element.b.i},{element.b.j})"


def require_integers(**values: object) -> None:
    """The one type check of the integer parameters: a bool or another
    non-integer value raises :class:`InvalidParameterError`."""
    for what, value in values.items():
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise InvalidParameterError(f"{what} must be an integer, got {value!r}")


def require_positive(**values: object) -> None:
    """Require integers >= 1; never clamp or read a bad value as a limit hit."""
    require_integers(**values)
    for what, value in values.items():
        if value < 1:
            raise InvalidParameterError(f"{what} must be >= 1, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Shape of a grid graph: ``m`` rows by ``n`` columns.

    Any m, n >= 1 is representable; the window constructions additionally
    require 2 <= m <= c <= n and enforce that separately.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        require_integers(m=self.m, n=self.n)
        if self.m < 1 or self.n < 1:
            raise InvalidParameterError(
                f"grid dimensions must be positive, got m={self.m}, n={self.n}"
            )


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: a vertex set and an edge set.

    ``spec`` is set only by :func:`make_grid`, so a graph that carries one
    is exactly that full grid; hand-built graphs carry None even when they
    equal a grid.  Two graphs with a spec compare their specs, other pairs
    (and hashes) their sets.  Such a graph holds only the spec until its
    elements are first read.

    Every element has one integer index, its position in :attr:`elements`
    (in :func:`canonical_order`); :attr:`index` maps elements, or their
    plain coordinate keys, back to it.
    """

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    spec: Optional[GridSpec] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str) -> frozenset:
        """The vertex and edge sets of a grid with a spec, made on first read."""
        if self.spec is None or name not in ("vertices", "edges"):
            raise AttributeError(name)
        split = self.spec.m * self.spec.n
        object.__setattr__(self, "vertices", frozenset(self.elements[:split]))
        object.__setattr__(self, "edges", frozenset(self.elements[split:]))
        return getattr(self, name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.spec is not None and other.spec is not None:
            return self.spec == other.spec
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in :func:`canonical_order`; a grid with a spec makes
        them in that order (see :func:`_grid_order`)."""
        if self.spec is None:
            return tuple(sorted((*self.vertices, *self.edges), key=canonical_order))
        return tuple(_grid_order(self.spec, Vertex._make, partial(map, Edge)))

    @cached_property
    def index(self) -> dict:
        """Element -> index in :attr:`elements`.  Elements equal their plain
        coordinates, so those look up too."""
        return dict(zip(self.elements, count()))

    @cached_property
    def counts(self) -> tuple[int, int]:
        """The numbers of vertices and edges, from the spec if there is one."""
        if self.spec is None:
            return len(self.vertices), len(self.edges)
        m, n = self.spec.m, self.spec.n
        return m * n, 2 * m * n - m - n

    @cached_property
    def slices(self) -> tuple[list, list]:
        """:func:`column_slices` of a grid with a spec, made once; not to be mutated."""
        return column_slices(self.spec.m, self.spec.n)

    def element(self, pos: int) -> Element:
        """``elements[pos]``, of a spec from a formula, making no other element."""
        if self.spec is None:
            return self.elements[pos]
        m, n = self.spec.m, self.spec.n
        pos = range(sum(self.counts))[pos]  # negatives count from the end
        if pos < m * n:
            return Vertex(pos // n + 1, pos % n + 1)
        # rows 1 .. m-1: per vertex its horizontal, then vertical edge; row m: horizontal
        i, q = divmod(pos - m * n, 2 * n - 1)
        j, down = (q, 0) if i == m - 1 else divmod(q, 2)
        down = down or j == n - 1
        return Edge(Vertex(i + 1, j + 1), Vertex(i + 1 + down, j + 2 - down))


def _grid_order(spec: GridSpec, vertex: Callable, pairs: Callable) -> list:
    """The elements of the spec's grid in canonical order, each vertex made
    by ``vertex((i, j))`` and each row of edges by ``pairs(ends, far_ends)``:
    the vertices row-major, then from each vertex the horizontal edge (whose
    far end sorts first) and the vertical one."""
    rows = [
        list(map(vertex, zip(repeat(i), range(1, spec.n + 1))))
        for i in range(1, spec.m + 1)
    ]
    order = [v for row in rows for v in row]
    for row, below in zip(rows, rows[1:]):
        order += chain.from_iterable(zip(pairs(row, row[1:]), pairs(row, below)))
        order += pairs(row[-1:], below[-1:])  # the last column has no horizontal edge
    order += pairs(rows[-1], rows[-1][1:])
    return order


def graph_from_elements(
    vertices: Iterable[Vertex], edges: Iterable[Edge]
) -> Graph:
    """Build a :class:`Graph`, checking every edge endpoint is a vertex."""
    vset = frozenset(vertices)
    eset = frozenset(edges)
    for e in eset:
        if e.a not in vset or e.b not in vset:
            raise InvalidParameterError(
                f"edge {format_element(e)} has an endpoint outside the vertex set"
            )
    return Graph(vertices=vset, edges=eset)


def make_grid(spec: GridSpec) -> Graph:
    """Construct the grid graph with ``spec.m`` rows and ``spec.n`` columns.

    The result has m*n vertices and 2mn - m - n edges: vertical edges
    (i, j)-(i+1, j) for i < m, horizontal edges (i, j)-(i, j+1) for j < n.
    The graph records ``spec`` and nothing else: its element sets,
    :attr:`Graph.elements` and :attr:`Graph.index` are made when first
    read.  The spec lets window families over it take the fast paths in
    :mod:`gridirr.covering` and :mod:`gridirr.verify`.
    """
    graph = object.__new__(Graph)
    object.__setattr__(graph, "spec", spec)
    return graph


def column_slices(m: int, n: int) -> tuple[list, list]:
    """Where the columns and gaps of the m-by-n grid sit in the
    :attr:`Graph.elements` of :func:`make_grid`, row by row.

    Each row is a pair of slices of those elements; its j-th position,
    counting through both slices, lies in column j (``columns``: the
    vertex rows, then the rows of vertical edges) or in the gap from
    column j to j + 1 (``gaps``: the rows of horizontal edges).
    """
    edge, row = m * n, 2 * n - 1  # first edge position, edges a row adds
    last = edge + (m - 1) * row  # first edge of the last row
    starts, empty = range(edge, last, row), slice(0)
    columns = [(slice(i, i + n), empty) for i in range(0, edge, n)]
    for s in starts:  # vertical edges of columns 1 .. n - 1, then column n
        columns.append((slice(s + 1, s + row - 1, 2), slice(s + row - 1, s + row)))
    gaps = [(slice(s, s + row - 1, 2), empty) for s in starts]
    gaps.append((slice(last, last + n - 1), empty))
    return columns, gaps


def window_positions(m: int, c: int, n: int, l: int) -> tuple[int, ...]:
    """The sorted positions, in the :attr:`Graph.elements` of
    :func:`make_grid`, of the window spanning columns l .. l+c-1 of the
    m-by-n grid: from each row of :func:`column_slices`, the positions of
    columns l .. l+c-1, or of gaps l .. l+c-2."""
    positions = range(3 * m * n - m - n)  # vertices, then edges
    columns, gaps = column_slices(m, n)
    window: list[int] = []
    for rows, width in ((columns, c), (gaps, c - 1)):
        for a, b in rows:
            window += islice(chain(positions[a], positions[b]), l - 1, l - 1 + width)
    return tuple(sorted(window))


def grid_dims(graph: Graph) -> tuple[int, int]:
    """Bounding dimensions (max row, max column) of a nonempty graph.

    For graphs built by :func:`make_grid` this is (m, n), read from the
    recorded spec without a scan.
    """
    if graph.spec is not None:
        return graph.spec.m, graph.spec.n
    if not graph.vertices:
        raise InvalidParameterError("graph has no vertices")
    return (
        max(v.i for v in graph.vertices),
        max(v.j for v in graph.vertices),
    )


def require_window_scope(m: int, c: int, n: int) -> None:
    """Enforce the supported window-parameter range 2 <= m <= c <= n."""
    require_integers(m=m, c=c, n=n)
    if not (2 <= m <= c <= n):
        hint = ""
        if m > n:
            hint = f" (hint: transpose the grid, i.e. swap m and n: m={n}, n={m})"
        raise ScopeError(
            f"window parameters must satisfy 2 <= m <= c <= n, "
            f"got m={m}, c={c}, n={n}{hint}"
        )
