"""Sliding-window subgraph families and the edge-covering check.

An m-by-n grid is edge-covered by the n - c + 1 "windows" spanning columns
l .. l+c-1, each an m-by-c grid.  User-supplied families carry explicit
element sets and flow through the same verification and search paths as
enumerated windows.

There is one graph type: hosts and members are both
:class:`~gridirr.grid.Graph` (``Subgraph`` is another name for it), and
there is one integer indexing of elements, the host's canonical order
:attr:`~gridirr.grid.Graph.elements`.  The covering check here, the
weights in :mod:`gridirr.verify` and the oracle's tables in
:mod:`gridirr.search` all read members as the same sorted index tuples,
:attr:`CoverFamily.indices` (through :func:`member_indices` when the host
is not the family's own).

The family :func:`enumerate_windows` returns over a :func:`make_grid` host
is implicit: it keeps (m, c, n) and builds a window's element sets only
when a caller asks for that member.  Its covering check is answered from
(m, c, n), and :mod:`gridirr.verify` weighs it from column sums.

Every other family is explicit: truncated, reordered, loaded and
hand-built families alike.  An explicit family's members are sorted tuples
of indices into its host's :attr:`~gridirr.grid.Graph.elements`
(:attr:`CoverFamily.indices`).  A loaded family arrives in that form
(:class:`IndexedMembers`); a tuple of member graphs is indexed once, on
first need.  The covering check marks covered edges by index.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .errors import MalformedFamilyError
from .grid import (
    Edge,
    Graph,
    Vertex,
    canonical_order,
    format_element,
    grid_dims,
    require_window_scope,
)


Subgraph = Graph  # a family member is a plain Graph; the name stays public


class _LazyMembers(Sequence):
    """A read-only sequence standing for a tuple of member graphs:
    length, indexing, slicing (which returns a tuple), iteration and
    equality behave as on that tuple.  A member is built on first access,
    by the subclass's ``_build(pos)``, and kept: at most once per object."""

    def __init__(self, count: int) -> None:
        self._built: list[Optional[Graph]] = [None] * count

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Graph, tuple[Graph, ...]]:
        if isinstance(index, slice):
            return tuple(self[pos] for pos in range(len(self))[index])
        pos = range(len(self))[index]  # normalizes negatives, checks bounds
        member = self._built[pos]
        if member is None:
            member = self._build(pos)
            self._built[pos] = member
        return member

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, _LazyMembers)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class WindowMembers(_LazyMembers):
    """The n - c + 1 width-c windows of an m-row, n-column grid, in order:
    ``window_subgraph(m, c, l)`` for l = 1 .. n - c + 1.  Taking the length
    builds nothing."""

    def __init__(self, m: int, c: int, n: int) -> None:
        self.m, self.c, self.n = m, c, n
        super().__init__(n - c + 1)

    def _build(self, pos: int) -> Graph:
        return window_subgraph(self.m, self.c, pos + 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WindowMembers):
            # Windows of different shapes differ as element sets.
            return (self.m, self.c, self.n) == (other.m, other.c, other.n)
        return super().__eq__(other)

    __hash__ = _LazyMembers.__hash__

    def __repr__(self) -> str:
        return f"WindowMembers(m={self.m}, c={self.c}, n={self.n})"


class IndexedMembers(_LazyMembers):
    """Members as sorted tuples of indices into ``host.elements``, the
    form the family loader makes."""

    def __init__(self, host: Graph, indices: tuple[tuple[int, ...], ...]) -> None:
        self.host, self.indices = host, indices
        super().__init__(len(indices))

    def _build(self, pos: int) -> Graph:
        elements, member = self.host.elements, self.indices[pos]
        split = bisect_left(member, len(self.host.vertices))
        return Graph(
            vertices=frozenset(map(elements.__getitem__, member[:split])),
            edges=frozenset(map(elements.__getitem__, member[split:])),
        )


@dataclass(frozen=True)
class CoverFamily:
    """An ordered family of subgraphs claimed to edge-cover ``host``.

    Member indices are 1-based positions in ``members``; for enumerated
    window families, member l spans columns l .. l+c-1.  Members must be
    pairwise distinct as (vertex set, edge set) pairs; whether they cover
    the host is checked separately by :func:`is_edge_covering`.
    """

    host: Graph
    members: Sequence[Graph]

    def __post_init__(self) -> None:
        members = self.members
        if not members:
            raise MalformedFamilyError("a covering family needs >= 1 member")
        if isinstance(members, WindowMembers):
            return  # distinct by construction; checking would build them all
        keys = members.indices if isinstance(members, IndexedMembers) else members
        if len(set(keys)) != len(keys):
            raise MalformedFamilyError(
                "family members must be pairwise distinct element sets"
            )

    @property
    def t(self) -> int:
        return len(self.members)

    @property
    def window(self) -> Optional[tuple[int, int, int]]:
        """(m, c, n) when this is the width-c window family of its own
        :func:`make_grid` host, else None (an explicit family)."""
        members, spec = self.members, self.host.spec
        if (
            isinstance(members, WindowMembers)
            and spec is not None
            and (spec.m, spec.n) == (members.m, members.n)
        ):
            return members.m, members.c, members.n
        return None

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """:func:`index_members` of the host, computed once."""
        members = self.members
        if isinstance(members, IndexedMembers) and members.host is self.host:
            return members.indices
        return index_members(self.host, members)


def index_members(
    host: Graph, members: Sequence[Graph]
) -> tuple[tuple[int, ...], ...]:
    """Each member's elements as sorted indices into ``host.elements``.

    A member with an element outside the host raises
    :class:`MalformedFamilyError`, naming the first such member and, in
    it, the least such vertex, or else the least such edge.
    """
    index = host.index
    out = []
    for pos, member in enumerate(members, start=1):
        elements = (*member.vertices, *member.edges)
        found = [index.get(e) for e in elements]
        if None in found:
            element = min((e for e in elements if e not in index), key=canonical_order)
            what = "vertex" if isinstance(element, Vertex) else "edge"
            raise MalformedFamilyError(
                f"member {pos} contains {what} {format_element(element)} "
                f"not in the host"
            )
        out.append(tuple(sorted(found)))
    return tuple(out)


def window_subgraph(m: int, c: int, l: int) -> Graph:
    """The window spanning columns l .. l+c-1 of an m-row grid.

    Contains all m*c vertices in those columns, the vertical edges of every
    covered column, and the horizontal edges between consecutive covered
    columns: 2mc - m - c edges in total.
    """
    cols = range(l, l + c)
    vertices = [Vertex(i, j) for i in range(1, m + 1) for j in cols]
    edges: list[Edge] = []
    for j in cols:
        for i in range(1, m):
            edges.append(Edge(Vertex(i, j), Vertex(i + 1, j)))
    for j in range(l, l + c - 1):
        for i in range(1, m + 1):
            edges.append(Edge(Vertex(i, j), Vertex(i, j + 1)))
    return Graph(vertices=frozenset(vertices), edges=frozenset(edges))


def enumerate_windows(grid: Graph, c: int) -> CoverFamily:
    """All n - c + 1 column windows of width c, ordered left to right.

    ``grid`` must be an m-by-n grid graph (its dimensions come from the
    spec :func:`make_grid` records, or else from the vertex set);
    parameters must satisfy 2 <= m <= c <= n.  Members are built on demand
    (see :class:`WindowMembers`).
    """
    m, n = grid_dims(grid)
    require_window_scope(m, c, n)
    return CoverFamily(host=grid, members=WindowMembers(m, c, n))


@dataclass(frozen=True)
class CoveringCheck:
    """Outcome of :func:`is_edge_covering`.

    ``uncovered`` holds host edges missed by every member (sorted,
    nonempty exactly when ``covers`` is False).
    """

    covers: bool
    uncovered: tuple[Edge, ...]


def member_indices(
    host: Graph, family: CoverFamily
) -> tuple[tuple[int, ...], ...]:
    """The family's members as sorted indices into ``host.elements``:
    :attr:`CoverFamily.indices` when ``host`` is the family's own host,
    else :func:`index_members` against ``host``."""
    if host is family.host:
        return family.indices
    return index_members(host, family.members)


def is_edge_covering(host: Graph, family: CoverFamily) -> CoveringCheck:
    """Decide whether the family's edge sets jointly cover the host's.

    Raises :class:`MalformedFamilyError` if any member contains an element
    absent from the host (see :func:`index_members`).  A window family
    checked against its own host covers it by construction, which is
    answered without building members.
    """
    if host is family.host and family.window is not None:
        return CoveringCheck(covers=True, uncovered=())
    indices = member_indices(host, family)
    elements, first_edge = host.elements, len(host.vertices)
    covered = bytearray(len(elements))
    for member in indices:
        for pos in member[bisect_left(member, first_edge) :]:
            covered[pos] = 1
    uncovered = tuple(
        elements[pos]
        for pos in range(first_edge, len(elements))
        if not covered[pos]
    )
    return CoveringCheck(covers=not uncovered, uncovered=uncovered)


def require_covering(host: Graph, family: CoverFamily) -> None:
    """Raise :class:`MalformedFamilyError` unless the family covers host."""
    check = is_edge_covering(host, family)
    if not check.covers:
        missed = check.uncovered[0]
        raise MalformedFamilyError(
            f"family does not cover the host: edge "
            f"{format_element(missed)} belongs to no member"
        )
