"""Sliding-window subgraph families and the edge-covering check.

An m-by-n grid is edge-covered by the n - c + 1 "windows" spanning columns
l .. l+c-1, each an m-by-c grid.  User-supplied families carry explicit
element sets and flow through the same verification and search paths as
enumerated windows.

The family :func:`enumerate_windows` returns over a :func:`make_grid` host
is implicit: it keeps (m, c, n) and builds a window's element sets only
when a caller asks for that member.  Its covering check is answered from
(m, c, n), and :mod:`gridirr.verify` weighs it from column sums.  Every
other family, including truncated, reordered or loaded copies of a window
family, is explicit and takes the generic paths, which stay the reference.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

from .errors import MalformedFamilyError
from .grid import (
    Edge,
    Graph,
    Vertex,
    format_element,
    grid_dims,
    require_window_scope,
)


@dataclass(frozen=True)
class Subgraph:
    """Explicit vertex and edge sets of one covering-family member."""

    vertices: frozenset[Vertex]
    edges: frozenset[Edge]

    def sorted_vertices(self) -> list[Vertex]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


class WindowMembers(Sequence):
    """The n - c + 1 width-c windows of an m-row, n-column grid, in order.

    A read-only sequence standing for the tuple of
    ``window_subgraph(m, c, l)`` for l = 1 .. n - c + 1: length, indexing,
    slicing (which returns a tuple), iteration and equality behave as on
    that tuple.  Taking the length builds nothing; a window is built on
    first access and kept, so at most once per object.
    """

    def __init__(self, m: int, c: int, n: int) -> None:
        self.m, self.c, self.n = m, c, n
        self._built: list[Optional[Subgraph]] = [None] * (n - c + 1)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Subgraph, tuple[Subgraph, ...]]:
        if isinstance(index, slice):
            return tuple(self[pos] for pos in range(len(self))[index])
        pos = range(len(self))[index]  # normalizes negatives, checks bounds
        member = self._built[pos]
        if member is None:
            member = window_subgraph(self.m, self.c, pos + 1)
            self._built[pos] = member
        return member

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WindowMembers):
            # Windows of different shapes differ as element sets.
            return (self.m, self.c, self.n) == (other.m, other.c, other.n)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"WindowMembers(m={self.m}, c={self.c}, n={self.n})"


@dataclass(frozen=True)
class CoverFamily:
    """An ordered family of subgraphs claimed to edge-cover ``host``.

    Member indices are 1-based positions in ``members``; for enumerated
    window families, member l spans columns l .. l+c-1.  Members must be
    pairwise distinct as (vertex set, edge set) pairs; whether they cover
    the host is checked separately by :func:`is_edge_covering`.
    """

    host: Graph
    members: Sequence[Subgraph]

    def __post_init__(self) -> None:
        if not self.members:
            raise MalformedFamilyError("a covering family needs >= 1 member")
        if isinstance(self.members, WindowMembers):
            return  # distinct by construction; checking would build them all
        if len(set(self.members)) != len(self.members):
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


def window_subgraph(m: int, c: int, l: int) -> Subgraph:
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
    return Subgraph(vertices=frozenset(vertices), edges=frozenset(edges))


def enumerate_windows(grid: Graph, c: int) -> CoverFamily:
    """All n - c + 1 column windows of width c, ordered left to right.

    ``grid`` must be an m-by-n grid graph (its dimensions come from the
    spec :func:`make_grid` records, or else from the vertex set);
    parameters must satisfy 2 <= m <= c <= n.  Members are built on demand
    (see :class:`WindowMembers`).
    """
    spec = grid.spec
    m, n = grid_dims(grid) if spec is None else (spec.m, spec.n)
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


def is_edge_covering(host: Graph, family: CoverFamily) -> CoveringCheck:
    """Decide whether the family's edge sets jointly cover the host's.

    Raises :class:`MalformedFamilyError` if any member contains an element
    absent from the host.  A window family checked against its own host
    covers it by construction, which is answered without building members.
    """
    if host is family.host and family.window is not None:
        return CoveringCheck(covers=True, uncovered=())
    for idx, member in enumerate(family.members, start=1):
        for v in member.vertices:
            if v not in host.vertices:
                raise MalformedFamilyError(
                    f"member {idx} contains vertex {format_element(v)} "
                    f"not in the host"
                )
        for e in member.edges:
            if e not in host.edges:
                raise MalformedFamilyError(
                    f"member {idx} contains edge {format_element(e)} "
                    f"not in the host"
                )
    covered: set[Edge] = set()
    for member in family.members:
        covered.update(member.edges)
    uncovered = tuple(sorted(host.edges - covered))
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
