"""Sliding-window subgraph families and the edge-covering check.

An m-by-n grid is edge-covered by the n - c + 1 "windows" spanning columns
l .. l+c-1, each an m-by-c grid.  User-supplied families carry explicit
element sets and flow through the same verification and search paths as
enumerated windows.

There is one graph type: hosts and members are both
:class:`~gridirr.grid.Graph`, and there is one integer indexing of
elements, the host's canonical order :attr:`~gridirr.grid.Graph.elements`.
The covering check here, the weights in :mod:`gridirr.verify` and the
oracle's tables in :mod:`gridirr.search` all read members as the same
sorted index tuples, :attr:`CoverFamily.indices` (through
:func:`member_indices` when the host is not the family's own).

Window and loaded families arrive as index tuples, held by the one
members class :class:`Members`: window l's tuple is
:func:`~gridirr.grid.window_positions` of (m, c, n, l), a loaded member's
the tuple the loader made.  A member graph is built only when a caller
asks for that member.  The family :func:`enumerate_windows` returns over
a :func:`make_grid` host is implicit: its covering check is answered from
(m, c, n), and :mod:`gridirr.verify` weighs it from column sums.

Every other family is explicit: truncated, reordered, loaded and
hand-built families alike.  The covering check takes the members' index
tuples from the set of the host's edge positions, making an element only
to name a missed edge; a tuple of member graphs is indexed once, on
first need.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from .errors import MalformedFamilyError
from .grid import (
    Edge,
    Graph,
    GridSpec,
    Vertex,
    canonical_order,
    format_element,
    grid_dims,
    make_grid,
    require_positive,
    require_window_scope,
    window_positions,
)


class Members(Sequence):
    """A read-only sequence standing for the tuple of member graphs (slices
    are tuples).  Member ``pos`` is the graph of ``host.elements`` at the
    sorted index tuple ``positions(pos)``, built on first access and kept.
    ``window`` is (m, c, n) for the width-c windows of the m-by-n grid."""

    def __init__(
        self,
        host: Graph,
        count: int,
        positions: Callable[[int], tuple[int, ...]],
        window: Optional[tuple[int, int, int]] = None,
    ) -> None:
        self.host, self.positions, self.window = host, positions, window
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
            elements, at = self.host.elements, self.positions(pos)
            split = bisect_left(at, self.host.counts[0])
            member = self._built[pos] = Graph(
                vertices=frozenset(map(elements.__getitem__, at[:split])),
                edges=frozenset(map(elements.__getitem__, at[split:])),
            )
        return member

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, Members)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


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
        if isinstance(members, Members):
            if members.window is not None:
                return  # distinct by construction; checking would make them all
            members = index_members(members.host, members)
        if len(set(members)) != len(members):
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
        window = members.window if isinstance(members, Members) else None
        if window is None or spec is None or (spec.m, spec.n) != window[::2]:
            return None  # window[::2] is (m, n)
        return window

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """:func:`index_members` of the host, computed once."""
        return index_members(self.host, self.members)


def index_members(
    host: Graph, members: Sequence[Graph]
) -> tuple[tuple[int, ...], ...]:
    """Each member's elements as sorted indices into ``host.elements``:
    the members' own tuples when they are :class:`Members` of an equal host.

    A member with an element outside the host raises
    :class:`MalformedFamilyError`, naming the first such member and, in
    it, the least such vertex, or else the least such edge.
    """
    if isinstance(members, Members) and (members.host is host or members.host == host):
        return tuple(map(members.positions, range(len(members))))
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
    require_positive(m=m, c=c, l=l)
    n = l + c - 1  # the narrowest grid holding the window
    host = make_grid(GridSpec(m, n))
    return Members(host, 1, lambda _: window_positions(m, c, n, l))[0]


def enumerate_windows(grid: Graph, c: int) -> CoverFamily:
    """All n - c + 1 column windows of width c, ordered left to right.

    ``grid`` must be an m-by-n grid graph (its dimensions come from the
    spec :func:`make_grid` records, or else from the vertex set);
    parameters must satisfy 2 <= m <= c <= n.  Members are built on demand
    (see :class:`Members`), from the elements of ``grid``, or of
    :func:`make_grid` when ``grid`` records no spec.
    """
    m, n = grid_dims(grid)
    require_window_scope(m, c, n)
    host = grid if grid.spec is not None else make_grid(GridSpec(m, n))
    members = Members(
        host, n - c + 1, lambda pos: window_positions(m, c, n, pos + 1), (m, c, n)
    )
    return CoverFamily(host=grid, members=members)


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
    first_edge, edges = host.counts
    missed = {*range(first_edge, first_edge + edges)}.difference(*member_indices(host, family))
    uncovered = tuple(map(host.element, sorted(missed)))
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
