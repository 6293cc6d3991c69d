"""Sliding-window subgraph families and the edge-covering check.

An m-by-n grid is edge-covered by the n - c + 1 "windows" spanning columns
l .. l+c-1, each an m-by-c grid.  User-supplied families carry explicit
element sets and flow through the same verification and search paths as
enumerated windows.

There is one graph type: hosts and members are both
:class:`~gridirr.grid.Graph`, and there is one integer indexing of
elements, the host's canonical order :attr:`~gridirr.grid.Graph.elements`.
There is one family representation: a :class:`CoverFamily` holds its
host and one sorted index tuple per member, always into that host's
elements, :attr:`CoverFamily.indices`.  The covering check here, the
weights in :mod:`gridirr.verify` and the oracle's tables in
:mod:`gridirr.search` all read members that way.  A hand-built family is
indexed when it is built, and one with an element outside its host is
rejected then; the loader in :mod:`gridirr.io` makes the index tuples
itself.  A member graph is built only when a caller reads
:attr:`CoverFamily.members`.

The family :func:`enumerate_windows` returns over a :func:`make_grid`
host is implicit: it holds (m, c, n) as :attr:`CoverFamily.window`, its
covering check is answered from that, :mod:`gridirr.verify` weighs it
from column sums, and its index tuples (window l's is
:func:`~gridirr.grid.window_positions` of (m, c, n, l)) are made only
when read.  The covering check of every other family takes the members'
index tuples from the set of the host's edge positions, making an
element only to name a missed edge.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import MalformedFamilyError
from .grid import (
    Edge,
    Element,
    Graph,
    GridSpec,
    Vertex,
    canonical_order,
    format_element,
    grid_dims,
    make_grid,
    require_window_scope,
    window_positions,
)


class CoverFamily:
    """An ordered family of subgraphs claimed to edge-cover ``host``.

    Member indices are 1-based positions in ``members``; for enumerated
    window families, member l spans columns l .. l+c-1.  The family holds
    its host, :attr:`indices`, one sorted index tuple into
    ``host.elements`` per member, and ``window``: (m, c, n) for the
    width-c windows of the m-by-n grid ``host``, which only
    :func:`enumerate_windows` sets, else None.
    ``CoverFamily(host=..., members=...)`` indexes each member graph
    against ``host``; a member with an element outside the host raises
    :class:`MalformedFamilyError`, naming the first such member and, in
    it, the least such vertex, or else the least such edge.  A family
    needs at least one member, and members must be pairwise distinct;
    whether they cover the host is checked separately by
    :func:`is_edge_covering`.  Two families are equal when their hosts and
    index tuples are.
    """

    def __init__(self, host: Graph, members: Iterable[Graph]) -> None:
        index = host.index
        indices = []
        for pos, member in enumerate(members, start=1):
            elements = (*member.vertices, *member.edges)
            found = [index.get(e) for e in elements]
            if None in found:
                raise _outside_the_host(pos, (e for e in elements if e not in index))
            indices.append(tuple(sorted(found)))
        self._set(host, indices)

    @classmethod
    def _from_indices(cls, host: Graph, indices: list[tuple[int, ...]]) -> CoverFamily:
        """The family of sorted index tuples made on ``host`` (by the loader)."""
        family = object.__new__(cls)
        family._set(host, indices)
        return family

    def _set(self, host: Graph, indices: list[tuple[int, ...]]) -> None:
        if not indices:
            raise MalformedFamilyError("a covering family needs >= 1 member")
        if len(set(indices)) != len(indices):
            raise MalformedFamilyError(
                "family members must be pairwise distinct element sets"
            )
        self.host, self.window = host, None
        self.indices, self.t = tuple(indices), len(indices)

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        """Each member's elements as sorted indices into ``host.elements``;
        set when the family is built, and for a window family made from
        :func:`~gridirr.grid.window_positions` on first read."""
        m, c, n = self.window
        return tuple(window_positions(m, c, n, l) for l in range(1, n - c + 2))

    @property
    def members(self) -> Sequence[Graph]:
        """The member graphs, each built from its index tuple when read
        (slices give tuples); its length builds none."""
        return _MemberGraphs(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverFamily):
            return NotImplemented
        return (self.host, self.indices) == (other.host, other.indices)


class _MemberGraphs(Sequence):
    """:attr:`CoverFamily.members`."""

    def __init__(self, family: CoverFamily) -> None:
        self.family = family

    def __len__(self) -> int:
        return self.family.t

    def __getitem__(self, index: Union[int, slice]) -> Union[Graph, tuple[Graph, ...]]:
        at = self.family.indices[index]
        return tuple(map(self._graph, at)) if isinstance(index, slice) else self._graph(at)

    def _graph(self, at: tuple[int, ...]) -> Graph:
        host = self.family.host
        elements, split = host.elements, bisect_left(at, host.counts[0])
        return Graph(
            vertices=frozenset(map(elements.__getitem__, at[:split])),
            edges=frozenset(map(elements.__getitem__, at[split:])),
        )


def _outside_the_host(pos: int, elements: Iterable[Element]) -> MalformedFamilyError:
    """The error for member ``pos`` (1-based), naming the least of its
    ``elements`` outside the host: a vertex if there is one."""
    element = min(elements, key=canonical_order)
    what = "vertex" if isinstance(element, Vertex) else "edge"
    return MalformedFamilyError(
        f"member {pos} contains {what} {format_element(element)} not in the host"
    )


def enumerate_windows(grid: Graph, c: int) -> CoverFamily:
    """All n - c + 1 column windows of width c, ordered left to right.

    ``grid`` must be an m-by-n grid graph (its dimensions come from the
    spec :func:`make_grid` records, or else from the vertex set);
    parameters must satisfy 2 <= m <= c <= n.  Over a :func:`make_grid`
    host the family is held as its :attr:`~CoverFamily.window` (m, c, n),
    its index tuples made only when read.  Over any other host the windows
    of :func:`make_grid` are indexed against it as a hand-built family
    is, so a host lacking a window's element raises
    :class:`MalformedFamilyError` naming it.
    """
    m, n = grid_dims(grid)
    require_window_scope(m, c, n)
    if grid.spec is None:
        return CoverFamily(grid, enumerate_windows(make_grid(GridSpec(m, n)), c).members)
    family = object.__new__(CoverFamily)  # distinct by construction
    family.host, family.window, family.t = grid, (m, c, n), n - c + 1
    return family


@dataclass(frozen=True)
class CoveringCheck:
    """Outcome of :func:`is_edge_covering`.

    ``uncovered`` holds host edges missed by every member (sorted,
    nonempty exactly when ``covers`` is False).
    """

    covers: bool
    uncovered: tuple[Edge, ...]


_COVERED = CoveringCheck(covers=True, uncovered=())  # frozen, so one serves every window family


def is_edge_covering(family: CoverFamily) -> CoveringCheck:
    """Decide whether the family's edge sets jointly cover its host's.

    A window family covers its host by construction, which is answered
    without making its index tuples.
    """
    if family.window is not None:
        return _COVERED
    host = family.host
    first_edge, edges = host.counts
    missed = {*range(first_edge, first_edge + edges)}.difference(*family.indices)
    uncovered = tuple(map(host.element, sorted(missed)))
    return CoveringCheck(covers=not uncovered, uncovered=uncovered)


def require_covering(family: CoverFamily) -> None:
    """Raise :class:`MalformedFamilyError` unless the family covers its host."""
    check = is_edge_covering(family)
    if not check.covers:
        missed = check.uncovered[0]
        raise MalformedFamilyError(
            f"family does not cover the host: edge "
            f"{format_element(missed)} belongs to no member"
        )
