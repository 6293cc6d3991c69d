"""Constructive labelings whose window weights form a consecutive run.

All three constructors share one formula, over the rows of the grid's
elements that its host's :attr:`~gridirr.grid.Graph.slices` give: vertex
rows (i = 1..m), vertical-edge rows (i = 1..m-1), then horizontal-edge
gap rows (i = 1..m), as the kind labels them; the j-th element of a row gets

    label = 1 + ceil((j - offset) / D)

where D = :func:`window_denominator` is the number of elements the kind
labels in one m-by-c window, and ``offset`` counts the window elements in
the labeled rows up to and including this one (c for a vertex or
vertical-edge row, c - 1 for a horizontal-edge row).  When a window moves
from column l to l + 1, a row of offset o adds ceil((l - o')/D) -
ceil((l - o)/D) to its weight, o' being the previous row's offset (0 for
the first row, and the last row's offset is D); the sum over the rows
telescopes to ceil(l/D) - ceil((l - D)/D) = 1, for every m, c and n.  So
the t = n - c + 1 window weights are base, base+1, ..., base + (n - c),
and the budget k = 1 + ceil((n - c) / D) equals the closed-form strength
for the kind (see :mod:`gridirr.bounds`), which is what makes the
constructions optimal witnesses.

Each construction makes its :func:`~gridirr.grid.make_grid` host first
and writes the labels at the rows' positions into one tuple in the order
of the host's elements, held with that host by :class:`GridLabels`; no
element object is made.  Rows are cut from stairs built run by run.

All ceiling arithmetic is exact integer math.  The numerators are
frequently negative (j - offset with small j), where truncating division
would silently round the wrong way; :func:`ceil_div` is the single audited
primitive every formula, and every run of a stair, goes through.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import InvalidParameterError
from .grid import Element, Graph, GridSpec, make_grid, require_window_scope


class LabelingKind(enum.Enum):
    """Which elements carry labels: vertices, edges, or both."""

    VERTEX = "vertex"
    EDGE = "edge"
    TOTAL = "total"


class TotalVariant(enum.Enum):
    """Denominator choice for the horizontal-edge formula of the total kind.

    CORRECTED uses the same denominator 3mc - m - c as the vertex and
    vertical-edge formulas, which keeps every label in {1, ..., k}.
    AS_PRINTED uses 2mc - m - c for horizontal edges; the mismatch can push
    labels below 1, and such labelings are produced literally so the
    verifier can report the range violations.
    """

    CORRECTED = "corrected"
    AS_PRINTED = "as_printed"


class GridLabels(Mapping):
    """Read-only labels in host order: ``layout[p]`` labels
    ``host.elements[lo + p]``.  The keys, in canonical order, are made
    only when a caller first reads one.  The layout holds ints: the
    constructors, the oracle and the loader make it so, and the verifier
    reads it without a type check."""

    def __init__(self, host: Graph, lo: int, layout: tuple[int, ...]) -> None:
        self.host, self.lo, self.layout = host, lo, layout

    @cached_property
    def _labels(self) -> dict[Element, int]:
        return dict(zip(self.host.elements[self.lo :], self.layout))

    def __getitem__(self, element: Element) -> int:
        return self._labels[element]

    def __iter__(self) -> Iterator[Element]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self.layout)

    def values(self) -> tuple[int, ...]:
        return self.layout


@dataclass(frozen=True)
class Labeling:
    """An assignment of labels in {1, ..., k} to graph elements.

    ``labels`` maps vertices and/or edges (per ``kind``) to labels; it is
    owned by the instance and must not be mutated.  The constructors, the
    oracle and the file loader give a :class:`GridLabels` (the loader when
    the file labels each element its kind weighs on the m-by-n grid once);
    other loaded and edited labelings hold a dict.
    ``m`` and ``n`` record the host grid's dimensions for serialization.
    """

    kind: LabelingKind
    k: int
    labels: Mapping[Element, int]
    m: int
    n: int

    def with_label(self, element: Element, label: int) -> "Labeling":
        """Copy with one label replaced (used by mutation tests and tools)."""
        updated = dict(self.labels)
        updated[element] = label
        return replace(self, labels=updated)

    def max_label(self) -> int:
        return max(self.labels.values())


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for integer p and positive q, exact for negative p.

    ceil_div(-1, 4) == 0, ceil_div(4, 4) == 1, ceil_div(-7, 8) == 0.
    """
    if q <= 0:
        raise InvalidParameterError(f"divisor must be positive, got {q}")
    return -(-p // q)


def kind_element_count(kind: LabelingKind, vertices: int, edges: int) -> int:
    """How many elements the kind labels in a graph with the given numbers
    of vertices and edges: the vertices, the edges, or both."""
    if kind is LabelingKind.VERTEX:
        return vertices
    if kind is LabelingKind.EDGE:
        return edges
    return vertices + edges


def kind_range(kind: LabelingKind, host: Graph) -> tuple[int, int]:
    """The elements the kind labels, as the slice ``lo:hi`` of
    ``host.elements``: the vertices, the edges, or both."""
    vertices, edges = host.counts
    lo = vertices if kind is LabelingKind.EDGE else 0
    return lo, lo + kind_element_count(kind, vertices, edges)


def kind_rows(kind: LabelingKind, host: Graph) -> tuple[list, list]:
    """The rows of the m-by-n grid ``host``'s :attr:`~gridirr.grid.Graph.slices`
    that the kind labels, as (column rows, gap rows): the m vertex rows,
    the m - 1 vertical-edge rows and the m gap rows, or all of them."""
    (columns, gaps), m = host.slices, host.spec.m
    if kind is LabelingKind.VERTEX:
        return columns[:m], []
    return (columns[m:] if kind is LabelingKind.EDGE else columns), gaps


def window_denominator(kind: LabelingKind, m: int, c: int) -> int:
    """Relevant element count of one m-by-c window for the given kind."""
    return kind_element_count(kind, m * c, 2 * m * c - m - c)


def construct_for_kind(
    kind: LabelingKind,
    m: int,
    n: int,
    c: int,
    variant: TotalVariant = TotalVariant.CORRECTED,
) -> Labeling:
    """The constructed labeling of the kind (``variant`` applies to total).

    Dispatches to the public constructor of the kind, so that code wrapping
    those constructors sees every construction.
    """
    if kind is LabelingKind.VERTEX:
        return construct_vertex_labeling(m, n, c)
    if kind is LabelingKind.EDGE:
        return construct_edge_labeling(m, n, c)
    return construct_total_labeling(m, n, c, variant)


def construct_vertex_labeling(m: int, n: int, c: int) -> Labeling:
    """Vertex labeling: D = mc; vertex (i, j) has offset ic.  The maximum
    label, at (1, n), is the budget."""
    return _construct(LabelingKind.VERTEX, m, n, c, TotalVariant.CORRECTED)


def construct_edge_labeling(m: int, n: int, c: int) -> Labeling:
    """Edge labeling: D = 2mc - m - c; the vertical edge below (i, j) has
    offset ic, the horizontal edge right of (i, j) offset (m-1+i)c - i.
    The maximum label, at the vertical edge (1,n)-(2,n), is the budget."""
    return _construct(LabelingKind.EDGE, m, n, c, TotalVariant.CORRECTED)


def construct_total_labeling(
    m: int, n: int, c: int, variant: TotalVariant = TotalVariant.CORRECTED
) -> Labeling:
    """Total labeling: D = 3mc - m - c; vertex (i, j) has offset ic, the
    vertical edge below it (m+i)c, the horizontal edge right of it
    (2m-1+i)c - i.

    Horizontal edges divide by D' = D under ``TotalVariant.CORRECTED`` and
    D' = 2mc - m - c under ``TotalVariant.AS_PRINTED``.  The budget is
    always 1 + ceil((n - c) / D); under the corrected variant every label
    lies in {1, ..., k} with the maximum at vertex (1, n), while the
    as-printed variant can produce labels below 1 (left for the verifier
    to flag).
    """
    return _construct(LabelingKind.TOTAL, m, n, c, variant)


def _construct(
    kind: LabelingKind, m: int, n: int, c: int, variant: TotalVariant
) -> Labeling:
    """The one formula: label = 1 + ceil((j - offset) / D) on every row."""
    require_window_scope(m, c, n)
    d = window_denominator(kind, m, c)
    printed = variant is TotalVariant.AS_PRINTED  # its gap rows divide by the edge D
    d_gap = window_denominator(LabelingKind.EDGE, m, c) if printed else d
    host = make_grid(GridSpec(m, n))
    columns, gaps = kind_rows(kind, host)
    # per row: its two slices, the window elements it adds, D
    rows = [(row, c, d) for row in columns] + [(row, c - 1, d_gap) for row in gaps]
    # j - offset runs from low (j = 1 on the last row) up to n - c: stairs[D]
    # holds 1 + ceil((j - offset) / D) at j - offset - low
    low = 1 - c * len(columns) - (c - 1) * len(gaps)
    stairs = {den: _stair(low, n, den) for den in {d, d_gap}}
    layout = [0] * sum(host.counts)
    positions = range(len(layout))
    start = 1 - low  # the stair of j = 1 at offset 0
    for (a, b), added, denominator in rows:
        start -= added
        split = len(positions[a])
        row = stairs[denominator][start : start + split + len(positions[b])]
        layout[a], layout[b] = row[:split], row[split:]
    lo, hi = kind_range(kind, host)
    labels = GridLabels(host, lo, tuple(layout[lo:hi]))
    k = 1 + ceil_div(n - c, d)
    return Labeling(kind=kind, k=k, labels=labels, m=m, n=n)


def _stair(low: int, high: int, den: int) -> list[int]:
    """``[1 + ceil_div(p, den) for p in range(low, high)]``, one run of
    equal labels at a time."""
    stair: list[int] = []
    while len(stair) < high - low:  # the run of q = ceil(p / den): p up to q * den
        q = ceil_div(low + len(stair), den)
        stair += [1 + q] * (min(q * den + 1, high) - low - len(stair))
    return stair
