"""Subgraph weights and the irregularity verdict.

The weight of a family member is the sum of its vertex labels (vertex
kind), edge labels (edge kind), or both (total kind).  A labeling is
irregular over a family when every label respects the budget and all
member weights are pairwise distinct.

Weights are plain Python integers, so there is no overflow to guard
against; magnitudes at the supported scales stay tiny anyway (at most
k * (3mc - m - c) per member).

A window family over its own :func:`gridirr.grid.make_grid` host (see
:attr:`gridirr.covering.CoverFamily.window`) is weighed in one pass over
the labels: a window's weight is the sum of c consecutive column sums
(vertex and vertical-edge labels) and the c - 1 gap sums between them
(horizontal-edge labels).  Every other family is weighed by index: the
labels the kind weighs are laid out once in the order of the host's
elements, and each member sums its index tuple
(:attr:`gridirr.covering.CoverFamily.indices`).  Both paths sum the same
integers; labels on elements outside the host or of another kind are
weighed by neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .construct import Labeling, LabelingKind
from .covering import CoverFamily, require_covering
from .errors import IncompleteLabelingError
from .grid import Edge, Element, Graph, Vertex, canonical_order, format_element

WeightProfile = list[int]


@dataclass(frozen=True)
class RangeViolation:
    """A label outside {1, ..., k}."""

    element: Element
    label: int
    k: int

    def __str__(self) -> str:
        return (
            f"label {self.label} at {format_element(self.element)} "
            f"outside 1..{self.k}"
        )


@dataclass(frozen=True)
class WeightCollision:
    """Two family members (1-based indices) with equal weight."""

    first: int
    second: int
    weight: int

    def __str__(self) -> str:
        return (
            f"members {self.first} and {self.second} share weight "
            f"{self.weight}"
        )


Violation = Union[RangeViolation, WeightCollision]


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`verify_irregular`.

    ``accepted`` implies ``violation`` is None; a rejection carries exactly
    one violation, the first under deterministic ordering (range violations
    in canonical element order before collisions in lexicographic member
    order).
    """

    accepted: bool
    violation: Optional[Violation] = None


def subgraph_weight(labeling: Labeling, member: Graph) -> int:
    """Sum of the member's labels relevant to the labeling's kind."""
    return weight_profile(labeling, CoverFamily(host=member, members=(member,)))[0]


def weight_profile(labeling: Labeling, family: CoverFamily) -> WeightProfile:
    """Member weights in family order.

    Raises :class:`IncompleteLabelingError` naming the first element, in
    member order and then canonical order, that the kind weighs and the
    labeling leaves unlabeled, and :class:`MalformedFamilyError` for a
    member with an element outside the host.
    """
    window = family.window
    if window is not None:
        lo, hi = kind_range(labeling.kind, family.host)
        profile = _window_profile(labeling, *window, needed=hi - lo)
        if profile is not None:
            return profile
    indices = family.indices
    values = _label_layout(labeling, family.host)
    try:
        return [sum(map(values.__getitem__, member)) for member in indices]
    except TypeError:  # None marks an unlabeled element the kind weighs
        for member in indices:
            for pos in member:
                if values[pos] is None:
                    element = family.host.elements[pos]
                    raise IncompleteLabelingError(
                        f"no label for {format_element(element)} required "
                        f"by a {labeling.kind.value} labeling"
                    ) from None
        raise


def kind_range(kind: LabelingKind, host: Graph) -> tuple[int, int]:
    """The elements the kind labels, as the slice ``lo:hi`` of
    ``host.elements``: the vertices, the edges, or both."""
    first_edge = len(host.vertices)
    lo = first_edge if kind is LabelingKind.EDGE else 0
    hi = first_edge if kind is LabelingKind.VERTEX else first_edge + len(host.edges)
    return lo, hi


def _label_layout(labeling: Labeling, host: Graph) -> list:
    """Per element of ``host.elements``: its label if the kind weighs it,
    None if the kind weighs it but it has no label, else 0."""
    count = len(host.elements)
    lo, hi = kind_range(labeling.kind, host)
    values: list = [0] * lo + [None] * (hi - lo) + [0] * (count - hi)
    index = host.index
    for element, label in labeling.labels.items():
        pos = index.get(element)
        if pos is not None and lo <= pos < hi:
            values[pos] = label
    return values


def _window_profile(
    labeling: Labeling, m: int, c: int, n: int, needed: int
) -> Optional[WeightProfile]:
    """Window weights from column and gap sums of the m-by-n grid, or None
    when fewer than ``needed`` elements the kind weighs have labels (the
    indexed path then raises the error naming the first unlabeled one)."""
    weigh_vertices = labeling.kind is not LabelingKind.EDGE
    weigh_edges = labeling.kind is not LabelingKind.VERTEX
    columns = [0] * (n + 1)  # [j]: labels of column j's vertices and vertical edges
    gaps = [0] * n  # [j]: labels of the horizontal edges from column j to j+1
    found = 0
    for element, label in labeling.labels.items():
        if isinstance(element, Vertex):
            if weigh_vertices and 1 <= element.i <= m and 1 <= element.j <= n:
                columns[element.j] += label
                found += 1
        elif weigh_edges and isinstance(element, Edge):
            (i, j), (p, q) = element
            if not (1 <= i <= m and 1 <= j <= n):
                continue
            if q == j and p == i + 1 <= m:
                columns[j] += label
                found += 1
            elif p == i and q == j + 1 <= n:
                gaps[j] += label
                found += 1
    if found < needed:
        return None
    weight = sum(columns[1 : c + 1]) + sum(gaps[1:c])
    profile = [weight]
    for l in range(1, n - c + 1):
        weight += columns[l + c] - columns[l] + gaps[l + c - 1] - gaps[l]
        profile.append(weight)
    return profile


def _first_range_violation(labeling: Labeling) -> Optional[RangeViolation]:
    """The out-of-range label on the least element in canonical order
    (vertices before edges), found by one scan; only violators are sorted."""
    k = labeling.k
    breaches = [e for e, label in labeling.labels.items() if not 1 <= label <= k]
    if not breaches:
        return None
    element = min(breaches, key=canonical_order)
    return RangeViolation(element=element, label=labeling.labels[element], k=k)


def _first_collision(profile: WeightProfile) -> Optional[WeightCollision]:
    seen: dict[int, int] = {}
    best: Optional[tuple[int, int]] = None
    for idx, weight in enumerate(profile, start=1):
        if weight in seen:
            pair = (seen[weight], idx)
            if best is None or pair < best:
                best = pair
        else:
            seen[weight] = idx
    if best is None:
        return None
    return WeightCollision(
        first=best[0], second=best[1], weight=profile[best[0] - 1]
    )


def verify_irregular(labeling: Labeling, family: CoverFamily) -> Verdict:
    """Accept iff every label is in {1, ..., k} and all weights differ.

    The family must be an edge covering of its host; otherwise
    :class:`MalformedFamilyError` is raised (irregularity is undefined
    without a covering).
    """
    require_covering(family.host, family)
    breach = _first_range_violation(labeling)
    if breach is not None:
        return Verdict(accepted=False, violation=breach)
    collision = _first_collision(weight_profile(labeling, family))
    if collision is not None:
        return Verdict(accepted=False, violation=collision)
    return Verdict(accepted=True)
