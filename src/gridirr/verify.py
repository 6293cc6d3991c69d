"""Subgraph weights and the irregularity verdict.

The weight of a family member is the sum of its vertex labels (vertex
kind), edge labels (edge kind), or both (total kind).  A labeling is
irregular over a family when every label respects the budget and all
member weights are pairwise distinct.

Weights are plain Python integers, so there is no overflow to guard
against; magnitudes at the supported scales stay tiny anyway (at most
k * (3mc - m - c) per member).

The labeling is read through one label layout: the labels the kind
weighs, in the order of the host's elements (None where such an element
has no label), with 0 at the elements of the other kind.  A constructed
or searched labeling, and a loaded one that labels each element of its
grid's kind slice once, holds that layout with the host it follows
(:class:`gridirr.construct.GridLabels`), read as is on that host or on
an equal-spec :func:`gridirr.grid.make_grid` grid; any other is looked
up element by element.  The verdict's range violation and weights both
come from the layout, by position: only the element a range violation
names is made.  A label the layout leaves out is stray (see
:func:`verify_irregular`), and :func:`weight_profile` ignores it; the
stray test reads the count of unlabeled elements, 0 for a layout.

A window family (see :attr:`gridirr.covering.CoverFamily.window`) is
weighed from the column sums (vertex and vertical-edge labels) and gap
sums (horizontal-edge labels) of the rows the kind labels, cut from the
slices its host makes once (:func:`gridirr.construct.kind_rows`: m
vertex rows for the vertex kind, m - 1 vertical-edge and m gap rows for
the edge kind, all 3m - 1 for the total kind); a window's weight is c
consecutive column sums and the c - 1 gap sums between them.  Any other
family is weighed by index, each member summing its index tuple
(:attr:`gridirr.covering.CoverFamily.indices`).  A profile of distinct
weights, as every accepted one is, skips the collision scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import Optional, Union

from .construct import GridLabels, Labeling, LabelingKind, kind_range, kind_rows
from .covering import CoverFamily, require_covering
from .errors import IncompleteLabelingError, StrayLabelError
from .grid import Element, Graph, canonical_order, format_element, require_integers

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


_ACCEPTED = Verdict(accepted=True)  # frozen, so one serves every accepted verdict


def subgraph_weight(labeling: Labeling, member: Graph) -> int:
    """Sum of the member's labels relevant to the labeling's kind."""
    return weight_profile(labeling, CoverFamily(host=member, members=(member,)))[0]


def weight_profile(labeling: Labeling, family: CoverFamily) -> WeightProfile:
    """Member weights in family order.

    Raises :class:`IncompleteLabelingError` naming the first element, in
    member order and then canonical order, that the kind weighs and the
    labeling leaves unlabeled, and :class:`InvalidParameterError` for the
    first, in host order, whose label is not an int (a labeling read by
    lookup; a layout holds ints).  Stray labels are ignored.
    """
    values = _label_layout(labeling, family.host)[0]
    return _profile(values, labeling.kind, family)


def _profile(values: list, kind: LabelingKind, family: CoverFamily) -> WeightProfile:
    """:func:`weight_profile` from the label layout of the family's host."""
    window = family.window
    try:
        if window is not None:
            return _window_profile(values, kind, family.host, *window[1:])
        return [sum(map(values.__getitem__, member)) for member in family.indices]
    except TypeError:  # None marks an unlabeled element the kind weighs
        for member in family.indices:
            for pos in member:
                if values[pos] is None:
                    element = family.host.element(pos)
                    raise IncompleteLabelingError(
                        f"no label for {format_element(element)} required "
                        f"by {_with_article(kind)} labeling"
                    ) from None
        raise


def _with_article(kind: LabelingKind) -> str:
    """The kind's name after its article: "a vertex", "an edge", "a total"."""
    return f"{'an' if kind is LabelingKind.EDGE else 'a'} {kind.value}"


def _label_layout(labeling: Labeling, host: Graph) -> tuple[list, int, int, int]:
    """(layout, lo, hi, unlabeled): per element of ``host.elements``, its label if the kind
    weighs it, None if it weighs it but it has no label, else 0; ``lo:hi`` is the kind's
    :func:`kind_range` on ``host``; ``unlabeled`` counts the Nones (0 for a layout)."""
    lo, hi = kind_range(labeling.kind, host)
    labels = labeling.labels
    values, unlabeled = [0] * lo, 0
    if type(labels) is GridLabels and (labels.lo, len(labels)) == (lo, hi - lo) and (
        labels.host is host or host.spec is not None and labels.host.spec == host.spec
    ):
        values += labels.layout
    else:
        weighed = list(map(labels.get, host.elements[lo:hi]))
        types = set(map(type, weighed))
        unlabeled = weighed.count(None) if type(None) in types else 0
        if not types <= {int, type(None)}:
            for element, label in zip(host.elements[lo:hi], weighed):
                if label is not None:
                    require_integers(**{f"label at {format_element(element)}": label})
        values += weighed
    values += [0] * (sum(host.counts) - hi)
    return values, lo, hi, unlabeled


def require_no_stray_labels(labeling: Labeling, host: Graph) -> tuple[list, int, int]:
    """The label layout of ``host`` with the kind's range, as :func:`_label_layout` gives
    them, once no label is stray: raises :class:`StrayLabelError` naming the least element
    labeled but not weighed; the test reads the unlabeled count, 0 for a layout."""
    values, lo, hi, unlabeled = _label_layout(labeling, host)
    if len(labeling.labels) + unlabeled > hi - lo:
        stray = labeling.labels.keys() - host.elements[lo:hi]
        if stray:
            raise StrayLabelError(
                f"label on {format_element(min(stray, key=canonical_order))}, which "
                f"{_with_article(labeling.kind)} labeling of this host does not weigh"
            )
    return values, lo, hi


def _window_profile(values: list, kind: LabelingKind, host: Graph, c: int, n: int) -> WeightProfile:
    """Window weights of the m-by-n grid ``host`` from the column and gap
    sums of the rows the kind labels."""
    columns, gaps = (  # [j - 1]: the sum of the j-th positions of the rows
        list(reduce(partial(map, add), [values[a] + values[b] for a, b in rows]))
        if rows else [0] * n  # the vertex kind labels no gap row
        for rows in kind_rows(kind, host)
    )
    weight = sum(columns[:c]) + sum(gaps[: c - 1])
    profile = [weight]
    for l in range(n - c):
        weight += columns[l + c] - columns[l] + gaps[l + c - 1] - gaps[l]
        profile.append(weight)
    return profile


def _first_collision(profile: WeightProfile) -> Optional[WeightCollision]:
    """The lexicographically least pair of members of equal weight, if any."""
    if len(set(profile)) == len(profile):
        return None
    counts = Counter(profile)
    first = next(idx for idx, weight in enumerate(profile) if counts[weight] > 1)
    second = profile.index(profile[first], first + 1)
    return WeightCollision(first=first + 1, second=second + 1, weight=profile[first])


def verify_irregular(labeling: Labeling, family: CoverFamily) -> Verdict:
    """Accept iff every label is in {1, ..., k} and all weights differ.

    The family must be an edge covering of its host; otherwise
    :class:`MalformedFamilyError` is raised (irregularity is undefined
    without a covering).  A stray label (on an element outside the host,
    or of the kind the labeling does not weigh) raises :class:`StrayLabelError`,
    and a k or weighed label that is not an int :class:`InvalidParameterError`.
    """
    host = family.host
    require_covering(family)
    values, lo, hi = require_no_stray_labels(labeling, host)
    k = labeling.k
    require_integers(k=k)
    labels = values[lo:hi]
    outside = {label for label in set(labels) if label is not None and not 1 <= label <= k}
    if outside:  # the violation is at the first position holding one
        pos = lo + min(map(labels.index, outside))
        return Verdict(accepted=False, violation=RangeViolation(host.element(pos), values[pos], k))
    collision = _first_collision(_profile(values, labeling.kind, family))
    return _ACCEPTED if collision is None else Verdict(accepted=False, violation=collision)
