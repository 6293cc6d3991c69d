"""Exhaustive backtracking search for minimal irregular labelings.

This is the independent certificate machinery: it establishes the exact
minimum budget on small instances without consulting the closed forms,
then hands every candidate witness to the verifier rather than trusting
its own bookkeeping.

Elements are assigned labels in canonical order (vertices row-major, then
edges row-major) with label values tried in increasing order, so the first
witness found is the lexicographically smallest label vector and identical
inputs always yield identical results.  A branch is cut as soon as two
members whose elements are all assigned carry equal weights; window
families complete left to right, which makes the cut bite early.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .construct import Labeling, LabelingKind, ceil_div
from .covering import CoverFamily, require_covering
from .errors import InvalidParameterError, ResourceLimitError
from .grid import Element, Graph, grid_dims
from .verify import _relevant_elements, verify_irregular

DEFAULT_MAX_ELEMENTS = 24
MAX_ELEMENTS_ENV_VAR = "GRIDIRR_ORACLE_MAX_ELEMENTS"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`min_strength`.

    ``minimal_k`` is None when no labeling exists up to ``k_max`` (which is
    a bounded negative, never a claim about larger budgets).  A reported
    ``minimal_k`` comes with a verifier-accepted ``witness`` and a
    completed exhaustive search at every smaller searched budget.
    """

    minimal_k: Optional[int]
    witness: Optional[Labeling]
    nodes_explored: int
    k_max: int


def configured_max_elements() -> int:
    """Size cap on labeled elements, overridable via the environment."""
    raw = os.environ.get(MAX_ELEMENTS_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"{MAX_ELEMENTS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise InvalidParameterError(f"{MAX_ELEMENTS_ENV_VAR} must be >= 1")
    return value


def _labeled_elements(kind: LabelingKind, host: Graph) -> list[Element]:
    if kind is LabelingKind.VERTEX:
        return list(host.sorted_vertices())
    if kind is LabelingKind.EDGE:
        return list(host.sorted_edges())
    return list(host.sorted_vertices()) + list(host.sorted_edges())


def _check_size(
    kind: LabelingKind, host: Graph, max_elements: Optional[int]
) -> None:
    """Refuse instances with more labeled elements than the size cap."""
    cap = configured_max_elements() if max_elements is None else max_elements
    count = len(_labeled_elements(kind, host))
    if count > cap:
        raise ResourceLimitError(
            f"instance has {count} labeled elements, above the cap of {cap}; "
            f"refusing to search (this is not a negative answer)"
        )


def _search(
    host: Graph, family: CoverFamily, kind: LabelingKind, k: int
) -> tuple[Optional[dict[Element, int]], int]:
    """Backtracking core: (lex-least valid assignment or None, node count)."""
    elements = _labeled_elements(kind, host)
    member_elements = [
        set(_relevant_elements(kind, member)) for member in family.members
    ]
    touching: dict[Element, list[int]] = {e: [] for e in elements}
    for mi, elems in enumerate(member_elements):
        for e in elems:
            touching[e].append(mi)

    remaining = [len(elems) for elems in member_elements]
    weight = [0] * len(family.members)
    completed: dict[int, int] = {}

    # Members with no relevant elements are complete (weight 0) up front;
    # two of them collide at every budget.
    for mi, count in enumerate(remaining):
        if count == 0:
            if 0 in completed:
                return None, 0
            completed[0] = completed.get(0, 0) + 1

    nodes = 0

    def assign(e: Element, label: int) -> Optional[list[int]]:
        """Apply one assignment; return newly completed members, or None
        on a weight collision (with all bookkeeping rolled back)."""
        finished: list[int] = []
        for mi in touching[e]:
            weight[mi] += label
            remaining[mi] -= 1
            if remaining[mi] == 0:
                finished.append(mi)
        for pos, mi in enumerate(finished):
            w = weight[mi]
            if completed.get(w, 0) > 0:
                for done in finished[:pos]:
                    rollback_completed(done)
                unassign(e, label)
                return None
            completed[w] = completed.get(w, 0) + 1
        return finished

    def rollback_completed(mi: int) -> None:
        w = weight[mi]
        completed[w] -= 1
        if completed[w] == 0:
            del completed[w]

    def unassign(e: Element, label: int) -> None:
        for mi in touching[e]:
            weight[mi] -= label
            remaining[mi] += 1

    assignment: dict[Element, int] = {}

    def backtrack(pos: int) -> bool:
        nonlocal nodes
        if pos == len(elements):
            return True
        e = elements[pos]
        for label in range(1, k + 1):
            nodes += 1
            finished = assign(e, label)
            if finished is None:
                continue
            assignment[e] = label
            if backtrack(pos + 1):
                return True
            del assignment[e]
            for mi in finished:
                rollback_completed(mi)
            unassign(e, label)
        return False

    if backtrack(0):
        return dict(assignment), nodes
    return None, nodes


def exists_irregular(
    host: Graph,
    family: CoverFamily,
    kind: LabelingKind,
    k: int,
    max_elements: Optional[int] = None,
) -> Optional[Labeling]:
    """Lexicographically least irregular labeling with budget k, if any.

    Returns None when the exhaustive search proves no such labeling exists.
    Raises :class:`ResourceLimitError` when the instance has more labeled
    elements than the size cap, and :class:`MalformedFamilyError` when the
    family does not cover the host.
    """
    if k < 1:
        raise InvalidParameterError(f"budget must be >= 1, got {k}")
    require_covering(host, family)
    _check_size(kind, host, max_elements)
    assignment, _ = _search(host, family, kind, k)
    if assignment is None:
        return None
    return _as_verified_labeling(host, family, kind, k, assignment)


def _as_verified_labeling(
    host: Graph,
    family: CoverFamily,
    kind: LabelingKind,
    k: int,
    assignment: dict[Element, int],
) -> Labeling:
    m, n = grid_dims(host)
    witness = Labeling(kind=kind, k=k, labels=assignment, m=m, n=n)
    verdict = verify_irregular(witness, family)
    if not verdict.accepted:
        raise AssertionError(
            f"search produced a labeling the verifier rejects: "
            f"{verdict.violation}"
        )
    return witness


def family_lower_bound(kind: LabelingKind, family: CoverFamily) -> int:
    """Smallest budget not excluded by counting, for arbitrary families.

    The t member weights are distinct integers between the smallest member
    element count and k times the largest, so k >= (d_min + t - 1) / d_max.
    For families with equal-sized members this is exactly the
    :func:`gridirr.bounds.lower_bound` value.
    """
    counts = [
        len(_relevant_elements(kind, member)) for member in family.members
    ]
    t = len(counts)
    if t <= 1:
        return 1
    d_max = max(counts)
    if d_max == 0:
        return 1
    return max(1, ceil_div(min(counts) + t - 1, d_max))


def min_strength(
    host: Graph,
    family: CoverFamily,
    kind: LabelingKind,
    k_max: int,
    start_k: Optional[int] = None,
    max_elements: Optional[int] = None,
) -> SearchResult:
    """Exact minimum budget admitting an irregular labeling, up to k_max.

    Budgets below the counting lower bound are provably infeasible and
    skipped; pass ``start_k`` to disable the skip and search them anyway
    (the searches come back empty, which is itself a useful check).
    """
    if k_max < 1:
        raise InvalidParameterError(f"budget cap must be >= 1, got {k_max}")
    require_covering(host, family)
    _check_size(kind, host, max_elements)
    start = family_lower_bound(kind, family) if start_k is None else start_k
    start = max(1, start)
    total_nodes = 0
    for k in range(start, k_max + 1):
        assignment, nodes = _search(host, family, kind, k)
        total_nodes += nodes
        if assignment is not None:
            witness = _as_verified_labeling(host, family, kind, k, assignment)
            return SearchResult(
                minimal_k=k,
                witness=witness,
                nodes_explored=total_nodes,
                k_max=k_max,
            )
    return SearchResult(
        minimal_k=None, witness=None, nodes_explored=total_nodes, k_max=k_max
    )
