"""Exhaustive backtracking search for minimal irregular labelings.

This is the independent certificate machinery: it establishes the exact
minimum budget on small instances without consulting the closed forms,
then hands every candidate witness to the verifier rather than trusting
its own bookkeeping.

Elements are assigned labels in the host's canonical order
(:attr:`gridirr.grid.Graph.elements`: vertices row-major, then edges)
with label values tried in increasing order, so the first witness found
is the lexicographically smallest label vector and identical inputs
always yield identical results.  One rule cuts a branch, at the root
and after every label (:func:`_feasible`): no pairwise distinct member
weights remain reachable.  It is exact, so the walk meets the same first
witness as an uncut one; at the root it gives the start budget.

The search runs on integer tables made in one pass over the member
index tuples (:func:`_prepare`), with no element object and no member
graph.  A position is an index into the host's elements, shifted to the
kind's range (:func:`gridirr.construct.kind_range`); a member is its sorted
index tuple (:attr:`gridirr.covering.CoverFamily.indices`) cut to that range.
The walk keeps a label per position and, per member, a weight and a
count of unlabeled positions; its witness is that label vector, held as
the constructors hold theirs (:class:`gridirr.construct.GridLabels`).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .construct import GridLabels, Labeling, LabelingKind, kind_range
from .covering import CoverFamily, require_covering
from .errors import InvalidParameterError, ResourceLimitError
from .grid import Graph, grid_dims, require_positive
from .verify import verify_irregular

DEFAULT_MAX_ELEMENTS = 24
MAX_ELEMENTS_ENV_VAR = "GRIDIRR_ORACLE_MAX_ELEMENTS"


@dataclass(frozen=True)
class SearchResult:
    """Outcome of :func:`min_strength`.

    ``minimal_k`` is the least feasible budget in ``start_k .. k_max``
    (``start_k`` defaults to :func:`family_lower_bound`, below which no
    budget is feasible).  It is None when no labeling exists in that range
    (a bounded negative, never a claim about larger budgets).  A reported
    ``minimal_k`` comes with a verifier-accepted ``witness`` and a
    completed exhaustive search at every smaller searched budget.
    """

    minimal_k: Optional[int]
    witness: Optional[Labeling]
    nodes_explored: int
    k_max: int


def _check_size(count: int, max_elements: Optional[int]) -> None:
    """Refuse instances with more labeled elements than the size cap, read
    from the environment when no cap is passed."""
    cap = max_elements
    if cap is None:
        raw = os.environ.get(MAX_ELEMENTS_ENV_VAR, str(DEFAULT_MAX_ELEMENTS))
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"{MAX_ELEMENTS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        if cap < 1:
            raise InvalidParameterError(f"{MAX_ELEMENTS_ENV_VAR} must be >= 1")
    if count > cap:
        raise ResourceLimitError(
            f"instance has {count} labeled elements, above the cap of {cap}; "
            f"refusing to search (this is not a negative answer)"
        )


def _prepare(family: CoverFamily, kind: LabelingKind) -> tuple:
    """Integer tables of one instance, shared by every budget k:
    (touch, counts).

    Position p stands for ``family.host.elements[lo + p]``, in the kind's slice
    ``lo:hi`` (:func:`gridirr.construct.kind_range`).  ``touch[p]`` holds the
    members containing it, in member order.  ``counts[mi]`` is how many
    elements of the kind member mi has.
    """
    lo, hi = kind_range(kind, family.host)
    touch = [[] for _ in range(hi - lo)]
    counts = []
    for mi, member in enumerate(family.indices):
        positions = member[bisect_left(member, lo) : bisect_left(member, hi)]
        counts.append(len(positions))
        for pos in positions:
            touch[pos - lo].append(mi)
    return [tuple(mis) for mis in touch], counts


def _feasible(weight: list[int], left: list[int], k: int) -> bool:
    """Hall's theorem for intervals: a member with weight w and r unlabeled
    positions ends in [w + r, w + r*k].  Taken by right end, each interval
    gets the least value at or above its left end that no earlier one took;
    distinct final weights exist exactly when every value fits."""
    given = set()
    for high, low in sorted([(w + r * k, w + r) for w, r in zip(weight, left)]):
        while low in given:
            low += 1
        if low > high:
            return False
        given.add(low)
    return True


def _root_bound(counts: list[int]) -> int:
    """Least k passing :func:`_feasible` with no label placed.  Every k >= t
    passes unless two members have no element of the kind; then it is t + 1."""
    zero, t = [0] * len(counts), len(counts)
    return next((k for k in range(1, t + 1) if _feasible(zero, counts, k)), t + 1)


def _search(tables: tuple, k: int) -> tuple[Optional[list[int]], int]:
    """Backtracking core: (lex-least valid label vector or None, node count)."""
    touch, counts = tables
    weight, left = [0] * len(counts), list(counts)
    if not _feasible(weight, left, k):
        return None, 0
    size = len(touch)
    labels = [0] * size  # labels[pos]: the label tried last, 0 for none
    nodes = pos = 0
    while pos < size:
        label = labels[pos]
        if label == k:  # exhausted: clear it, then undo the position before
            labels[pos] = 0
            for mi in touch[pos]:
                weight[mi] -= k
                left[mi] += 1
            pos -= 1
            if pos < 0:
                return None, nodes
            continue
        labels[pos] = label + 1
        nodes += 1
        for mi in touch[pos]:
            weight[mi] += 1
            if not label:  # its first label: the position is now labeled
                left[mi] -= 1
        if _feasible(weight, left, k):
            pos += 1
    return labels, nodes


def family_lower_bound(kind: LabelingKind, family: CoverFamily) -> int:
    """Least budget passing the root check, for arbitrary families: the
    default start of :func:`min_strength`, from :func:`_prepare`'s member
    element counts.  Never below counting's (d_min + t - 1) / d_max; with
    equal-sized members it is exactly the :func:`gridirr.bounds.lower_bound`
    value.
    """
    return _root_bound(_prepare(family, kind)[1])


def min_strength(
    host: Graph,
    family: CoverFamily,
    kind: LabelingKind,
    k_max: int,
    start_k: Optional[int] = None,
    max_elements: Optional[int] = None,
) -> SearchResult:
    """Exact minimum budget admitting an irregular labeling, up to k_max.

    ``host`` must be the family's own host or equal to it, else
    :class:`InvalidParameterError` is raised.  Budgets below
    :func:`family_lower_bound` fail the root check and are skipped; an
    explicit ``start_k`` searches them anyway, at no node each.  A
    ``start_k`` above ``k_max`` leaves nothing to search and is rejected,
    so that None keeps meaning "searched and infeasible".  Two members
    weighing the same elements (none, say) give None at once, with no node.
    """
    require_positive(**{"budget cap": k_max})
    for what, value in (("start budget", start_k), ("element cap", max_elements)):
        if value is not None:
            require_positive(**{what: value})
    if start_k is not None and start_k > k_max:
        raise InvalidParameterError(
            f"start budget {start_k} is above the budget cap {k_max}"
        )
    if host is not family.host and host != family.host:
        raise InvalidParameterError("host must be the family's own host")
    host = family.host
    require_covering(family)
    lo, hi = kind_range(kind, host)
    _check_size(hi - lo, max_elements)
    members = () if family.window else family.indices  # window members differ in every kind
    if len({m[bisect_left(m, lo) : bisect_left(m, hi)] for m in members}) < len(members):
        return SearchResult(minimal_k=None, witness=None, nodes_explored=0, k_max=k_max)
    tables = _prepare(family, kind)
    start = _root_bound(tables[1]) if start_k is None else start_k
    total_nodes = 0
    for k in range(start, k_max + 1):
        vector, nodes = _search(tables, k)
        total_nodes += nodes
        if vector is not None:
            m, n = grid_dims(host)
            labels = GridLabels(host, lo, tuple(vector))
            witness = Labeling(kind=kind, k=k, labels=labels, m=m, n=n)
            verdict = verify_irregular(witness, family)
            if not verdict.accepted:
                raise AssertionError(
                    f"search produced a labeling the verifier rejects: "
                    f"{verdict.violation}"
                )
            return SearchResult(
                minimal_k=k,
                witness=witness,
                nodes_explored=total_nodes,
                k_max=k_max,
            )
    return SearchResult(
        minimal_k=None, witness=None, nodes_explored=total_nodes, k_max=k_max
    )
