"""Lower and upper bounds on irregularity strengths, and the grid closed forms.

For a host covered by t members each with vH vertices and eH edges, the
strength of any kind is at least 1 + ceil((t-1)/d) where d is the member's
relevant element count, and at most 2^(|V(G)|-1) (vertex kind) or
2^(|E(G)|-1) (edge and total kinds).  For m-by-n grids covered by width-c
windows the lower bound is met exactly: the closed forms below equal both
the bound and the budget of the corresponding construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import LabelingKind, ceil_div, kind_element_count, window_denominator
from .errors import InvalidParameterError
from .grid import Graph, GridSpec, make_grid, require_integers, require_window_scope


@dataclass(frozen=True)
class BoundReport:
    """Lower bound plus upper-bound exponent for one kind.

    The upper bound is 2**upper_exponent, kept symbolic because the
    exponent grows with the host's element count.
    """

    kind: LabelingKind
    lower: int
    upper_exponent: int


def lower_bound(kind: LabelingKind, t: int, vH: int, eH: int) -> int:
    """1 + ceil((t-1)/d) with d the member element count for the kind.

    d = vH for vertex labelings, eH for edge labelings, vH + eH for total
    labelings.  Sound for any host admitting a covering by t subgraphs of
    this shape.
    """
    require_integers(t=t, vH=vH, eH=eH)
    if t < 1:
        raise InvalidParameterError(f"member count must be >= 1, got {t}")
    d = kind_element_count(kind, vH, eH)
    if d < 1:
        raise InvalidParameterError(
            f"member element count for {kind.value} labelings must be >= 1"
        )
    return 1 + ceil_div(t - 1, d)


def upper_bound_exponent(kind: LabelingKind, host: Graph) -> int:
    """Exponent e such that 2**e bounds the strength from above.

    e = |V(G)| - 1 for the vertex kind, |E(G)| - 1 for edge and total.
    """
    vertices, edges = host.counts
    if kind is LabelingKind.VERTEX:
        if not vertices:
            raise InvalidParameterError("host has no vertices")
        return vertices - 1
    if not edges:
        raise InvalidParameterError("host has no edges")
    return edges - 1


def closed_form_strength(kind: LabelingKind, m: int, n: int, c: int) -> int:
    """Exact strength of the m-by-n grid under width-c window coverings.

    1 + ceil((n-c)/D) with D = mc, 2mc-m-c, or 3mc-m-c per kind; equals
    the t = n-c+1 lower bound, and the matching construction attains it.
    """
    require_window_scope(m, c, n)
    return 1 + ceil_div(n - c, window_denominator(kind, m, c))


def grid_bound_report(kind: LabelingKind, m: int, c: int, n: int) -> BoundReport:
    """Bounds for the m-by-n grid covered by its width-c windows: the
    counting bound of t = n - c + 1 windows of mc vertices and 2mc - m - c
    edges, and :func:`upper_bound_exponent` of the grid."""
    require_window_scope(m, c, n)
    return BoundReport(
        kind=kind,
        lower=lower_bound(kind, n - c + 1, m * c, 2 * m * c - m - c),
        upper_exponent=upper_bound_exponent(kind, make_grid(GridSpec(m, n))),
    )
