"""Aggregated strength reports of (kind, m, c) over a range of n.

:func:`strength_reports` is the one report pipeline, :func:`strength_report`
its call for one n, and :data:`ROW_FIELDS` its one field table: ``gridirr
strength`` prints the fields as ``name=cell`` lines
(:meth:`StrengthReport.to_lines`) and ``gridirr sweep``, one call per (m, c),
as CSV rows (:meth:`StrengthReport.to_row`, under that header), cell for
cell the same.  A range builds its labeling once, at its top n, and reads
each row's facts from that labeling's labels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, count
from typing import Any, Optional

from .bounds import closed_form_strength, lower_bound
from .construct import LabelingKind, TotalVariant, construct_for_kind, kind_rows
from .covering import enumerate_windows, require_covering
from .grid import Graph, GridSpec, make_grid
from .search import min_strength
from .verify import RangeViolation, _first_collision, _label_layout, weight_profile

ROW_FIELDS = (  # the sweep CSV's columns: StrengthReport attributes, in order
    "kind", "m", "c", "n", "t", "lower_bound", "closed_form",
    "construction_verified", "as_printed_verified",
)


def _cell(value: Any) -> str:
    """A report value as text: an int as itself, a bool as true or false,
    None as empty, the kind as its value."""
    if type(value) is int:
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    return "" if value is None else value.value


@dataclass(frozen=True)
class StrengthReport:
    """Bounds, closed form, witness status, and optional oracle result.

    ``as_printed_verified`` is the verdict on the as-printed total variant
    (None for the vertex and edge kinds).
    """

    kind: LabelingKind
    m: int
    c: int
    n: int
    t: int
    lower_bound: int
    closed_form: int
    construction_verified: bool
    oracle_ran: bool = False
    oracle_k: Optional[int] = None
    erratum_note: Optional[str] = None
    as_printed_verified: Optional[bool] = None

    @property
    def oracle_agrees(self) -> Optional[bool]:
        """None when the oracle did not run; otherwise exact agreement."""
        if not self.oracle_ran:
            return None
        return self.oracle_k == self.closed_form

    def to_lines(self) -> list[str]:
        """``name=cell`` for each row cell but the last, the first five on one line."""
        pairs = [f"{name}={cell}" for name, cell in zip(ROW_FIELDS[:-1], self.to_row())]
        lines = [" ".join(pairs[:5]), *pairs[5:]]
        if self.oracle_ran:
            shown = "none" if self.oracle_k is None else str(self.oracle_k)
            lines.append(f"oracle_k={shown}")
        if self.erratum_note is not None:
            lines.append(f"erratum_note={self.erratum_note}")
        return lines

    def to_row(self) -> list[str]:
        """One ``gridirr sweep`` CSV row, the :data:`ROW_FIELDS` in order;
        the last cell is empty for the vertex and edge kinds."""
        return [_cell(getattr(self, name)) for name in ROW_FIELDS]


def strength_report(
    kind: LabelingKind, m: int, c: int, n: int, oracle: bool = False
) -> StrengthReport:
    """The report of one n: :func:`strength_reports` over ``[n]``."""
    return strength_reports(kind, m, c, [n], oracle)[0]


def strength_reports(
    kind: LabelingKind, m: int, c: int, ns: Sequence[int], oracle: bool = False
) -> list[StrengthReport]:
    """The report of each n of ``ns``, in order; with no n, nothing is built.

    The labeling is built once, at the top n, and its windows must cover
    its grid.  Row n reads its first n columns, the n - 1 gaps between
    them and its first n - c + 1 window weights: the labels lie in 1..k(n)
    when their running least and greatest do, and the weights differ when
    none repeats an earlier one.  The total kind's as-printed variant is
    built once too; its first label outside 1..k(n) on those columns, in
    canonical order (the edge (1,1)-(1,2), labeled at most 0), failing that
    its first collision, is the row's note.  The oracle searches the row's
    own windows; past its size cap (``GRIDIRR_ORACLE_MAX_ELEMENTS``, see
    :func:`gridirr.search.min_strength`) it raises ``ResourceLimitError``.
    """
    cfs = [closed_form_strength(kind, m, n, c) for n in ns]  # checks each scope first
    if not cfs:
        return []
    labeling = construct_for_kind(kind, m, max(ns), c)
    family = enumerate_windows(labeling.labels.host, c)  # the range's one grid
    require_covering(family)
    host, profile, seen = family.host, weight_profile(labeling, family), set()
    repeat = next((i for i, w in enumerate(profile) if w in seen or seen.add(w)), len(profile))
    columns, gaps = _rows(_label_layout(labeling, host)[0], kind, host)
    # per column j, its labels and those of gap j - 1 (column 1 pads the gap rows)
    by_column = [*columns, *(columns[0][:1] + gap for gap in gaps)]
    lows, highs = (list(accumulate(map(f, *by_column), f)) for f in (min, max))
    if kind is LabelingKind.TOTAL:  # the as-printed variant, read on the same grid
        printed = construct_for_kind(kind, m, max(ns), c, TotalVariant.AS_PRINTED)
        printed_profile, least = weight_profile(printed, family), min(cfs)
        places = zip((1, 2), _rows(range(sum(host.counts)), kind, host),
                     _rows(_label_layout(printed, host)[0], kind, host))
        outside = sorted(  # (position, last column, label); a label in 1..least is in every 1..k(n)
            (p, j, label) for first, positions, labels in places
            for at, row in zip(positions, labels)
            for j, p, label in zip(count(first), at, row) if not 1 <= label <= least
        )
    reports = []
    for n, cf in zip(ns, cfs):
        t, note, printed_verified = n - c + 1, None, None
        if kind is LabelingKind.TOTAL:
            first = next(((p, label) for p, j, label in outside
                          if j <= n and not 1 <= label <= cf), None)
            violation = (RangeViolation(host.element(first[0]), first[1], cf) if first
                         else _first_collision(printed_profile[:t]))
            printed_verified = violation is None
            note = (f"as-printed horizontal-edge denominator (2mc-m-c) fails verification: "
                    f"{violation}; the corrected variant uses 3mc-m-c and verifies")
        grid = make_grid(GridSpec(m, n)) if oracle else None
        oracle_k = min_strength(grid, enumerate_windows(grid, c), kind, cf).minimal_k if oracle else None
        bound = lower_bound(kind, t, m * c, 2 * m * c - m - c)
        verified = 1 <= lows[n - 1] and highs[n - 1] == cf and t <= repeat
        reports.append(StrengthReport(
            kind, m, c, n, t, bound, cf, verified, oracle, oracle_k, note, printed_verified
        ))
    return reports


def _rows(values: Sequence, kind: LabelingKind, host: Graph) -> list[list[list]]:
    """``values``, one per element of ``host``, cut into the kind's column
    rows and gap rows (:func:`gridirr.construct.kind_rows`)."""
    return [[[*values[a], *values[b]] for a, b in rows] for rows in kind_rows(kind, host)]
