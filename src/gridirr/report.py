"""Aggregated strength reports for one (kind, m, c, n) query.

:func:`strength_report` is the one report pipeline and :data:`ROW_FIELDS`
its one field table: ``gridirr strength`` prints the fields as ``name=cell``
lines (:meth:`StrengthReport.to_lines`) and ``gridirr sweep`` as CSV rows
(:meth:`StrengthReport.to_row`, under that header), cell for cell the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .bounds import closed_form_strength, lower_bound
from .construct import LabelingKind, TotalVariant, construct_for_kind
from .covering import enumerate_windows
from .search import min_strength
from .verify import verify_irregular

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
    kind: LabelingKind,
    m: int,
    c: int,
    n: int,
    oracle: bool = False,
) -> StrengthReport:
    """Compute bounds and closed form, verify the construction, optionally
    confirm minimality by exhaustive search up to the closed form.  The
    windows, the verdicts and the oracle read the first construction's grid.

    For the total kind the as-printed variant is verified too, and always
    fails: its horizontal edge (1,1)-(1,2) gets a label of at most 0.
    Raises :class:`gridirr.errors.ResourceLimitError` when ``oracle`` is
    set and the instance exceeds the search size cap
    (``GRIDIRR_ORACLE_MAX_ELEMENTS``, see :func:`gridirr.search.min_strength`).
    """
    cf = closed_form_strength(kind, m, n, c)  # checks the scope first
    labeling = construct_for_kind(kind, m, n, c)
    family = enumerate_windows(labeling.labels.host, c)  # the row's one grid
    verdict = verify_irregular(labeling, family)
    as_printed_verified: Optional[bool] = None
    note: Optional[str] = None
    if kind is LabelingKind.TOTAL:
        printed = construct_for_kind(kind, m, n, c, TotalVariant.AS_PRINTED)
        printed_verdict = verify_irregular(printed, family)
        as_printed_verified = printed_verdict.accepted
        note = (
            f"as-printed horizontal-edge denominator (2mc-m-c) fails "
            f"verification: {printed_verdict.violation}; the corrected "
            f"variant uses 3mc-m-c and verifies"
        )
    oracle_k = min_strength(family.host, family, kind, cf).minimal_k if oracle else None
    return StrengthReport(
        kind=kind,
        m=m,
        c=c,
        n=n,
        t=family.t,
        lower_bound=lower_bound(kind, family.t, m * c, 2 * m * c - m - c),
        closed_form=cf,
        construction_verified=verdict.accepted and labeling.max_label() == cf,
        oracle_ran=oracle,
        oracle_k=oracle_k,
        erratum_note=note,
        as_printed_verified=as_printed_verified,
    )
