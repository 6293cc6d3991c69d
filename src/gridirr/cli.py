"""Command-line interface.

Exit codes: 0 success/accept, 1 usage error or malformed input,
2 verification rejection, 3 search resource limit.
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import product
from typing import Optional

from . import io as gio
from .bounds import grid_bound_report
from .construct import Labeling, LabelingKind, TotalVariant, construct_for_kind
from .covering import CoverFamily, enumerate_windows
from .errors import GridirrError, ResourceLimitError
from .grid import Graph, GridSpec, grid_dims, make_grid, require_window_scope
from .report import ROW_FIELDS, strength_report, strength_reports
from .verify import require_no_stray_labels, verify_irregular

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_ints(value: str, count: int, what: str) -> list[int]:
    parts = value.split(",")
    try:
        if len(parts) != count:
            raise ValueError
        return [int(p) for p in parts]
    except ValueError:
        raise _UsageError(
            f"{what} must be {count} comma-separated integers, got {value!r}"
        ) from None


def _parse_range(value: str, what: str) -> tuple[int, int]:
    text = value.split("..")
    try:
        if len(text) == 1:
            lo = hi = int(text[0])
        elif len(text) == 2:
            lo, hi = int(text[0]), int(text[1])
        else:
            raise ValueError
    except ValueError:
        raise _UsageError(
            f"{what} must look like A..B (or a single integer), got {value!r}"
        ) from None
    if lo > hi:
        raise _UsageError(f"{what} is empty: {value!r}")
    return lo, hi


def _require_dims(labeling: Labeling, m: int, n: int) -> None:
    """Reject a labeling file made for another grid than the m-by-n one."""
    if (labeling.m, labeling.n) != (m, n):
        raise _UsageError(
            f"labeling is for a {labeling.m}x{labeling.n} grid, not {m}x{n}"
        )


def _verdict_exit(labeling: Labeling, family: CoverFamily) -> int:
    verdict = verify_irregular(labeling, family)
    if verdict.accepted:
        print(
            f"ACCEPT: {family.t} member weights pairwise distinct "
            f"within budget k={labeling.k}"
        )
        return EXIT_OK
    print(f"REJECT: {verdict.violation}", file=sys.stderr)
    return EXIT_REJECTED


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = LabelingKind(args.kind)
    if args.variant is not None and kind is not LabelingKind.TOTAL:
        raise _UsageError("--variant only applies to --kind total")
    variant = (
        TotalVariant.AS_PRINTED
        if args.variant == "as-printed"
        else TotalVariant.CORRECTED
    )
    labeling = construct_for_kind(kind, args.m, args.n, args.c, variant)
    with open(args.out, "w", encoding="utf-8") as fp:
        gio.dump_labeling(labeling, fp)
    print(f"wrote {kind.value} labeling with k={labeling.k} to {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.labeling, "r", encoding="utf-8") as fp:
        labeling = gio.load_labeling(fp)
    if args.family is not None:
        with open(args.family, "r", encoding="utf-8") as fp:
            family = gio.load_family(fp)
        _require_dims(labeling, *grid_dims(family.host))
    else:
        m, c, n = _parse_ints(args.grid, 3, "--grid")
        require_window_scope(m, c, n)
        _require_dims(labeling, m, n)
        family = enumerate_windows(make_grid(GridSpec(m, n)), c)
    return _verdict_exit(labeling, family)


def _cmd_bound(args: argparse.Namespace) -> int:
    report = grid_bound_report(LabelingKind(args.kind), args.m, args.c, args.n)
    print(f"lower_bound={report.lower}")
    print(f"upper_bound=2^{report.upper_exponent}")
    return EXIT_OK


def _cmd_strength(args: argparse.Namespace) -> int:
    kind = LabelingKind(args.kind)
    report = strength_report(kind, args.m, args.c, args.n, oracle=args.oracle)
    for line in report.to_lines():
        print(line)
    if report.oracle_agrees is False:  # the oracle's reason comes first
        shown = "none" if report.oracle_k is None else report.oracle_k
        why = f"oracle found minimal k={shown} but the closed form gives {report.closed_form}"
    elif not report.construction_verified:
        why = "constructed labeling failed verification"
    else:
        return EXIT_OK
    print(f"DISCREPANCY: {why}", file=sys.stderr)
    return EXIT_REJECTED


def _cmd_sweep(args: argparse.Namespace) -> int:
    kind = LabelingKind(args.kind)
    m_lo, m_hi = _parse_range(args.m_range, "--m-range")
    c_lo, c_hi = _parse_range(args.c_range, "--c-range")
    n_lo, n_hi = _parse_range(args.n_range, "--n-range")
    with open(args.csv, "w", encoding="utf-8", newline="") as fp:  # before any row is built
        pairs, ns = product(range(m_lo, m_hi + 1), range(c_lo, c_hi + 1)), range(n_lo, n_hi + 1)
        rows = [report.to_row() for m, c in pairs  # one call per (m, c), over its n in scope
                for report in strength_reports(kind, m, c, [n for n in ns if 2 <= m <= c <= n])]
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    m, n = _parse_ints(args.grid, 2, "--grid")
    if m < 1 or n < 1:
        raise _UsageError(f"grid dimensions must be positive, got {m},{n}")
    host: Graph = make_grid(GridSpec(m, n))
    labeling = None
    if args.labeling is not None:
        with open(args.labeling, "r", encoding="utf-8") as fp:
            labeling = gio.load_labeling(fp)
        _require_dims(labeling, m, n)
        require_no_stray_labels(labeling, host)
    if args.format == "dot":
        sys.stdout.write(gio.dot_export(host, labeling))
    elif labeling is not None:
        gio.dump_labeling(labeling, sys.stdout)
    else:
        gio._write({"grid": [m, n], **gio.elements_to_json_dict(host)}, sys.stdout)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gridirr",
        description=(
            "Construct, verify, bound, and certify irregular labelings of "
            "grid graphs under sliding-window coverings."
        ),
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    kinds = [k.value for k in LabelingKind]
    grid = argparse.ArgumentParser(add_help=False)  # construct, bound, strength
    grid.add_argument("--kind", required=True, choices=kinds)
    grid.add_argument("-m", type=int, required=True)
    grid.add_argument("-c", type=int, required=True)
    grid.add_argument("-n", type=int, required=True)

    p = sub.add_parser(
        "construct", help="write a constructed labeling file", parents=[grid]
    )
    p.add_argument("--variant", choices=["corrected", "as-printed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a labeling against a family")
    p.add_argument("--labeling", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family")
    group.add_argument("--grid", metavar="M,C,N")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="print lower and upper bounds", parents=[grid])
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("strength", help="print a strength report", parents=[grid])
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_strength)

    p = sub.add_parser("sweep", help="emit a CSV table over parameter ranges")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--m-range", required=True, metavar="A..B")
    p.add_argument("--c-range", required=True, metavar="A..B")
    p.add_argument("--n-range", required=True, metavar="A..B")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export", help="emit DOT or canonical JSON")
    p.add_argument("--grid", required=True, metavar="M,N")
    p.add_argument("--labeling")
    p.add_argument("--format", required=True, choices=["dot", "json"])
    p.set_defaults(func=_cmd_export)

    return parser


PARSER = build_parser()  # parsing keeps no state, so every call shares it


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GridirrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
