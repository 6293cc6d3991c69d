"""The four workloads: one pass of ops each, with each op's check.

An op runs one user-visible job (a CLI call, or one oracle certificate)
and returns its raw output; its check compares that output with what
``inputs`` predicts and returns a failure reason, or None.  Ops call the
package through module attributes looked up at call time
(``gridirr.cli.main``, ``gridirr.search.min_strength``), so a traced
pass sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import gridirr.cli
import gridirr.search
from gridirr import GridSpec, LabelingKind, enumerate_windows, make_grid
from gridirr.verify import verify_irregular

import inputs

# Acceptance range of the sweep: 2 <= m <= c <= 6, m <= 4, n = c .. 40.
SWEEP_MC = [(m, c) for m in range(2, 5) for c in range(m, 7)]
VERIFY_GRID_RUNGS = [(3, 5, 200), (4, 6, 400), (5, 8, 600)]
VERIFY_FAMILY_RUNGS = [(2, 3, 100), (3, 5, 200), (4, 6, 400)]

# The oracle's default element cap, passed explicitly so the environment
# cannot change which instances run.
CERTIFY_MAX_ELEMENTS = 24
CERTIFY_C_MAX = 6
# Vertex 2x2 windows on 11 and 12 columns lie inside the cap but are
# unbounded in practice: (2,2,11) took 270 s on a 2-CPU machine, and
# (2,2,12) is larger.
CERTIFY_EXCLUDED = {("vertex", 2, 2, 11), ("vertex", 2, 2, 12)}


@dataclass
class Op:
    label: str
    run: Callable[[bool], object]  # argument: True in the traced pass
    check: Callable[[object], Optional[str]]


def _cli(argv: list[str], traced: bool = False) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gridirr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_streams(expected: tuple[int, str, str], got: tuple[int, str, str]) -> Optional[str]:
    if got != expected:
        return f"expected {expected!r}, got {got!r}"
    return None


def _check_sweep(path: Path, expected_csv: str, result) -> Optional[str]:
    rows = expected_csv.count("\n") - 1
    problem = _check_streams((0, f"wrote {rows} rows to {path}\n", ""), result)
    if problem:
        return problem
    written = path.read_text(encoding="utf-8")
    if written != expected_csv:
        return f"CSV {path.name} differs from the expected {rows} rows"
    return None


def sweep(seed: int, tmp: Path) -> list[Op]:
    ops = []
    for kind in inputs.KINDS:
        for m, c in SWEEP_MC:
            path = tmp / f"sweep-{kind}-{m}-{c}.csv"
            argv = [
                "sweep", "--kind", kind, "--m-range", str(m), "--c-range", str(c),
                "--n-range", f"{c}..{inputs.SWEEP_N_MAX}", "--csv", str(path),
            ]
            expected = inputs.sweep_csv(kind, m, c)
            ops.append(Op(f"sweep {kind} m={m} c={c}", partial(_cli, argv),
                          partial(_check_sweep, path, expected)))
    return ops


def _labelings(rungs, seed: int, tmp: Path):
    """Write each rung's three labelings per kind; yield what the ops need."""
    rng = random.Random(f"{seed}:mutations")
    for m, c, n in rungs:
        for kind in inputs.KINDS:
            k = inputs.closed_form(kind, m, c, n)
            for outcome, labels in inputs.mutations(kind, m, c, n, rng).items():
                path = tmp / f"labeling-{kind}-{m}-{c}-{n}-{outcome}.json"
                path.write_text(inputs.labeling_json(kind, k, m, n, labels), encoding="utf-8")
                yield (m, c, n), kind, k, outcome, labels, path


def _expect(kind, k, labels, m, c, n, outcome, reverse):
    """Expected streams, after checking the input makes the intended case."""
    expected = inputs.expected_verify(k, labels, m, c, n, reverse)
    t = n - c + 1
    intended = {
        "accept": "ACCEPT",
        "collide": f"REJECT: members {t - 1} and {t}" if reverse else "REJECT: members 1 and 2",
        "range": f"REJECT: label {k + 1} at",
    }[outcome]
    if not (expected[1] + expected[2]).startswith(intended):
        raise AssertionError(f"{kind} {m},{c},{n} {outcome}: input gives {expected!r}")
    return expected


def verify_grid(seed: int, tmp: Path) -> list[Op]:
    ops = []
    for (m, c, n), kind, k, outcome, labels, path in _labelings(VERIFY_GRID_RUNGS, seed, tmp):
        argv = ["verify", "--labeling", str(path), "--grid", f"{m},{c},{n}"]
        expected = _expect(kind, k, labels, m, c, n, outcome, reverse=False)
        ops.append(Op(f"verify --grid {kind} {m},{c},{n} {outcome}", partial(_cli, argv),
                      partial(_check_streams, expected)))
    return ops


def verify_family(seed: int, tmp: Path) -> list[Op]:
    families = {}
    for m, c, n in VERIFY_FAMILY_RUNGS:
        for reverse in (False, True):
            path = tmp / f"family-{m}-{c}-{n}-{'reversed' if reverse else 'forward'}.json"
            inputs.write_window_family(path, m, c, n, reverse)
            families[(m, c, n, reverse)] = path
    ops = []
    for (m, c, n), kind, k, outcome, labels, path in _labelings(VERIFY_FAMILY_RUNGS, seed, tmp):
        for reverse in (False, True):
            argv = ["verify", "--labeling", str(path), "--family", str(families[(m, c, n, reverse)])]
            expected = _expect(kind, k, labels, m, c, n, outcome, reverse)
            order = "reversed" if reverse else "forward"
            ops.append(Op(f"verify --family {kind} {m},{c},{n} {outcome} {order}",
                          partial(_cli, argv), partial(_check_streams, expected)))
    return ops


def certify_instances() -> list[tuple[str, int, int, int]]:
    return [
        (kind, m, c, n)
        for kind in inputs.KINDS
        for m in range(2, CERTIFY_C_MAX + 1)
        for c in range(m, CERTIFY_C_MAX + 1)
        for n in range(c, CERTIFY_MAX_ELEMENTS + 1)
        if inputs.element_count(kind, m, n) <= CERTIFY_MAX_ELEMENTS
        and (kind, m, c, n) not in CERTIFY_EXCLUDED
    ]


def _certificate(host, family, kind, k_max: int, traced: bool):
    """min_strength from k = 1; traced, as one call per budget."""
    if not traced:
        return gridirr.search.min_strength(
            host, family, kind, k_max=k_max, start_k=1, max_elements=CERTIFY_MAX_ELEMENTS
        )
    for k in range(1, k_max + 1):
        result = gridirr.search.min_strength(
            host, family, kind, k_max=k, start_k=k, max_elements=CERTIFY_MAX_ELEMENTS
        )
        if result.minimal_k is not None:
            break
    return result


def _check_certificate(family, closed_form: int, result) -> Optional[str]:
    if result.minimal_k != closed_form:
        return f"minimal_k={result.minimal_k}, closed form {closed_form}"
    if not verify_irregular(result.witness, family).accepted:
        return "witness rejected by verify_irregular"
    return None


def certify(seed: int, tmp: Path) -> list[Op]:
    ops = []
    for kind, m, c, n in certify_instances():
        host = make_grid(GridSpec(m, n))
        family = enumerate_windows(host, c)
        cf = inputs.closed_form(kind, m, c, n)
        ops.append(Op(f"certify {kind} {m},{c},{n}",
                      partial(_certificate, host, family, LabelingKind(kind), cf),
                      partial(_check_certificate, family, cf)))
    return ops


WORKLOADS = {
    "sweep": sweep,
    "verify_grid": verify_grid,
    "verify_family": verify_family,
    "certify": certify,
}
