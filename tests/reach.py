"""Which lines of the package no run reaches: a line trace, run by hand.

    PYTHONPATH=src python tests/reach.py

It traces the lines of ``src/gridirr`` with ``sys.settrace`` over

* an in-process pytest run of ``test_transcript.py`` and
  ``test_mutation_corpus.py``;
* the four demos, with their output discarded;
* one seed-1 pass of each ``perfbench/workloads.py`` workload, with every
  op's check;

then prints, module by module, each executable line (a line where
bytecode starts) that none of them reached, and the total.  What is left
are the candidates for a merge or a deletion: error branches, API-only
code and backtracking that only unit tests reach.  It writes nothing in
the checkout: no bytecode, no pytest cache, and the workloads' files go
to a temporary directory.  It exits 1 if a test or an op check fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib
import dis
import io
import runpy
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridirr"


def executable_lines(path: Path) -> set[int]:
    """The lines where some bytecode of the module starts."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        codes += [const for const in code.co_consts if hasattr(const, "co_code")]
    return lines


def traced(reached: dict[str, set[int]], run) -> None:
    """Run ``run()`` with every line it executes in the package recorded."""
    files: dict[str, object] = {}  # a code file name -> its line set, or None

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = reached.get(str(Path(name).resolve()))
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    sys.settrace(scope)
    try:
        run()
    finally:
        sys.settrace(None)


def run_tests() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pytest.main([
            "-q", "-p", "no:cacheprovider",
            str(ROOT / "tests" / "test_transcript.py"),
            str(ROOT / "tests" / "test_mutation_corpus.py"),
        ])
    return [] if code == 0 else [f"pytest exited {code}:\n{out.getvalue()}"]


def run_demos() -> list[str]:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    return []


def run_workloads() -> list[str]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_ops in workloads.WORKLOADS.items():
            for op in make_ops(1, Path(tmp)):
                failure = op.check(op.run(False))
                if failure is not None:
                    failures.append(f"{name}: {op.label}: {failure}")
    return failures


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    reached: dict[str, set[int]] = {str(path): set() for path in modules}
    failures = []
    for run in (run_tests, run_demos, run_workloads):
        traced(reached, lambda: failures.extend(run()))
    total = 0
    for path in modules:
        missed = sorted(executable_lines(path) - reached[str(path)])
        total += len(missed)
        if missed:
            source = path.read_text().splitlines()
            print(f"{path.relative_to(ROOT)}: {len(missed)}")
            for line in missed:
                print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total: {total} executable lines reached by no run")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
