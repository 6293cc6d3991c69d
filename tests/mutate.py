"""Which statements of the package no test notices: a deletion run, by hand.

    PYTHONPATH=src python tests/mutate.py [module ...]

Each mutant replaces one statement in a function body of ``src/gridirr``
with ``pass`` (an ``elif`` with ``else: pass``); docstrings are skipped.
A mutant first runs its module's own tests (``MODULE_TESTS``) with
``-x``; one that survives them runs all of tier-1.  A mutant that survives
its module's tests is printed as its module, line and statement, after
"caught late" if the rest of tier-1 catches it and "survived" if not, and
the totals close the run.  A survivor is either a missing test or code
that no output depends on; a late catch is a test its module's own file
lacks.

The run works on a copy of the checkout (without ``.git``) in a temporary
directory, because tier-1 rewrites ``erratum_report.csv``; it writes
nothing in the checkout.  One pytest process runs at a time, each with a
time limit; a mutant that overruns it counts as caught.  With no module
named it runs all of ``MODULE_TESTS`` (about 40 minutes on 2 CPUs).  It
exits 1 if the unmutated copy fails its tests.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE_TESTS = {
    "search": ["test_search"],
    "verify": ["test_verify"],
    "covering": ["test_covering", "test_indexed_families", "test_window_fastpath"],
    "construct": ["test_construct"],
    "grid": ["test_grid"],
    "io": ["test_io"],
    "report": ["test_report"],
    "cli": ["test_cli", "test_transcript"],
    "bounds": ["test_bounds"],
}
TIME_LIMIT_S = 120  # per pytest process: tier-1 takes about 30 s, a module's tests at most 15 s


def statements(source: str) -> list[ast.stmt]:
    """Every statement in a function body, nested ones included, in line
    order, less the docstrings."""
    functions = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    docstrings = {
        id(node.body[0]) for node in functions
        if isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    found = {
        id(stmt): stmt for node in functions for top in node.body for stmt in ast.walk(top)
        if isinstance(stmt, ast.stmt) and id(stmt) not in docstrings
    }
    return sorted(found.values(), key=lambda stmt: (stmt.lineno, stmt.col_offset))


def deleted(source: str, stmt: ast.stmt) -> str:
    """``source`` with ``stmt`` replaced by ``pass``, padded with blank lines
    so that every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first = lines[stmt.lineno - 1]
    is_elif = first[stmt.col_offset :].startswith("elif")
    text = first[: stmt.col_offset] + ("else: pass" if is_elif else "pass")
    text += lines[stmt.end_lineno - 1][stmt.end_col_offset :]
    padding = ["\n"] * (stmt.end_lineno - stmt.lineno)
    return "".join(lines[: stmt.lineno - 1] + [text] + padding + lines[stmt.end_lineno :])


def passes(copy: Path, tests: list[str]) -> bool:
    """Whether pytest passes ``tests`` (all of tier-1 when empty) in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += [f"tests/{name}.py" for name in tests] or ["--continue-on-collection-errors"]
    try:
        return subprocess.run(
            command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIME_LIMIT_S,
        ).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def run_module(copy: Path, module: str) -> tuple[int, int, int]:
    """Mutate every statement of one module: (mutants, caught by tier-1 only,
    survivors)."""
    path = copy / "src" / "gridirr" / f"{module}.py"
    source = path.read_text()
    mutants = late = survivors = 0
    try:
        for stmt in statements(source):
            mutant = deleted(source, stmt)
            compile(mutant, str(path), "exec")  # a deletion always leaves valid code
            path.write_text(mutant)
            mutants += 1
            if not passes(copy, MODULE_TESTS[module]):
                continue
            if not passes(copy, []):
                late += 1
                outcome = "caught late"
            else:
                survivors += 1
                outcome = "survived"
            text = ast.get_source_segment(source, stmt).splitlines()[0].strip()
            print(f"  {outcome}  {module}.py:{stmt.lineno}  {text}", flush=True)
    finally:
        path.write_text(source)
    return mutants, late, survivors


def main(modules: list[str]) -> int:
    # a stopped run still kills its pytest process and removes its copy
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    unknown = sorted(set(modules) - set(MODULE_TESTS))
    if unknown:
        print(f"no tests listed for {', '.join(unknown)}; known: {', '.join(MODULE_TESTS)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"
        ))
        if not passes(copy, []):
            print("the unmutated copy fails tier-1; no mutant run")
            return 1
        totals = [0, 0, 0]
        for module in modules or list(MODULE_TESTS):
            counts = run_module(copy, module)
            print(f"{module}: {counts[0]} mutants, {counts[0] - counts[2]} caught "
                  f"({counts[1]} only by tier-1), {counts[2]} survived", flush=True)
            totals = [a + b for a, b in zip(totals, counts)]
    print(f"total: {totals[0]} mutants, {totals[0] - totals[2]} caught "
          f"({totals[1]} only by tier-1), {totals[2]} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
