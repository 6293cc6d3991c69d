"""Which statements of the package no test notices: a deletion run, by hand.

    PYTHONPATH=src python tests/mutate.py [module ...]

Each mutant makes one edit in a function body of ``src/gridirr``
(docstrings are skipped): it replaces one statement with ``pass`` (an
``elif`` with ``else: pass``), flips one comparison (``<`` with ``<=``,
``>`` with ``>=``), swaps one ``+`` and ``-`` (``+=`` and ``-=`` too), or
moves one int constant by 1 either way.  A mutant first runs its module's
own tests (``MODULE_TESTS``) with ``-x``; one that survives them runs all
of tier-1.  A mutant that survives its module's tests is printed as its
module, line, column and edit, after "caught late" if the rest of tier-1 catches
it and "survived" if not, and the totals close the run.  A survivor is
either a missing test or code that no output depends on; a late catch is
a test its module's own file lacks.

The run works on a copy of the checkout (without ``.git``) in a temporary
directory, because each mutant edits a source file; it writes nothing in
the checkout.  One pytest process runs at a time, each with a
time limit; a mutant that overruns it counts as caught.  With no module
named it runs all of ``MODULE_TESTS``: the statement deletions alone
took about 40 minutes on 2 CPUs, and the other edits add three fourths
as many mutants again.  It exits 1 if the unmutated copy fails its tests.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE_TESTS = {
    "search": ["test_search"],
    "verify": ["test_verify"],
    "covering": ["test_covering", "test_indexed_families", "test_window_fastpath"],
    "construct": ["test_construct"],
    "grid": ["test_grid", "test_io"],
    "io": ["test_io"],
    "report": ["test_report"],
    "cli": ["test_cli", "test_transcript"],
    "bounds": ["test_bounds"],
}
TIME_LIMIT_S = 120  # per pytest process: tier-1 takes about 40 s, a module's tests at most 15 s
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "+": "-", "-": "+", "+=": "-=", "-=": "+="}


def body_nodes(source: str) -> list[ast.AST]:
    """Every node in a function body, nested ones included, in line order,
    less the docstrings and what they hold."""
    functions = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    docstrings = {
        id(node.body[0]) for node in functions
        if isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    found = {
        id(node): node for function in functions for top in function.body
        if id(top) not in docstrings for node in ast.walk(top) if hasattr(node, "lineno")
    }
    return sorted(found.values(), key=lambda node: (node.lineno, node.col_offset))


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


def replaced(source: str, start: tuple[int, int], end: tuple[int, int], text: str) -> str:
    """``source`` with the span from ``start`` to ``end`` on one line, each
    (line, column), replaced by ``text``."""
    lines = source.splitlines(keepends=True)
    (row, col), (_, end_col) = start, end
    lines[row - 1] = lines[row - 1][:col] + text + lines[row - 1][end_col:]
    return "".join(lines)


def operator_sites(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) of each operator token in :data:`FLIPS` that joins
    two operands in a function body: a comparison, a binary ``+`` or
    ``-``, an augmented ``+=`` or ``-=``.  A unary minus is none of them."""
    gaps = []  # the spans between two operands, each holding one operator
    for node in body_nodes(source):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            gaps += [
                (a, b) for a, b, op in zip(operands, operands[1:], node.ops)
                if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            ]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub)):
            gaps.append((node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value))
    tokens = [
        token for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.OP and token.string in FLIPS
    ]
    return [
        (token.start, token.end) for a, b in gaps for token in tokens
        if (a.end_lineno, a.end_col_offset) <= token.start and token.end <= (b.lineno, b.col_offset)
    ]


def mutants(source: str) -> list[tuple[tuple[int, int], str, str]]:
    """((line, column), edit, mutated source) for each mutant of
    ``source``, in line order: the statement deletions, the operator flips
    and the int constant moves."""
    nodes = body_nodes(source)
    found = [
        ((stmt.lineno, stmt.col_offset), ast.get_source_segment(source, stmt).splitlines()[0].strip(),
         deleted(source, stmt))
        for stmt in nodes if isinstance(stmt, ast.stmt)
    ]
    for start, end in operator_sites(source):
        token = source.splitlines()[start[0] - 1][start[1] : end[1]]
        found.append((start, f"{token} -> {FLIPS[token]}", replaced(source, start, end, FLIPS[token])))
    for node in nodes:
        if isinstance(node, ast.Constant) and type(node.value) is int:
            start, end = (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)
            for value in (node.value - 1, node.value + 1):
                found.append((start, f"{node.value} -> {value}", replaced(source, start, end, str(value))))
    return sorted(found, key=lambda mutant: mutant[0])


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
    """Run every mutant of one module: (mutants, caught by tier-1 only,
    survivors)."""
    path = copy / "src" / "gridirr" / f"{module}.py"
    source = path.read_text()
    count = late = survivors = 0
    try:
        for (line, col), edit, mutant in mutants(source):
            compile(mutant, str(path), "exec")  # every edit leaves valid code
            path.write_text(mutant)
            count += 1
            if not passes(copy, MODULE_TESTS[module]):
                continue
            if not passes(copy, []):
                late += 1
                outcome = "caught late"
            else:
                survivors += 1
                outcome = "survived"
            print(f"  {outcome}  {module}.py:{line}:{col + 1}  {edit}", flush=True)
    finally:
        path.write_text(source)
    return count, late, survivors


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
