"""Each demo, run as a script, prints exactly its ``demos/expected`` file."""

import contextlib
import difflib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_output_is_unchanged(path):
    expected_path = DEMOS / "expected" / f"{path.stem}.txt"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    expected, got = expected_path.read_bytes().decode("utf-8"), out.getvalue()
    if got != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True), got.splitlines(keepends=True),
            f"demos/expected/{expected_path.name}", "stdout",
        )
        raise AssertionError(f"{path.name}: output differs\n" + "".join(diff))
