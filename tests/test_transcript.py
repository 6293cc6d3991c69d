"""The CLI transcript: a fixed list of ``gridirr`` calls, run in process,
against the committed ``cli_transcript.txt``.

Each entry records a call's exit code, stdout, stderr and the files it
writes, with the temporary directory shown as ``<tmp>``.  The calls reach
every subcommand, the usage errors and the malformed files of the CI
process-boundary step.  A change that alters an output on purpose
rewrites the transcript in the same diff::

    PYTHONPATH=src python tests/test_transcript.py

and the diff of ``cli_transcript.txt`` shows what changed.
"""

from __future__ import annotations

import difflib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import takewhile
from pathlib import Path
from unittest.mock import patch

from gridirr import GridSpec, LabelingKind, construct_for_kind, enumerate_windows, make_grid
from gridirr.cli import main
from gridirr.io import dump_family, dump_labeling

EXPECTED = Path(__file__).with_name("cli_transcript.txt")


def _inputs() -> dict[str, object]:
    """The input files, by name: JSON values, written as the CI step writes
    them (``json.dump``, one line)."""
    def labeling(kind, m, c, n):
        out = io.StringIO()
        dump_labeling(construct_for_kind(kind, m, n, c), out)
        return json.loads(out.getvalue())

    vertex = labeling(LabelingKind.VERTEX, 2, 2, 5)
    out = io.StringIO()
    dump_family(enumerate_windows(make_grid(GridSpec(2, 5)), 2), out)
    forward = json.loads(out.getvalue())
    files = {
        "vertex.json": vertex,
        "vertex_2x6.json": labeling(LabelingKind.VERTEX, 2, 2, 6),
        "edge.json": labeling(LabelingKind.EDGE, 2, 2, 5),
        "total.json": labeling(LabelingKind.TOTAL, 2, 2, 5),
        "forward.json": forward,
        "bad_vertex.json": {"kind": "vertex", "k": 5, "m": 2, "n": 5,
                            "labels": [{"element": {"v": [0, 1]}, "label": 1}]},
        "bad_edge.json": {"host": {"grid": [2, 5]},
                          "members": [{"vertices": [], "edges": [[[1, 1], [1, 1]]]}]},
        "outside.json": {"host": {"grid": [2, 5]}, "members": [
            {"vertices": [[3, 1]], "edges": []},
            {"vertices": [[1, 1], [2, 1]], "edges": [[[2, 1], [1, 1]]]},
        ]},
        "diagonal.json": {"host": {"grid": [2, 5]},
                          "members": [{"vertices": [], "edges": [[[1, 1], [2, 2]]]}]},
        "path.json": {
            "host": {"vertices": [[1, 1], [1, 2], [1, 3]],
                     "edges": [[[1, 1], [1, 2]], [[1, 2], [1, 3]]]},
            "members": [{"vertices": [[1, 1], [1, 2]], "edges": [[[1, 1], [1, 2]]]},
                        {"vertices": [[1, 2], [1, 3]], "edges": [[[1, 2], [1, 3]]]}],
        },
        "path_labels.json": {"kind": "vertex", "k": 3, "m": 1, "n": 3, "labels": [
            {"element": {"v": [1, j]}, "label": j} for j in (1, 2, 3)
        ]},
        "pair.json": {
            "host": {"vertices": [[1, 1], [1, 2]], "edges": [[[1, 1], [1, 2]]]},
            "members": [{"vertices": [[1, 1], [1, 3]], "edges": []},
                        {"vertices": [[1, 2]], "edges": [[[1, 1], [1, 2]]]}],
        },
        "pair_labels.json": {"kind": "vertex", "k": 2, "m": 1, "n": 2, "labels": [
            {"element": {"v": [1, j]}, "label": j} for j in (1, 2)
        ]},
        "not_json.json": "x",
    }
    stray = json.loads(json.dumps(vertex))
    stray["labels"].append({"element": {"v": [3, 1]}, "label": 1})
    edge_stray = json.loads(json.dumps(files["edge.json"]))
    edge_stray["labels"].append({"element": {"v": [1, 1]}, "label": 1})
    repeated = json.loads(json.dumps(vertex))
    repeated["labels"].append(repeated["labels"][3])
    short_bad = json.loads(json.dumps(vertex))
    del short_bad["labels"][0]
    short_bad["labels"][8]["label"] = "x"
    edge_short = json.loads(json.dumps(files["edge.json"]))
    del edge_short["labels"][0]
    bad_true = json.loads(json.dumps(forward))
    bad_true["members"][2]["vertices"][3] = [True, 1]
    swapped = json.loads(json.dumps(forward))
    for member in swapped["members"]:
        for edge in member["edges"]:
            edge.reverse()
    reversed_ = {"host": forward["host"], "members": forward["members"][::-1]}
    files.update({
        "stray.json": stray, "edge_stray.json": edge_stray, "repeated.json": repeated,
        "short_bad.json": short_bad, "edge_short.json": edge_short,
        "bad_true.json": bad_true, "swapped.json": swapped, "reversed.json": reversed_,
    })
    return files


CALLS = [
    # construct: each kind, and the total construction as printed
    "construct --kind vertex -m 2 -c 2 -n 5 --out <tmp>/out_vertex.json",
    "construct --kind edge -m 2 -c 2 -n 4 --out <tmp>/out_edge.json",
    "construct --kind total -m 2 -c 2 -n 4 --out <tmp>/out_total.json",
    "construct --kind total --variant as-printed -m 2 -c 2 -n 5 --out <tmp>/ap.json",
    "construct --kind vertex -m 3 -c 3 -n 4 --out <tmp>/out_vertex_3x4.json",
    # verify against the grid's windows
    "verify --labeling <tmp>/vertex.json --grid 2,2,5",
    "verify --labeling <tmp>/edge.json --grid 2,2,5",
    "verify --labeling <tmp>/total.json --grid 2,2,5",
    "verify --labeling <tmp>/ap.json --grid 2,2,5",
    "verify --labeling <tmp>/out_vertex_3x4.json --grid 3,3,4",
    "verify --labeling <tmp>/vertex.json --grid 2,3,5",
    # verify against family files: a grid host, an explicit host
    "verify --labeling <tmp>/total.json --family <tmp>/forward.json",
    "verify --labeling <tmp>/total.json --family <tmp>/reversed.json",
    "verify --labeling <tmp>/total.json --family <tmp>/swapped.json",
    "verify --labeling <tmp>/ap.json --family <tmp>/forward.json",
    "verify --labeling <tmp>/path_labels.json --family <tmp>/path.json",
    # malformed labeling and family files
    "verify --labeling <tmp>/bad_vertex.json --grid 2,2,5",
    "verify --labeling <tmp>/ap.json --family <tmp>/bad_edge.json",
    "verify --labeling <tmp>/ap.json --family <tmp>/outside.json",
    "verify --labeling <tmp>/ap.json --family <tmp>/diagonal.json",
    "verify --labeling <tmp>/ap.json --family <tmp>/bad_true.json",
    "verify --labeling <tmp>/stray.json --grid 2,2,5",
    "verify --labeling <tmp>/edge_stray.json --grid 2,2,5",
    "verify --labeling <tmp>/repeated.json --grid 2,2,5",
    "verify --labeling <tmp>/short_bad.json --grid 2,2,5",
    "verify --labeling <tmp>/edge_short.json --grid 2,2,5",
    "verify --labeling <tmp>/edge_short.json --family <tmp>/forward.json",
    "verify --labeling <tmp>/not_json.json --grid 2,2,5",
    "verify --labeling <tmp>/missing.json --grid 2,2,5",
    # two faults: a member outside the host, and a labeling for another grid
    "verify --labeling <tmp>/vertex_2x6.json --family <tmp>/outside.json",
    "verify --labeling <tmp>/pair_labels.json --family <tmp>/pair.json",
    # usage errors
    "verify --labeling <tmp>/vertex_2x6.json --grid 2,2,5",
    "verify --labeling <tmp>/vertex_2x6.json --family <tmp>/forward.json",
    "verify --labeling <tmp>/vertex.json --grid 2,2",
    "verify --labeling <tmp>/vertex.json",
    "construct --kind vertex --variant corrected -m 2 -c 2 -n 5 --out <tmp>/never.json",
    "construct --kind vertex -m 2 -c 2 -n 5",
    "sweep --kind vertex --m-range 3..2 --c-range 2..3 --n-range 2..5 --csv <tmp>/never.csv",
    "sweep --kind vertex --m-range 2 --c-range 2..3 --n-range x --csv <tmp>/never.csv",
    "export --grid 0,3 --format dot",
    "export --grid 2,3,4 --format json",
    "export --grid 2,6 --labeling <tmp>/vertex.json --format dot",
    "export --grid 2,5 --labeling <tmp>/stray.json --format json",
    # bounds, strength reports and the oracle
    "bound --kind vertex -m 2 -c 2 -n 5",
    "bound --kind edge -m 2 -c 2 -n 7",
    "bound --kind total -m 3 -c 4 -n 9",
    "bound --kind vertex -m 3 -c 2 -n 5",
    "bound --kind vertex -m 3 -c 3 -n 2",
    "strength --kind vertex -m 2 -c 2 -n 5",
    "strength --kind total -m 3 -c 3 -n 6",
    "strength --kind vertex -m 2 -c 2 -n 5 --oracle",
    "strength --kind edge -m 2 -c 2 -n 4 --oracle",
    "strength --kind total -m 2 -c 2 -n 4 --oracle",
    "strength --kind vertex -m 2 -c 2 -n 13 --oracle",
    "GRIDIRR_ORACLE_MAX_ELEMENTS=5 strength --kind vertex -m 2 -c 2 -n 4 --oracle",
    # sweeps
    "sweep --kind vertex --m-range 2..3 --c-range 2..4 --n-range 2..6 --csv <tmp>/vertex.csv",
    "sweep --kind edge --m-range 2..3 --c-range 2..3 --n-range 3..5 --csv <tmp>/edge.csv",
    "sweep --kind total --m-range 2..3 --c-range 2..3 --n-range 3..5 --csv <tmp>/total.csv",
    # a CSV in a missing directory fails before any row is built
    "sweep --kind total --m-range 2..4 --c-range 2..6 --n-range 2..200 --csv <tmp>/missing/total.csv",
    # export, both formats, with and without a labeling
    "export --grid 2,3 --format dot",
    "export --grid 2,3 --format json",
    "export --grid 2,5 --labeling <tmp>/vertex.json --format dot",
    "export --grid 2,5 --labeling <tmp>/edge.json --format json",
]


def _run(call: str, tmp: str) -> str:
    """One transcript entry: the call, its exit code, outputs and files."""
    words = shlex.split(call)
    env = dict(word.split("=", 1) for word in takewhile(lambda word: "=" in word, words))
    argv = [word.replace("<tmp>", tmp) for word in words[len(env):]]
    before = set(os.listdir(tmp))
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    words[len(env):len(env)] = ["gridirr"]
    lines = ["$ " + " ".join(words), f"exit {code}"]
    written = sorted(set(os.listdir(tmp)) - before)
    for what, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                       *((f"file <tmp>/{name}", Path(tmp, name).read_text())
                         for name in written)):
        lines.append(f"{what}:")
        lines += ["|" + (" " + line if line else "")
                  for line in text.replace(tmp, "<tmp>").splitlines()]
        if text and not text.endswith("\n"):
            lines.append("(no newline at end)")
    return "\n".join(lines) + "\n"


def transcript() -> list[str]:
    """Every call's entry, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in _inputs().items():
            text = value if isinstance(value, str) else json.dumps(value)
            Path(tmp, name).write_text(text)
        return [_run(call, tmp) for call in CALLS]


def test_cli_transcript_is_unchanged():
    expected = EXPECTED.read_text().split("\n\n")
    got = transcript()
    for want, have in zip(expected, got):
        if want.rstrip("\n") != have.rstrip("\n"):
            diff = difflib.unified_diff(
                want.splitlines(), have.splitlines(), "expected", "got", lineterm=""
            )
            call = have.splitlines()[0]
            raise AssertionError(f"{call}: output differs\n" + "\n".join(diff))
    assert len(got) == len(expected), "the number of calls changed"


if __name__ == "__main__":
    EXPECTED.write_text("\n".join(transcript()))
    sys.exit(0)
