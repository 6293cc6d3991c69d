import dataclasses
import json

import pytest

import gridirr.cli
from gridirr import LabelingKind
from gridirr.cli import build_parser, main
from gridirr.report import strength_report
from test_io import UNPARSED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "lab.json"
    code, _, _ = run(
        capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "3", "--out", str(out),
    )
    assert code == 0
    code, stdout, _ = run(
        capsys, "verify", "--labeling", str(out), "--grid", "2,2,3"
    )
    assert code == 0
    assert stdout.startswith("ACCEPT")


def test_verify_rejects_labeling_for_another_grid(tmp_path, capsys):
    lab = tmp_path / "v.json"
    run(capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "7", "--out", str(lab))
    code, stdout, stderr = run(
        capsys, "verify", "--labeling", str(lab), "--grid", "2,2,6"
    )
    assert (code, stdout) == (1, "")
    assert "labeling is for a 2x7 grid, not 2x6" in stderr

    from gridirr import GridSpec, enumerate_windows, make_grid
    from gridirr.io import dump_family

    fam = tmp_path / "fam.json"
    with open(fam, "w", encoding="utf-8") as fp:
        dump_family(enumerate_windows(make_grid(GridSpec(2, 6)), 2), fp)
    code, stdout, stderr = run(
        capsys, "verify", "--labeling", str(lab), "--family", str(fam)
    )
    assert (code, stdout) == (1, "")
    assert "labeling is for a 2x7 grid, not 2x6" in stderr
    code, _, stderr = run(
        capsys, "export", "--grid", "2,6", "--labeling", str(lab),
        "--format", "dot",
    )
    assert code == 1
    assert "labeling is for a 2x7 grid, not 2x6" in stderr


def test_verify_rejects_hand_edited_budget_breach(tmp_path, capsys):
    out = tmp_path / "lab.json"
    run(capsys, "construct", "--kind", "edge",
        "-m", "2", "-c", "2", "-n", "4", "--out", str(out))
    data = json.loads(out.read_text())
    data["labels"][0]["label"] = data["k"] + 1
    out.write_text(json.dumps(data))
    code, _, stderr = run(
        capsys, "verify", "--labeling", str(out), "--grid", "2,2,4"
    )
    assert code == 2
    assert "outside 1.." in stderr


@pytest.mark.parametrize("label", [1, 99])
@pytest.mark.parametrize("against", ["grid", "family"])
def test_verify_stray_label_exits_1(tmp_path, capsys, label, against):
    lab = tmp_path / "lab.json"
    run(capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "5", "--out", str(lab))
    data = json.loads(lab.read_text())
    data["labels"].append({"element": {"e": [[1, 1], [1, 2]]}, "label": label})
    lab.write_text(json.dumps(data))
    where = ["--grid", "2,2,5"]
    if against == "family":
        from gridirr import GridSpec, enumerate_windows, make_grid
        from gridirr.io import dump_family

        fam = tmp_path / "fam.json"
        with open(fam, "w", encoding="utf-8") as fp:
            dump_family(enumerate_windows(make_grid(GridSpec(2, 5)), 2), fp)
        where = ["--family", str(fam)]
    code, stdout, stderr = run(capsys, "verify", "--labeling", str(lab), *where)
    assert (code, stdout) == (1, "")
    assert stderr == (
        "error: label on (1,1)-(1,2), which a vertex labeling of this host "
        "does not weigh\n"
    )


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_stray_label_exits_1(tmp_path, capsys, fmt):
    lab = tmp_path / "lab.json"
    run(capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "3", "--out", str(lab))
    data = json.loads(lab.read_text())
    data["labels"].append({"element": {"e": [[1, 1], [1, 2]]}, "label": 5})
    data["labels"].append({"element": {"e": [[1, 1], [2, 2]]}, "label": 7})
    lab.write_text(json.dumps(data))
    expected = (
        "error: label on (1,1)-(1,2), which a vertex labeling of this host "
        "does not weigh\n"
    )
    verified = run(capsys, "verify", "--labeling", str(lab), "--grid", "2,2,3")
    assert verified == (1, "", expected)
    exported = run(capsys, "export", "--grid", "2,3", "--labeling", str(lab),
                   "--format", fmt)
    assert exported == (1, "", expected)


def test_verify_against_family_file(tmp_path, capsys):
    lab = tmp_path / "lab.json"
    fam = tmp_path / "fam.json"
    run(capsys, "construct", "--kind", "total",
        "-m", "2", "-c", "3", "-n", "4", "--out", str(lab))
    from gridirr import GridSpec, enumerate_windows, make_grid
    from gridirr.io import dump_family

    family = enumerate_windows(make_grid(GridSpec(2, 4)), 3)
    with open(fam, "w", encoding="utf-8") as fp:
        dump_family(family, fp)
    code, stdout, _ = run(
        capsys, "verify", "--labeling", str(lab), "--family", str(fam)
    )
    assert code == 0
    assert stdout.startswith("ACCEPT")


def test_as_printed_variant_fails_verification(tmp_path, capsys):
    out = tmp_path / "printed.json"
    code, _, _ = run(
        capsys, "construct", "--kind", "total", "-m", "2", "-c", "2",
        "-n", "3", "--variant", "as-printed", "--out", str(out),
    )
    assert code == 0
    code, _, stderr = run(
        capsys, "verify", "--labeling", str(out), "--grid", "2,2,3"
    )
    assert code == 2
    assert "outside 1.." in stderr


def test_variant_flag_restricted_to_total(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "--kind", "vertex", "-m", "2", "-c", "2",
        "-n", "3", "--variant", "as-printed",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 1
    assert "total" in stderr


def test_bound_output(capsys):
    code, stdout, _ = run(
        capsys, "bound", "--kind", "edge", "-m", "2", "-c", "2", "-n", "7"
    )
    assert code == 0
    assert stdout.splitlines() == ["lower_bound=3", "upper_bound=2^18"]


def test_strength_with_oracle(capsys):
    code, stdout, _ = run(
        capsys, "strength", "--kind", "total", "-m", "2", "-c", "2",
        "-n", "3", "--oracle",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert "kind=total m=2 c=2 n=3 t=2" in lines
    assert "lower_bound=2" in lines
    assert "closed_form=2" in lines
    assert "construction_verified=true" in lines
    assert "oracle_k=2" in lines
    assert any(l.startswith("erratum_note=") for l in lines)


@pytest.mark.parametrize("changes,stderr", [
    ({"oracle_ran": True, "oracle_k": 3},
     "DISCREPANCY: oracle found minimal k=3 but the closed form gives 2\n"),
    ({"oracle_ran": True, "oracle_k": None},
     "DISCREPANCY: oracle found minimal k=none but the closed form gives 2\n"),
    ({"construction_verified": False},
     "DISCREPANCY: constructed labeling failed verification\n"),
])
def test_strength_discrepancy_exits_2(capsys, monkeypatch, changes, stderr):
    report = dataclasses.replace(
        strength_report(LabelingKind.VERTEX, 2, 2, 5), **changes
    )
    monkeypatch.setattr(gridirr.cli, "strength_report", lambda *a, **k: report)
    result = run(
        capsys, "strength", "--kind", "vertex", "-m", "2", "-c", "2", "-n", "5"
    )
    assert result == (2, "".join(f"{line}\n" for line in report.to_lines()), stderr)


def test_the_shared_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    lab = tmp_path / "lab.json"
    calls = [
        ["bound", "--kind", "vertex", "-m", "2", "-c", "2"],
        ["construct", "--kind", "total", "--variant", "as-printed",
         "-m", "2", "-c", "2", "-n", "5", "--out", str(lab)],
        ["verify", "--labeling", str(lab), "--grid", "2,2,5"],
        ["strength", "--kind", "edge", "-m", "2", "-c", "2", "-n", "4", "--oracle"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(gridirr.cli, "PARSER", build_parser())
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 2, 0]


def test_strength_without_oracle_has_no_oracle_line(capsys):
    code, stdout, _ = run(
        capsys, "strength", "--kind", "vertex", "-m", "3", "-c", "4", "-n", "9"
    )
    assert code == 0
    assert not any(l.startswith("oracle_k") for l in stdout.splitlines())


def test_strength_oracle_respects_size_cap(capsys, monkeypatch):
    monkeypatch.delenv("GRIDIRR_ORACLE_MAX_ELEMENTS", raising=False)
    code, _, stderr = run(
        capsys, "strength", "--kind", "total", "-m", "2", "-c", "2",
        "-n", "7", "--oracle",
    )
    assert code == 3
    assert "cap" in stderr


def test_size_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GRIDIRR_ORACLE_MAX_ELEMENTS", "5")
    code, _, stderr = run(
        capsys, "strength", "--kind", "vertex", "-m", "2", "-c", "2",
        "-n", "3", "--oracle",
    )
    assert code == 3
    assert "cap" in stderr


@pytest.mark.parametrize("raw,message", [
    ("abc", "GRIDIRR_ORACLE_MAX_ELEMENTS must be an integer, got 'abc'"),
    ("0", "GRIDIRR_ORACLE_MAX_ELEMENTS must be >= 1"),
])
def test_bad_size_cap_env_exits_1(capsys, monkeypatch, raw, message):
    monkeypatch.setenv("GRIDIRR_ORACLE_MAX_ELEMENTS", raw)
    result = run(
        capsys, "strength", "--kind", "vertex", "-m", "2", "-c", "2",
        "-n", "3", "--oracle",
    )
    assert result == (1, "", f"error: {message}\n")


def test_oracle_runs_deeper_than_the_recursion_limit(capsys, monkeypatch):
    # 1,200 labeled elements: a search one frame per element would overflow
    monkeypatch.setenv("GRIDIRR_ORACLE_MAX_ELEMENTS", "2000")
    code, stdout, stderr = run(
        capsys, "strength", "--kind", "vertex", "-m", "2", "-c", "600",
        "-n", "600", "--oracle",
    )
    assert code == 0, stderr
    assert "oracle_k=1" in stdout.splitlines()


def _erratum(k):
    return (
        "erratum_note=as-printed horizontal-edge denominator (2mc-m-c) fails "
        f"verification: label 0 at (1,1)-(1,2) outside 1..{k}; the corrected "
        "variant uses 3mc-m-c and verifies"
    )


@pytest.mark.parametrize("argv,expected", [
    (("-m", "2", "-c", "3", "-n", "9"),
     ["kind=total m=2 c=3 n=9 t=7", "lower_bound=2", "closed_form=2",
      "construction_verified=true", _erratum(2)]),
    (("-m", "3", "-c", "3", "-n", "3"),
     ["kind=total m=3 c=3 n=3 t=1", "lower_bound=1", "closed_form=1",
      "construction_verified=true", _erratum(1)]),
    (("-m", "2", "-c", "2", "-n", "3", "--oracle"),
     ["kind=total m=2 c=2 n=3 t=2", "lower_bound=2", "closed_form=2",
      "construction_verified=true", "oracle_k=2", _erratum(2)]),
])
def test_strength_total_stdout_is_pinned(capsys, argv, expected):
    code, stdout, stderr = run(capsys, "strength", "--kind", "total", *argv)
    assert (code, stderr) == (0, "")
    assert stdout == "".join(line + "\n" for line in expected)


@pytest.mark.parametrize("kind,m,c,n", [
    ("vertex", 2, 3, 9), ("edge", 3, 3, 7), ("total", 2, 2, 2),
    ("total", 3, 4, 17), ("total", 4, 6, 40),
])
def test_sweep_row_agrees_with_strength_report(tmp_path, capsys, kind, m, c, n):
    from gridirr import LabelingKind
    from gridirr.report import strength_report

    out = tmp_path / "row.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", kind, "--m-range", str(m), "--c-range",
        str(c), "--n-range", str(n), "--csv", str(out),
    )
    assert code == 0
    header, row = [line.split(",") for line in out.read_text().splitlines()]
    fields = dict(zip(header, row))
    report = strength_report(LabelingKind(kind), m, c, n)
    flag = {True: "true", False: "false", None: ""}
    assert fields == {
        "kind": report.kind.value,
        "m": str(report.m),
        "c": str(report.c),
        "n": str(report.n),
        "t": str(report.t),
        "lower_bound": str(report.lower_bound),
        "closed_form": str(report.closed_form),
        "construction_verified": flag[report.construction_verified],
        "as_printed_verified": flag[report.as_printed_verified],
    }
    assert (report.as_printed_verified is None) == (kind != "total")


def test_sweep_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["sweep", "--kind", "total", "--m-range", "2..3",
            "--c-range", "2..4", "--n-range", "2..8"]
    assert run(capsys, *args, "--csv", str(first))[0] == 0
    assert run(capsys, *args, "--csv", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_rows_lexicographic_with_header(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "vertex", "--m-range", "2..3",
        "--c-range", "2..3", "--n-range", "2..5", "--csv", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "kind,m,c,n,t,lower_bound,closed_form,"
        "construction_verified,as_printed_verified"
    )
    triples = [tuple(map(int, l.split(",")[1:4])) for l in lines[1:]]
    assert triples == sorted(triples)
    assert all(2 <= m <= c <= n for (m, c, n) in triples)


def test_sweep_total_records_as_printed_outcome(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--kind", "total", "--m-range", "2..2",
        "--c-range", "2..2", "--n-range", "2..6", "--csv", str(out))
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert rows
    for row in rows:
        assert row[7] == "true"
        assert row[8] == "false"


def test_export_dot_contract(capsys):
    code, stdout, _ = run(capsys, "export", "--grid", "2,2", "--format", "dot")
    assert code == 0
    assert stdout.startswith("graph grid_2x2 {")
    body = stdout.splitlines()
    assert sum(1 for l in body if "--" in l) == 4
    assert sum(1 for l in body if l.strip().endswith(";") and "--" not in l) == 4


def test_export_json_roundtrip_verifies(tmp_path, capsys):
    lab = tmp_path / "lab.json"
    run(capsys, "construct", "--kind", "total",
        "-m", "2", "-c", "2", "-n", "4", "--out", str(lab))
    code, stdout, _ = run(
        capsys, "export", "--grid", "2,4", "--labeling", str(lab),
        "--format", "json",
    )
    assert code == 0
    reexported = tmp_path / "re.json"
    reexported.write_text(stdout)
    code, out2, _ = run(
        capsys, "verify", "--labeling", str(reexported), "--grid", "2,2,4"
    )
    assert code == 0
    assert out2.startswith("ACCEPT")
    assert json.loads(stdout) == json.loads(lab.read_text())


def test_export_json_plain_grid_stdout_is_pinned(capsys):
    code, stdout, stderr = run(capsys, "export", "--grid", "2,2", "--format", "json")
    assert (code, stderr) == (0, "")
    expected = {
        "grid": [2, 2],
        "vertices": [[1, 1], [1, 2], [2, 1], [2, 2]],
        "edges": [
            [[1, 1], [1, 2]],
            [[1, 1], [2, 1]],
            [[1, 2], [2, 2]],
            [[2, 1], [2, 2]],
        ],
    }
    assert stdout == json.dumps(expected, indent=2) + "\n"


def test_export_json_plain_grid(capsys):
    code, stdout, _ = run(capsys, "export", "--grid", "2,3", "--format", "json")
    assert code == 0
    data = json.loads(stdout)
    assert data["grid"] == [2, 3]
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 7


USAGE_ERRORS = [  # argv, and the first words stderr must print
    (["frobnicate"], "usage error: argument command: invalid choice"),
    (["construct", "--kind", "diagonal", "-m", "2", "-c", "2", "-n", "3",
      "--out", "x.json"], "usage error: argument --kind: invalid choice"),
    (["verify", "--labeling", "x.json"], "usage error: one of the arguments"),
    (["verify", "--labeling", "x.json", "--grid", "2,3"],
     "usage error: --grid must be 3 comma-separated integers"),
    (["sweep", "--kind", "vertex", "--m-range", "3..2",
      "--c-range", "2..2", "--n-range", "2..2", "--csv", "x.csv"],
     "usage error: --m-range is empty"),
    (["export", "--grid", "2,0", "--format", "dot"],
     "usage error: grid dimensions must be positive"),
    (["construct", "--kind", "vertex", "-m", "2", "-c", "5", "-n", "3",
      "--out", "x.json"], "error: window parameters must satisfy"),
    (["sweep", "--kind", "vertex", "--m-range", "1..2..3",
      "--c-range", "2..2", "--n-range", "2..2", "--csv", "x.csv"],
     "usage error: --m-range must look like A..B"),
]


@pytest.mark.parametrize(
    "argv,stderr_start",
    USAGE_ERRORS,
    ids=[f"argv{pos}" for pos in range(len(USAGE_ERRORS))],
)
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv, stderr_start):
    monkeypatch.chdir(tmp_path)
    # a real labeling, so that no verify case fails for want of its file
    run(capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "3", "--out", "x.json")
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr.startswith(stderr_start), stderr


@pytest.mark.parametrize("grid", ["2,x,6", "2,2"])
def test_verify_grid_needs_three_integers(tmp_path, capsys, grid):
    lab = tmp_path / "lab.json"
    run(capsys, "construct", "--kind", "vertex",
        "-m", "2", "-c", "2", "-n", "6", "--out", str(lab))
    result = run(capsys, "verify", "--labeling", str(lab), "--grid", grid)
    assert result == (1, "", (
        f"usage error: --grid must be 3 comma-separated integers, "
        f"got {grid!r}\n"
    ))


def test_scope_error_suggests_transpose(capsys):
    code, _, stderr = run(
        capsys, "bound", "--kind", "vertex", "-m", "5", "-c", "5", "-n", "2"
    )
    assert code == 1
    assert "swap m and n" in stderr


def test_missing_labeling_file_exits_1(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "verify", "--labeling", str(tmp_path / "nope.json"),
        "--grid", "2,2,3",
    )
    assert code == 1


def test_malformed_labeling_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, stderr = run(
        capsys, "verify", "--labeling", str(bad), "--grid", "2,2,3"
    )
    assert code == 1
    assert "JSON" in stderr or "json" in stderr


@pytest.mark.parametrize("raw", UNPARSED)
@pytest.mark.parametrize("command", ["verify --grid", "verify --family", "export"])
def test_text_that_does_not_parse_exits_1(tmp_path, capsys, command, raw):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_bytes(raw)
    assert run(capsys, "construct", "--kind", "vertex", "-m", "2", "-c", "2",
               "-n", "5", "--out", str(good))[0] == 0
    argv = {
        "verify --grid": ["verify", "--labeling", str(bad), "--grid", "2,2,5"],
        "verify --family": ["verify", "--labeling", str(good), "--family", str(bad)],
        "export": ["export", "--grid", "2,5", "--labeling", str(bad), "--format", "json"],
    }[command]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: not valid JSON: ") and stderr.count("\n") == 1


def test_bool_grid_size_in_family_file_exits_1(tmp_path, capsys):
    # A 1x3 path covered by itself: were [true, 3] read as [1, 3], this
    # family and labeling would verify and exit 0.
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({
        "kind": "vertex", "k": 1, "m": 1, "n": 3,
        "labels": [{"element": {"v": [1, j]}, "label": 1} for j in (1, 2, 3)],
    }))
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "host": {"grid": [True, 3]},
        "members": [{
            "vertices": [[1, 1], [1, 2], [1, 3]],
            "edges": [[[1, 1], [1, 2]], [[1, 2], [1, 3]]],
        }],
    }))
    code, _, stderr = run(
        capsys, "verify", "--labeling", str(lab), "--family", str(fam)
    )
    assert code == 1
    assert "'grid' must be [m, n] with positive integers" in stderr


def test_family_member_vertices_not_a_list_exits_1(tmp_path, capsys):
    lab = tmp_path / "lab.json"
    construct_args = ["construct", "--kind", "vertex", "-m", "2", "-c", "2",
                      "-n", "3", "--out", str(lab)]
    assert run(capsys, *construct_args)[0] == 0
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "host": {"grid": [2, 3]},
        "members": [{"vertices": 5, "edges": []}],
    }))
    code, out, stderr = run(
        capsys, "verify", "--labeling", str(lab), "--family", str(fam)
    )
    assert (code, out) == (1, "")
    assert stderr == "error: members[0].vertices: expected a list\n"
