import dataclasses
import json
import sys
from collections import Counter
from itertools import product

import pytest

from gridirr import (
    CoverFamily,
    Edge,
    GridSpec,
    LabelingKind,
    ScopeError,
    TotalVariant,
    Vertex,
    closed_form_strength,
    construct_for_kind,
    enumerate_windows,
    make_grid,
    min_strength,
    verify_irregular,
)
import gridirr.grid
import gridirr.report
import reference
from gridirr.cli import main
from gridirr.construct import GridLabels, kind_element_count
from gridirr.io import family_to_json_dict, labeling_to_json_dict
from gridirr.report import ROW_FIELDS, strength_report, strength_reports

ACCEPTANCE = [(m, c) for m in range(2, 5) for c in range(m, 7)]  # n from c up to 40


def shown(reports):
    """Every cell and line of each report: the CSV row and the text lines,
    the note and the oracle's minimum among them."""
    return [(report.to_row(), report.to_lines()) for report in reports]


def per_row(kind, m, c, ns, oracle=False):
    """The reports of the per-row pipeline in tests/reference.py."""
    return shown(reference.strength_report(kind, m, c, n, oracle) for n in ns)


@pytest.fixture
def made(monkeypatch):
    """The classes of the vertex and edge objects made, in order."""
    made = []
    for cls in (Vertex, Edge):
        def spy(cls, *args, _new=cls.__new__):
            made.append(cls)
            return _new(cls, *args)

        monkeypatch.setattr(cls, "__new__", spy)
    return made


def test_report_fields_total_with_oracle():
    report = strength_report(LabelingKind.TOTAL, 2, 2, 3, oracle=True)
    assert (report.m, report.c, report.n, report.t) == (2, 2, 3, 2)
    assert report.lower_bound == 2
    assert report.closed_form == 2
    assert report.construction_verified
    assert report.oracle_ran
    assert report.oracle_k == 2
    assert report.oracle_agrees is True
    assert report.erratum_note is not None
    assert "2mc-m-c" in report.erratum_note


def test_report_without_oracle():
    report = strength_report(LabelingKind.EDGE, 2, 2, 7)
    assert report.closed_form == 3
    assert report.construction_verified
    assert not report.oracle_ran
    assert report.oracle_agrees is None
    assert report.erratum_note is None


def test_report_vertex_kind_has_no_erratum_note():
    report = strength_report(LabelingKind.VERTEX, 3, 3, 6)
    assert report.erratum_note is None
    assert report.construction_verified


def test_report_rejects_out_of_scope():
    with pytest.raises(ScopeError):
        strength_report(LabelingKind.VERTEX, 4, 3, 9)


def test_report_lines_are_stable():
    report = strength_report(LabelingKind.VERTEX, 2, 3, 4)
    assert report.to_lines() == [
        "kind=vertex m=2 c=3 n=4 t=2",
        "lower_bound=2",
        "closed_form=2",
        "construction_verified=true",
    ]
    assert report.to_row() == ["vertex", "2", "3", "4", "2", "2", "2", "true", ""]
    report = strength_report(LabelingKind.TOTAL, 2, 2, 3, oracle=True)
    assert report.to_lines() == [
        "kind=total m=2 c=2 n=3 t=2",
        "lower_bound=2",
        "closed_form=2",
        "construction_verified=true",
        "oracle_k=2",
        "erratum_note=as-printed horizontal-edge denominator (2mc-m-c) fails "
        "verification: label 0 at (1,1)-(1,2) outside 1..2; the corrected "
        "variant uses 3mc-m-c and verifies",
    ]
    assert report.to_row() == ["total", "2", "2", "3", "2", "2", "2", "true", "false"]


def test_text_lines_and_csv_row_show_the_same_fields():
    # the first four text lines hold the row's first eight cells, by name
    reports = 0
    for kind, m, c, n in product(LabelingKind, range(2, 4), range(2, 5), range(2, 13)):
        if m <= c <= n:
            report = strength_report(kind, m, c, n)
            pairs = [pair.split("=") for pair in " ".join(report.to_lines()[:4]).split(" ")]
            assert pairs == [list(cell) for cell in zip(ROW_FIELDS[:8], report.to_row()[:8])]
            reports += 1
    assert reports == 3 * 49


def test_report_lower_bound_where_the_windows_outnumber_a_members_elements():
    # n - c = 38 exceeds every kind's member element count d, so a wrong
    # count gives a wrong 1 + ceil((n - c)/d)
    m, c, n = 2, 2, 40
    vertices, edges = m * c, 2 * m * c - m - c  # one window's
    counts = [vertices, edges, vertices + edges]  # vertex, edge, total
    expected = [1 + -(-(n - c) // d) for d in counts]
    assert expected == [11, 11, 6]
    assert [strength_report(kind, m, c, n).lower_bound for kind in LabelingKind] == expected


@pytest.mark.parametrize("m,c,n", [(2, 2, 2), (3, 4, 12), (4, 6, 40)])
def test_a_report_row_makes_no_element_but_the_one_it_names(made, m, c, n):
    for kind in (LabelingKind.VERTEX, LabelingKind.EDGE):
        assert strength_report(kind, m, c, n).construction_verified
        assert made == []
    # the as-printed total variant fails at edge (1,1)-(1,2), made alone
    report = strength_report(LabelingKind.TOTAL, m, c, n)
    assert report.construction_verified and report.as_printed_verified is False
    assert "label 0 at (1,1)-(1,2)" in report.erratum_note
    assert made == [Vertex, Vertex, Edge]
    # over a range, each total row makes the edge its own note names
    for kind in LabelingKind:
        made.clear()
        reports = strength_reports(kind, m, c, range(c, n + 1))
        assert all(report.construction_verified for report in reports)
        assert made == ([Vertex, Vertex, Edge] * len(reports) if kind is LabelingKind.TOTAL else [])


@pytest.fixture
def calls(monkeypatch):
    """Calls of ``grid.make_grid`` and ``grid.column_slices``, counted under
    every name a gridirr module holds them by."""
    calls = Counter()
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "gridirr"]
    for name in ("make_grid", "column_slices"):
        original = getattr(gridirr.grid, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("kind,constructions", [
    (LabelingKind.VERTEX, 1), (LabelingKind.EDGE, 1), (LabelingKind.TOTAL, 2),
])
def test_a_report_row_makes_one_grid_and_one_slice_set_per_construction(calls, kind, constructions):
    # the as-printed total variant builds its own grid, and is verified on the row's
    for m, c, n in [(2, 2, 2), (3, 4, 12), (4, 6, 40)]:
        calls.clear()
        assert strength_report(kind, m, c, n).construction_verified
        assert calls == {"make_grid": constructions, "column_slices": constructions}


def certify_instances():
    """(kind, m, c, n) of every kind, 2 <= m <= c <= 6, at most 24 elements."""
    for kind in LabelingKind:
        for m in range(2, 7):
            for c in range(m, 7):
                for n in range(c, 25):
                    if kind_element_count(kind, m * n, 2 * m * n - m - n) <= 24:
                        yield kind, m, c, n


def test_the_oracle_makes_no_element(made, monkeypatch):
    monkeypatch.delenv("GRIDIRR_ORACLE_MAX_ELEMENTS", raising=False)
    certified = 0
    for kind, m, c, n in certify_instances():
        cf = closed_form_strength(kind, m, n, c)
        # the windows right to left, an explicit family on an equal grid:
        # building its member graphs makes that grid's elements, before
        # the oracle runs
        other = make_grid(GridSpec(m, n))
        backwards = CoverFamily(
            host=other, members=tuple(reversed(enumerate_windows(other, c).members))
        )
        made.clear()
        windows = enumerate_windows(make_grid(GridSpec(m, n)), c)
        for family in (windows, backwards):
            result = min_strength(
                family.host, family, kind, k_max=cf, start_k=1, max_elements=24
            )
            assert result.minimal_k == cf
            assert verify_irregular(result.witness, family).accepted
            certified += 1
        if kind is not LabelingKind.TOTAL:
            assert strength_report(kind, m, c, n, oracle=True).oracle_agrees
    assert certified == 2 * 112
    assert made == []


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_verify_accepts_a_file_without_making_an_element(made, tmp_path, capsys, kind):
    m, c, n = 3, 4, 12
    labeling = construct_for_kind(kind, m, n, c)
    data = labeling_to_json_dict(labeling)
    family = tmp_path / "windows.json"
    family.write_text(json.dumps(family_to_json_dict(enumerate_windows(make_grid(GridSpec(m, n)), c))))
    accepted, over = tmp_path / "accepted.json", tmp_path / "over.json"
    accepted.write_text(json.dumps(data))
    data["labels"][-1]["label"] = labeling.k + 1  # the last vertex, or the last edge
    over.write_text(json.dumps(data))
    assert json.loads(family.read_text())["host"] == {"grid": [m, n]}
    made.clear()
    assert main(["verify", "--labeling", str(accepted), "--family", str(family)]) == 0
    assert main(["verify", "--labeling", str(accepted), "--grid", f"{m},{c},{n}"]) == 0
    assert capsys.readouterr().out.count("ACCEPT: 9 member weights") == 2
    assert made == []
    # a range reject makes the one element it names
    assert main(["verify", "--labeling", str(over), "--family", str(family)]) == 2
    if kind is LabelingKind.VERTEX:
        assert made == [Vertex]
        assert f"label {labeling.k + 1} at (3,12) outside" in capsys.readouterr().err
    else:
        assert made == [Vertex, Vertex, Edge]
        assert f"label {labeling.k + 1} at (3,11)-(3,12) outside" in capsys.readouterr().err


def test_a_grid_index_maps_elements_and_plain_keys_to_positions():
    for m, n in {(m, n) for m in range(2, 5) for n in range(m, 41)}:  # the acceptance grids
        index = make_grid(GridSpec(m, n)).index
        assert index == {e: pos for pos, e in enumerate(make_grid(GridSpec(m, n)).elements)}
        assert index[(1, 1)] == 0
        assert index[((1, 1), (1, 2))] == m * n  # the first edge


@pytest.mark.parametrize("kind", list(LabelingKind))
@pytest.mark.parametrize("top", [40, 200])  # the acceptance range, and CI's sweep to n = 200
def test_a_range_reports_as_the_per_row_pipeline(kind, top):
    for m, c in ACCEPTANCE:
        ns = range(c, top + 1)
        assert shown(strength_reports(kind, m, c, ns)) == per_row(kind, m, c, ns)


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_a_range_above_c_or_out_of_order_reports_as_the_per_row_pipeline(kind):
    for m, c in ACCEPTANCE:
        for ns in (range(10, 41), [c + 7, c, 23, c + 1], [c + 2, c + 2]):
            assert shown(strength_reports(kind, m, c, ns)) == per_row(kind, m, c, ns)


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_a_range_with_the_oracle_reports_as_the_per_row_pipeline(kind):
    for m, c, top in [(2, 2, 5), (2, 3, 5), (3, 3, 3)]:  # at most 24 elements, the search cap
        ns = range(c, top + 1)
        assert shown(strength_reports(kind, m, c, ns, oracle=True)) == per_row(kind, m, c, ns, True)


def test_an_empty_range_builds_nothing(monkeypatch):
    monkeypatch.setattr(gridirr.report, "construct_for_kind", None)
    assert strength_reports(LabelingKind.TOTAL, 5, 4, []) == []  # no scope to check either
    with pytest.raises(ScopeError):
        strength_reports(LabelingKind.TOTAL, 2, 4, [5, 3])


# Label edits made in every construction that holds the element, whatever
# its n, so that the labeling for n stays the first n columns of a larger
# one: a label below 1, a label above the budget of the small n, and a first
# window made one heavier (a collision, or a label over a budget of 1).
EDITS = {
    "low": {Vertex(2, 3): lambda label: 0, Edge(Vertex(1, 3), Vertex(2, 3)): lambda label: 0},
    "high": {Vertex(1, 6): lambda label: 4, Edge(Vertex(2, 4), Vertex(2, 5)): lambda label: 4},
    "heavier": {Vertex(1, 1): lambda label: label + 1, Edge(Vertex(1, 1), Vertex(2, 1)): lambda label: label + 1},
}


def edited(edit, printed):
    """``construct_for_kind`` with ``EDITS[edit]`` made in its labels; the
    as-printed variant is built as ``printed`` ("as-printed", or
    "corrected" to give a variant that verifies or collides)."""
    def construct(kind, m, n, c, variant=TotalVariant.CORRECTED):
        if variant is TotalVariant.AS_PRINTED and printed == "corrected":
            variant = TotalVariant.CORRECTED
        labeling = construct_for_kind(kind, m, n, c, variant)
        labels = labeling.labels
        layout = list(labels.layout)
        for element, change in EDITS.get(edit, {}).items():
            pos = labels.host.index.get(element, -1) - labels.lo
            if 0 <= pos < len(layout):
                layout[pos] = change(layout[pos])
        return dataclasses.replace(labeling, labels=GridLabels(labels.host, labels.lo, tuple(layout)))

    return construct


def test_edited_labels_report_as_the_per_row_pipeline(monkeypatch):
    notes = set()
    for edit, printed in product(["none", *EDITS], ["as-printed", "corrected"]):
        monkeypatch.setattr(gridirr.report, "construct_for_kind", edited(edit, printed))
        monkeypatch.setattr(reference, "construct_for_kind", edited(edit, printed))
        for kind, (m, c) in product(LabelingKind, [(2, 2), (2, 3), (3, 3)]):
            ns = range(c, 41)
            reports = strength_reports(kind, m, c, ns)
            assert shown(reports) == per_row(kind, m, c, ns), (edit, printed, kind, m, c)
            notes.update(report.erratum_note.split(": ")[1].split(" ")[0] for report in reports
                         if report.erratum_note is not None)
    # the edits reach each way a note is made: a range violation, a collision and none
    assert notes == {"label", "members", "None;"}


def test_a_sweep_builds_one_construction_per_kind_m_c(monkeypatch, tmp_path, capsys):
    built = Counter()

    def counting(kind, m, n, c, variant=TotalVariant.CORRECTED):
        built[kind.value, variant.value] += 1
        return construct_for_kind(kind, m, n, c, variant)

    monkeypatch.setattr(gridirr.report, "construct_for_kind", counting)
    for kind in LabelingKind:
        assert main(["sweep", "--kind", kind.value, "--m-range", "2..4", "--c-range", "2..6",
                     "--n-range", "2..40", "--csv", str(tmp_path / "sweep.csv")]) == 0
    assert capsys.readouterr().out.count("wrote 439 rows") == 3
    assert built == {
        ("vertex", "corrected"): 12, ("edge", "corrected"): 12,
        ("total", "corrected"): 12, ("total", "as_printed"): 12,
    }


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_a_sweep_past_the_top_of_some_c_builds_nothing_there(monkeypatch, tmp_path, capsys, kind):
    built = Counter()

    def counting(kind, m, n, c, variant=TotalVariant.CORRECTED):
        built[m, c] += 1
        return construct_for_kind(kind, m, n, c, variant)

    monkeypatch.setattr(gridirr.report, "construct_for_kind", counting)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", kind.value, "--m-range", "2..4", "--c-range", "2..6",
                 "--n-range", "3..4", "--csv", str(out)]) == 0
    triples = [(m, c, n) for m, c, n in product(range(2, 5), range(2, 7), range(3, 5)) if m <= c <= n]
    rows = [report[0] for m, c, n in triples for report in per_row(kind, m, c, [n])]
    assert out.read_text().splitlines()[1:] == [",".join(row) for row in rows]
    per_construction = 2 if kind is LabelingKind.TOTAL else 1
    assert built == {(m, c): per_construction for m, c, _ in triples}
    assert {c for _, c in built} == {2, 3, 4}
