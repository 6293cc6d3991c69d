import json

import pytest

from gridirr import (
    CoverFamily,
    Edge,
    GridSpec,
    LabelingKind,
    ScopeError,
    Vertex,
    closed_form_strength,
    construct_for_kind,
    enumerate_windows,
    make_grid,
    min_strength,
    verify_irregular,
)
from gridirr.cli import main
from gridirr.construct import kind_element_count
from gridirr.io import family_to_json_dict, labeling_to_json_dict
from gridirr.report import strength_report


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
