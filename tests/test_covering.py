import pytest
from hypothesis import given

import reference
from gridirr import (
    CoverFamily,
    Graph,
    GridSpec,
    MalformedFamilyError,
    ScopeError,
    Vertex,
    enumerate_windows,
    is_edge_covering,
    make_grid,
)
from strategies import scope_params


def test_window_count_2_3_2():
    g = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(g, 2)
    assert fam.t == 2
    assert {v.j for v in fam.members[0].vertices} == {1, 2}
    assert {v.j for v in fam.members[1].vertices} == {2, 3}


def test_single_window_equals_grid():
    g = make_grid(GridSpec(2, 5))
    fam = enumerate_windows(g, 5)
    assert fam.t == 1
    assert fam.members[0].vertices == g.vertices
    assert fam.members[0].edges == g.edges


def test_window_count_3_7_4():
    g = make_grid(GridSpec(3, 7))
    assert enumerate_windows(g, 4).t == 4


@pytest.mark.parametrize("m,c,n", [(2, 1, 3), (2, 4, 3), (1, 2, 3), (5, 3, 8)])
def test_out_of_scope_rejected(m, c, n):
    g = make_grid(GridSpec(m, n))
    with pytest.raises(ScopeError):
        enumerate_windows(g, c)


@given(scope_params())
def test_windows_are_small_grids(params):
    m, c, n = params
    fam = enumerate_windows(make_grid(GridSpec(m, n)), c)
    assert fam.t == n - c + 1
    for l, member in enumerate(fam.members, start=1):
        assert len(member.vertices) == m * c
        assert len(member.edges) == 2 * m * c - m - c
        assert member == reference.window_subgraph(m, c, l)
        # re-derive the edge set from the vertex window
        induced = {
            e
            for e in fam.host.edges
            if e.a in member.vertices and e.b in member.vertices
        }
        assert member.edges == induced


@given(scope_params())
def test_windows_cover_grid(params):
    m, c, n = params
    g = make_grid(GridSpec(m, n))
    fam = enumerate_windows(g, c)
    assert is_edge_covering(g, fam).covers


@given(scope_params())
def test_consecutive_windows_overlap(params):
    m, c, n = params
    fam = enumerate_windows(make_grid(GridSpec(m, n)), c)
    for first, second in zip(fam.members, fam.members[1:]):
        assert len(first.vertices & second.vertices) == m * (c - 1)


def test_enumeration_is_deterministic():
    g = make_grid(GridSpec(3, 6))
    assert enumerate_windows(g, 3) == enumerate_windows(g, 3)


def test_missing_last_window_reports_uncovered_column():
    g = make_grid(GridSpec(2, 5))
    fam = enumerate_windows(g, 2)
    truncated = CoverFamily(host=g, members=fam.members[:-1])
    check = is_edge_covering(g, truncated)
    assert not check.covers
    assert any(e.a.j == 5 or e.b.j == 5 for e in check.uncovered)


def test_family_with_no_members_is_malformed():
    message = "^a covering family needs >= 1 member$"
    with pytest.raises(MalformedFamilyError, match=message):
        CoverFamily(host=make_grid(GridSpec(2, 3)), members=())


def test_member_outside_host_is_malformed():
    g = make_grid(GridSpec(2, 3))
    stray = Graph(
        vertices=frozenset([Vertex(9, 9), Vertex(9, 10)]),
        edges=frozenset(),
    )
    with pytest.raises(MalformedFamilyError):
        is_edge_covering(g, CoverFamily(host=g, members=(stray,)))
