"""Window families over make_grid hosts against explicit families.

``enumerate_windows`` over a ``make_grid`` host returns an implicit family:
its covering check and weights come from (m, c, n) and column sums.  The
same members as an explicit tuple take the generic, indexed path (itself
checked against the set-based reference in ``test_indexed_families``):
every result must be equal, or both paths must raise the same exception
with the same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

import gridirr.covering
import gridirr.grid
import reference
from gridirr import (
    CoverFamily,
    Edge,
    Graph,
    GridSpec,
    Labeling,
    LabelingKind,
    MalformedFamilyError,
    RangeViolation,
    TotalVariant,
    Vertex,
    construct_for_kind,
    construct_total_labeling,
    enumerate_windows,
    graph_from_elements,
    is_edge_covering,
    make_grid,
    verify_irregular,
    weight_profile,
)
from gridirr.search import min_strength
from strategies import scope_params


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def assert_same_results(labeling, implicit, explicit):
    assert explicit.window is None
    for fn in (weight_profile, verify_irregular):
        assert outcome(fn, labeling, implicit) == outcome(fn, labeling, explicit)


def column_one_element(kind, m):
    """An element of the kind that lies in window 1 only."""
    if kind is LabelingKind.EDGE:
        return Edge(Vertex(1, 1), Vertex(2, 1))
    return Vertex(m, 1)


def stray_element(kind, m, n, which, rnd):
    if which == "off_host_vertex":
        return Vertex(m + 1, n)
    if which == "off_host_edge":
        return rnd.choice([
            Edge(Vertex(1, n), Vertex(1, n + 1)),
            Edge(Vertex(m, 1), Vertex(m + 1, 1)),
        ])
    if which == "diagonal_edge":
        return Edge(Vertex(1, 1), Vertex(2, 2))
    # wrong kind: an element the host has but this kind does not label
    if kind is LabelingKind.VERTEX:
        return Edge(Vertex(1, n - 1), Vertex(1, n))
    if kind is LabelingKind.EDGE:
        return Vertex(1, 1)
    return Edge(Vertex(1, 1), Vertex(1, 3))  # total labels every host element


@settings(max_examples=150, deadline=None)
@given(
    scope_params(max_m=4, max_c=6, max_n=40),
    st.sampled_from(["vertex", "edge", "total", "as_printed"]),
    st.sampled_from(
        ["none", "zero", "over", "value", "collide", "delete",
         "off_host_vertex", "off_host_edge", "diagonal_edge", "wrong_kind"]
    ),
    st.randoms(use_true_random=False),
)
def test_window_family_matches_explicit_family(params, variant, change, rnd):
    m, c, n = params
    if variant == "as_printed":
        labeling = construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED)
    else:
        labeling = construct_for_kind(LabelingKind(variant), m, n, c)
    kind, k = labeling.kind, labeling.k
    elements = sorted(labeling.labels, key=repr)
    target = rnd.choice(elements)
    if change == "zero":
        labeling = labeling.with_label(target, 0)
    elif change == "over":
        labeling = labeling.with_label(target, k + 1)
    elif change == "value":
        labeling = labeling.with_label(target, rnd.randint(1, k))
    elif change == "collide":
        # window 1 gains one: it meets window 2's weight, or leaves 1..k
        element = column_one_element(kind, m)
        labeling = labeling.with_label(element, labeling.labels[element] + 1)
    elif change == "delete":
        labels = dict(labeling.labels)
        del labels[target]
        labeling = Labeling(kind=kind, k=k, labels=labels, m=m, n=n)
    elif change != "none":
        stray = stray_element(kind, m, n, change, rnd)
        labeling = labeling.with_label(stray, rnd.choice([0, 1, k, k + 1]))

    grid = make_grid(GridSpec(m, n))
    implicit = enumerate_windows(grid, c)
    assert implicit.window == (m, c, n)
    explicit = CoverFamily(host=grid, members=tuple(implicit.members))
    assert_same_results(labeling, implicit, explicit)


@settings(max_examples=60, deadline=None)
@given(
    scope_params(max_n=20),
    st.sampled_from(list(LabelingKind)),
    st.randoms(use_true_random=False),
)
def test_first_range_violation_matches_sorted_scan(params, kind, rnd):
    m, c, n = params
    labeling = construct_for_kind(kind, m, n, c)
    elements = sorted(labeling.labels, key=repr)
    for element in rnd.sample(elements, rnd.randint(0, 4)):
        labeling = labeling.with_label(
            element, rnd.choice([0, -3, labeling.k + 1, labeling.k + 7])
        )
    grid = make_grid(GridSpec(m, n))
    verdict = verify_irregular(labeling, enumerate_windows(grid, c))
    expected = reference.range_violation(labeling)
    if expected is None:
        assert not isinstance(verdict.violation, RangeViolation)
    else:
        assert verdict.violation == expected


def test_transposed_and_hand_built_hosts_take_the_generic_path():
    m, c, n = 3, 4, 9
    grid = make_grid(GridSpec(m, n))
    labeling = construct_for_kind(LabelingKind.TOTAL, m, n, c)
    implicit = enumerate_windows(grid, c)
    for host in (
        graph_from_elements(grid.vertices, grid.edges),
        Graph(vertices=grid.vertices, edges=grid.edges),
    ):
        assert host == grid and host.spec is None
        family = enumerate_windows(host, c)
        assert family.window is None
        assert family == implicit
        assert_same_results(labeling, implicit, family)


def test_truncated_and_reversed_families_take_the_generic_path():
    grid = make_grid(GridSpec(2, 6))
    implicit = enumerate_windows(grid, 3)
    labeling = construct_for_kind(LabelingKind.EDGE, 2, 6, 3)
    truncated = CoverFamily(host=grid, members=implicit.members[:-1])
    reversed_ = CoverFamily(host=grid, members=tuple(reversed(implicit.members)))
    assert truncated.window is None and reversed_.window is None
    assert not is_edge_covering(truncated).covers
    with pytest.raises(MalformedFamilyError, match="belongs to no member"):
        verify_irregular(labeling, truncated)
    assert weight_profile(labeling, reversed_) == list(
        reversed(weight_profile(labeling, implicit))
    )
    # the window members of a 2-row grid do not cover a 3-row host
    taller = make_grid(GridSpec(3, 6))
    borrowed = CoverFamily(host=taller, members=implicit.members)
    assert borrowed.window is None
    with pytest.raises(MalformedFamilyError, match="belongs to no member"):
        verify_irregular(labeling, borrowed)


def test_covering_is_checked_generically_against_another_host():
    grid = make_grid(GridSpec(2, 5))
    family = enumerate_windows(grid, 2)
    other = make_grid(GridSpec(2, 5))  # equal, but not the family's host
    # window members lent to the equal grid are checked and weighed by index
    lent = CoverFamily(host=other, members=family.members)
    assert family.window == (2, 2, 5) and lent == family
    assert is_edge_covering(lent) == is_edge_covering(
        CoverFamily(host=grid, members=tuple(family.members))
    )
    with pytest.raises(MalformedFamilyError, match="not in the host"):
        CoverFamily(host=make_grid(GridSpec(2, 4)), members=family.members)
    for kind in LabelingKind:
        assert_same_results(construct_for_kind(kind, 2, 5, 2), family, lent)


@pytest.fixture
def builds(monkeypatch):
    """Record (m, c, n) for each window family whose index tuples the
    covering module cuts: every window member, and every window index
    tuple, comes from ``covering._window_indices``."""
    count = []
    window_indices = gridirr.covering._window_indices

    def counting(host, c):
        count.append((host.spec.m, c, host.spec.n))
        return window_indices(host, c)

    monkeypatch.setattr(gridirr.covering, "_window_indices", counting)
    return count


def test_counting_and_verifying_build_no_member(builds):
    grid = make_grid(GridSpec(3, 12))
    family = enumerate_windows(grid, 4)
    assert len(family.members) == 9 and family.t == 9
    assert is_edge_covering(family).covers
    labeling = construct_for_kind(LabelingKind.TOTAL, 3, 12, 4)
    assert verify_irregular(labeling, family).accepted
    assert builds == []


def test_default_start_search_makes_each_window_once(builds):
    # a built member graph would cut the family's windows a second time
    m, c, n = 2, 3, 7
    grid = make_grid(GridSpec(m, n))
    family = enumerate_windows(grid, c)
    result = min_strength(grid, family, LabelingKind.VERTEX, k_max=3)
    assert result.minimal_k == 2
    assert builds == [(m, c, n)]


def test_equal_hosts_index_the_windows_once(builds):
    # the windows of make_grid are indexed against the host when the family
    # is built; the search and the member graphs make no window again
    m, c, n = 2, 3, 7
    grid = make_grid(GridSpec(m, n))
    for host in (
        graph_from_elements(grid.vertices, grid.edges),
        Graph(vertices=grid.vertices, edges=grid.edges),
    ):
        builds.clear()
        family = enumerate_windows(host, c)
        assert family.window is None and family.host is host
        assert builds == [(m, c, n)]
        result = min_strength(host, family, LabelingKind.VERTEX, k_max=3)
        assert result.minimal_k == 2
        list(family.members)
        assert builds == [(m, c, n)]


def test_window_indices_read_the_slices_of_their_host_once(monkeypatch):
    calls = []
    column_slices = gridirr.grid.column_slices

    def counting(m, n):
        calls.append((m, n))
        return column_slices(m, n)

    monkeypatch.setattr(gridirr.grid, "column_slices", counting)
    for m, c, n in [(2, 2, 2), (2, 3, 7), (4, 6, 40)]:
        calls.clear()
        family = enumerate_windows(make_grid(GridSpec(m, n)), c)
        assert calls == []
        assert len(family.indices) == n - c + 1
        assert calls == [(m, n)]


def test_windows_over_a_partial_grid_name_the_missing_edge():
    grid = make_grid(GridSpec(2, 5))
    missing = Edge(Vertex(1, 3), Vertex(2, 3))
    host = graph_from_elements(grid.vertices, grid.edges - {missing})
    with pytest.raises(
        MalformedFamilyError,
        match=r"^member 2 contains edge \(1,3\)-\(2,3\) not in the host$",
    ):
        enumerate_windows(host, 2)


def test_members_behave_as_their_tuple_and_build_once(builds):
    m, c, n = 2, 3, 8
    family = enumerate_windows(make_grid(GridSpec(m, n)), c)
    members = family.members
    expected = tuple(reference.window_subgraph(m, c, l) for l in range(1, n - c + 2))
    assert members[-1] == expected[-1] and members[2] == expected[2]
    assert members[1:4] == expected[1:4] and isinstance(members[1:4], tuple)
    assert tuple(members) == expected
    for m2, c2, n2 in ((m, c, n + 1), (m, c + 1, n), (m + 1, c, n)):
        other = enumerate_windows(make_grid(GridSpec(m2, n2)), c2)
        assert tuple(members) != tuple(other.members)
    assert list(reversed(members)) == list(reversed(expected))
    with pytest.raises(IndexError):
        members[len(expected)]
    list(members)
    assert [window for window in builds if window == (m, c, n)] == [(m, c, n)]


def test_make_grid_records_its_spec_outside_equality():
    spec = GridSpec(2, 4)
    grid = make_grid(spec)
    assert grid.spec == spec
    plain = Graph(vertices=grid.vertices, edges=grid.edges)
    assert plain.spec is None
    assert plain == grid and hash(plain) == hash(grid)
    with pytest.raises(TypeError):
        Graph(vertices=grid.vertices, edges=grid.edges, spec=spec)


def test_search_on_window_family_is_unchanged():
    grid = make_grid(GridSpec(2, 5))
    implicit = enumerate_windows(grid, 2)
    explicit = CoverFamily(host=grid, members=tuple(implicit.members))
    for kind in LabelingKind:
        fast = min_strength(grid, implicit, kind, k_max=3, start_k=1)
        slow = min_strength(grid, explicit, kind, k_max=3, start_k=1)
        assert fast == slow
