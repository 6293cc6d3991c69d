"""Indexed explicit families against the set-based reference.

Explicit families (reordered, truncated, borrowed, loaded and hand-built)
are checked and weighed through sorted index tuples into the host's
canonical element order.  ``reference`` holds the set-based loops they
replace.  Every result must be equal, or both must raise the same
exception with the same message.
"""

import io as stdio
import json

import pytest
from hypothesis import given, settings, strategies as st

import reference
from gridirr import (
    CoverFamily,
    Edge,
    FormatError,
    Graph,
    GridSpec,
    Labeling,
    LabelingKind,
    MalformedFamilyError,
    TotalVariant,
    Vertex,
    construct_for_kind,
    construct_total_labeling,
    enumerate_windows,
    is_edge_covering,
    make_grid,
    verify_irregular,
    weight_profile,
)
from gridirr.covering import Members
from gridirr.io import dump_family, family_from_json_dict, load_family
from strategies import hand_built_cases, scope_params


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def assert_matches_reference(labeling, family, other_hosts=()):
    assert family.window is None
    for host in (family.host, *other_hosts):
        assert outcome(is_edge_covering, host, family) == outcome(
            reference.is_edge_covering, host, family
        )
    for ours, theirs in (
        (weight_profile, reference.weight_profile),
        (verify_irregular, reference.verify_irregular),
    ):
        assert outcome(ours, labeling, family) == outcome(
            theirs, labeling, family
        )


def reloaded(family):
    buf = stdio.StringIO()
    dump_family(family, buf)
    buf.seek(0)
    return load_family(buf)


def changed_labeling(labeling, change, rnd):
    m, n, k = labeling.m, labeling.n, labeling.k
    if change == "over":
        target = rnd.choice(sorted(labeling.labels, key=repr))
        return labeling.with_label(target, k + 1)
    if change == "value":
        target = rnd.choice(sorted(labeling.labels, key=repr))
        return labeling.with_label(target, rnd.randint(1, k))
    if change == "missing":
        labels = dict(labeling.labels)
        del labels[rnd.choice(sorted(labels, key=repr))]
        return Labeling(kind=labeling.kind, k=k, labels=labels, m=m, n=n)
    stray = {
        "stray_vertex": Vertex(m + 1, n),
        "stray_edge": Edge(Vertex(m, n), Vertex(m, n + 1)),
        "diagonal": Edge(Vertex(1, 1), Vertex(2, 2)),
        "wrong_kind": (
            Vertex(1, 1)
            if labeling.kind is LabelingKind.EDGE
            else Edge(Vertex(1, 1), Vertex(1, 2))
        ),
    }.get(change)
    if stray is None:
        return labeling
    return labeling.with_label(stray, rnd.choice([0, 1, k, k + 1]))


GRID_SHAPES = [
    "forward", "reversed", "shuffled", "truncated",
    "borrowed_taller", "borrowed_shorter",
]
CHANGES = [
    "none", "over", "value", "missing",
    "stray_vertex", "stray_edge", "diagonal", "wrong_kind",
]


@settings(max_examples=150, deadline=None)
@given(
    scope_params(max_m=4, max_c=6, max_n=40),
    st.sampled_from(["vertex", "edge", "total", "as_printed"]),
    st.sampled_from(GRID_SHAPES),
    st.booleans(),
    st.sampled_from(CHANGES),
    st.randoms(use_true_random=False),
)
def test_window_member_families_match_reference(
    params, variant, shape, load, change, rnd
):
    m, c, n = params
    if variant == "as_printed":
        labeling = construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED)
    else:
        labeling = construct_for_kind(LabelingKind(variant), m, n, c)
    labeling = changed_labeling(labeling, change, rnd)
    grid = make_grid(GridSpec(m, n))
    members = list(enumerate_windows(grid, c).members)
    host = grid
    if shape == "reversed":
        members.reverse()
    elif shape == "shuffled":
        rnd.shuffle(members)
    elif shape == "truncated" and len(members) > 1:
        del members[rnd.randrange(len(members))]
    elif shape == "borrowed_taller":
        host = make_grid(GridSpec(m + 1, n))
    elif shape == "borrowed_shorter":  # column n lies outside the host
        host = make_grid(GridSpec(m, n - 1))
    family = CoverFamily(host=host, members=tuple(members))
    if load:
        family = reloaded(family)
        assert family.members == tuple(members)
    other_hosts = (
        make_grid(GridSpec(m, n)),  # equal to the grid, not the same object
        Graph(vertices=grid.vertices, edges=grid.edges),
        make_grid(GridSpec(m, n + 1)),
    )
    assert_matches_reference(labeling, family, other_hosts)


@settings(max_examples=200, deadline=None)
@given(hand_built_cases(), st.booleans())
def test_hand_built_families_match_reference(case, load):
    labeling, family, wider = case
    if load:
        family = reloaded(family)
    assert_matches_reference(labeling, family, (wider,))


def test_make_grid_orders_elements_by_formula():
    for m, n in ((1, 1), (1, 4), (3, 1), (3, 5)):
        grid = make_grid(GridSpec(m, n))
        plain = Graph(vertices=grid.vertices, edges=grid.edges)
        assert "elements" not in vars(plain)
        assert grid.elements == plain.elements
        assert plain.elements == (*sorted(grid.vertices), *sorted(grid.edges))
        assert grid.index == {
            (e if isinstance(e, Vertex) else (e.a, e.b)): pos
            for pos, e in enumerate(plain.elements)
        }


def test_loaded_members_are_indexed_and_read_as_subgraphs():
    grid = make_grid(GridSpec(2, 6))
    window = enumerate_windows(grid, 3)
    family = reloaded(window)
    members = family.members
    assert isinstance(members, Members) and members.window is None
    assert members.host is family.host
    indices = family.indices
    assert family.indices is indices  # computed once
    for pos, member in enumerate(indices):  # the very tuples the loader made
        assert members.positions(pos) is member
    assert members == window.members and window.members == members
    assert members == tuple(window.members) and tuple(window.members) == members
    assert hash(members) == hash(tuple(window.members))
    assert members[1:3] == tuple(window.members)[1:3]
    assert members[-1] is members[-1]  # built once, then kept
    assert family == window
    backwards = reloaded(
        CoverFamily(host=grid, members=tuple(reversed(window.members)))
    )
    assert backwards.members != members
    assert backwards.indices == tuple(reversed(family.indices))


def test_hand_built_members_are_indexed_once():
    grid = make_grid(GridSpec(2, 4))
    family = CoverFamily(
        host=grid, members=tuple(reversed(enumerate_windows(grid, 2).members))
    )
    first = family.indices
    assert family.indices is first
    assert first[0] == tuple(
        grid.elements.index(e)
        for e in grid.elements
        if e in family.members[0].vertices or e in family.members[0].edges
    )


def family_file(members):
    return {"host": {"grid": [2, 3]}, "members": members}


def test_outside_host_error_names_least_element_of_first_member():
    inside = {"vertices": [[1, 1]], "edges": [[[1, 1], [1, 2]]]}
    data = family_file([
        inside,
        # an edge outside too, and a set whose iteration meets (4,4) first:
        # the least vertex wins
        {"vertices": [[4, 4], [1, 2], [3, 1]], "edges": [[[1, 4], [1, 3]]]},
        {"vertices": [[3, 3]], "edges": []},
    ])
    family = family_from_json_dict(data)
    message = r"^member 2 contains vertex \(3,1\) not in the host$"
    with pytest.raises(MalformedFamilyError, match=message):
        is_edge_covering(family.host, family)
    labeling = construct_for_kind(LabelingKind.VERTEX, 2, 3, 2)
    for check in (weight_profile, verify_irregular):
        with pytest.raises(MalformedFamilyError, match=message):
            check(labeling, family)
    # with no vertex outside, the least edge, endpoints in canonical order
    data["members"][1] = {
        "vertices": [[1, 2]],
        "edges": [[[2, 3], [1, 2]], [[2, 2], [1, 1]], [[1, 3], [1, 4]]],
    }
    family = family_from_json_dict(data)
    with pytest.raises(
        MalformedFamilyError,
        match=r"^member 2 contains edge \(1,1\)-\(2,2\) not in the host$",
    ):
        weight_profile(labeling, family)


def test_hand_built_outside_host_error_is_the_same():
    grid = make_grid(GridSpec(2, 3))
    stray = Graph(
        vertices=frozenset([Vertex(9, 9), Vertex(3, 1), Vertex(1, 1)]),
        edges=frozenset([Edge(Vertex(1, 1), Vertex(2, 2))]),
    )
    family = CoverFamily(host=grid, members=(stray,))
    labeling = construct_for_kind(LabelingKind.EDGE, 2, 3, 2)
    for call in (
        lambda: is_edge_covering(grid, family),
        lambda: weight_profile(labeling, family),
    ):
        with pytest.raises(
            MalformedFamilyError,
            match=r"^member 1 contains vertex \(3,1\) not in the host$",
        ):
            call()


def test_format_errors_win_over_elements_outside_the_host():
    data = family_file([
        {"vertices": [[9, 9]], "edges": []},
        {"vertices": [[1, 1]], "edges": [[[1, 1], [1, 1]]]},
    ])
    with pytest.raises(
        FormatError,
        match=r"^members\[1\]\.edges\[0\]: edge endpoints are equal",
    ):
        family_from_json_dict(json.loads(json.dumps(data)))


def test_loaded_members_are_element_sets():
    # repeated entries and either endpoint order name the same elements
    data = family_file([
        {"vertices": [[1, 1], [1, 2], [1, 1]],
         "edges": [[[1, 2], [1, 1]], [[1, 1], [1, 2]], [[2, 1], [1, 1]]]},
        {"vertices": [], "edges": [[[1, 2], [1, 3]], [[2, 1], [2, 2]],
                                   [[2, 2], [2, 3]], [[1, 2], [2, 2]],
                                   [[1, 3], [2, 3]]]},
    ])
    family = family_from_json_dict(data)
    assert isinstance(family.members, Members)  # nothing outside
    first = family.members[0]
    assert first.vertices == {Vertex(1, 1), Vertex(1, 2)}
    assert first.edges == {
        Edge(Vertex(1, 1), Vertex(1, 2)), Edge(Vertex(1, 1), Vertex(2, 1))
    }
    assert is_edge_covering(family.host, family).covers
    labeling = construct_for_kind(LabelingKind.TOTAL, 2, 3, 2)
    assert weight_profile(labeling, family) == reference.weight_profile(
        labeling, family
    )


def test_loaded_duplicate_members_are_malformed():
    member = {"vertices": [[1, 1]], "edges": [[[1, 1], [1, 2]]]}
    same = {"vertices": [[1, 1], [1, 1]], "edges": [[[1, 2], [1, 1]]]}
    with pytest.raises(
        MalformedFamilyError, match="pairwise distinct element sets"
    ):
        family_from_json_dict(family_file([member, same]))


def test_loaded_members_on_another_host_are_indexed_against_it():
    grid = make_grid(GridSpec(2, 5))
    loaded = reloaded(enumerate_windows(grid, 2))
    labeling = construct_for_kind(LabelingKind.EDGE, 2, 5, 2)
    taller = CoverFamily(host=make_grid(GridSpec(3, 5)), members=loaded.members)
    assert taller.indices != loaded.indices
    shorter = CoverFamily(host=make_grid(GridSpec(2, 4)), members=loaded.members)
    for family in (taller, shorter):  # not covering; member 4 outside
        assert_matches_reference(labeling, family)
