"""Indexed explicit families against the set-based reference.

Explicit families (reordered, truncated, borrowed, loaded and hand-built)
are checked and weighed through sorted index tuples into the host's
canonical element order.  ``reference`` holds the set-based loops they
replace.  Every result must be equal, or both must raise the same
exception with the same message.  Members with an element outside a host
build no family on it: the constructor and the loader raise the
reference's error.
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
from gridirr.io import (
    dump_family,
    elements_to_json_dict,
    family_from_json_dict,
    family_to_json_dict,
    graph_to_json_dict,
    load_family,
)
from strategies import hand_built_cases, scope_params


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def assert_matches_reference(labeling, host, members, other_hosts=()):
    """The members build a family on ``host`` and on each other host
    exactly when the reference finds no element outside it; then the
    family is checked and weighed as the reference does."""
    for on in (host, *other_hosts):
        built = outcome(CoverFamily, on, members)
        error = reference.outside_host_error(on, members)
        if error is not None:
            assert built == ("raised", MalformedFamilyError, str(error))
            continue
        family = built[1]
        assert family.window is None
        assert outcome(is_edge_covering, family) == outcome(
            reference.is_edge_covering, on, members
        )
        for ours, theirs in (
            (weight_profile, reference.weight_profile),
            (verify_irregular, reference.verify_irregular),
        ):
            assert outcome(ours, labeling, family) == outcome(
                theirs, labeling, family
            )


def reloaded(family, swapped=False):
    """The family through its file, each edge's ends swapped if asked."""
    buf = stdio.StringIO()
    dump_family(family, buf)
    buf.seek(0)
    if not swapped:
        return load_family(buf)
    data = json.load(buf)
    for member in data["members"]:
        for edge in member["edges"]:
            edge.reverse()
    return family_from_json_dict(data)


def as_loaded(host, members, swapped=False):
    """Loading ``host`` and ``members`` from a family file, each edge's
    ends swapped if asked: its outcome."""
    data = {"host": graph_to_json_dict(host),
            "members": [elements_to_json_dict(member) for member in members]}
    for member in data["members"] if swapped else ():
        for edge in member["edges"]:
            edge.reverse()
    return outcome(family_from_json_dict, json.loads(json.dumps(data)))


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
    st.booleans(),
    st.sampled_from(CHANGES),
    st.randoms(use_true_random=False),
)
def test_window_member_families_match_reference(
    params, variant, shape, load, swapped, change, rnd
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
    members = tuple(members)
    if load:  # on a grid host, through the position pass or its fallback
        got = as_loaded(host, members, swapped)
        assert got == outcome(CoverFamily, host, members)
        assert got[0] == "raised" or tuple(got[1].members) == members
    other_hosts = (
        make_grid(GridSpec(m, n)),  # equal to the grid, not the same object
        Graph(vertices=grid.vertices, edges=grid.edges),
        make_grid(GridSpec(m, n + 1)),
    )
    assert_matches_reference(labeling, host, members, other_hosts)


@settings(max_examples=200, deadline=None)
@given(hand_built_cases(), st.booleans())
def test_hand_built_families_match_reference(case, load):
    labeling, host, members, wider = case
    if load:
        assert as_loaded(host, members) == outcome(CoverFamily, host, members)
    assert_matches_reference(labeling, host, members, (wider,))


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


ACCEPTANCE = [(m, c, n) for m in range(2, 5) for c in range(m, 7) for n in range(c, 41)]


def test_window_family_files_of_the_acceptance_range_load_by_position():
    """Every window family of the acceptance range loads, as written,
    reversed and with each edge's ends swapped, into the window's index
    tuples, and its grid host's index is never made."""
    for m, c, n in ACCEPTANCE:
        window = enumerate_windows(make_grid(GridSpec(m, n)), c)
        data = family_to_json_dict(window)
        swapped = json.loads(json.dumps(data))
        for member in swapped["members"]:
            for edge in member["edges"]:
                edge.reverse()
        for members, expected in (
            (data["members"], window.indices),
            (data["members"][::-1], window.indices[::-1]),
            (swapped["members"], window.indices),
        ):
            family = family_from_json_dict({**data, "members": members})
            assert family.indices == expected, (m, c, n)
            assert "index" not in vars(family.host)


def test_loaded_members_are_indexed_and_read_as_subgraphs():
    grid = make_grid(GridSpec(2, 6))
    window = enumerate_windows(grid, 3)
    family = reloaded(window)
    members = family.members
    assert family.window is None
    indices = family.indices
    assert family.indices is indices  # computed once
    assert tuple(members) == tuple(window.members)
    assert members[1:3] == tuple(window.members)[1:3]
    assert family == window and (family == 5) is False
    backwards = reloaded(
        CoverFamily(host=grid, members=tuple(reversed(window.members)))
    )
    assert tuple(backwards.members) != tuple(members)
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
    message = r"^member 2 contains vertex \(3,1\) not in the host$"
    with pytest.raises(MalformedFamilyError, match=message):
        family_from_json_dict(data)
    # with no vertex outside, the least edge, endpoints in canonical order
    data["members"][1] = {
        "vertices": [[1, 2]],
        "edges": [[[2, 3], [1, 2]], [[2, 2], [1, 1]], [[1, 3], [1, 4]]],
    }
    with pytest.raises(
        MalformedFamilyError,
        match=r"^member 2 contains edge \(1,1\)-\(2,2\) not in the host$",
    ):
        family_from_json_dict(data)


def test_hand_built_outside_host_error_is_the_same():
    grid = make_grid(GridSpec(2, 3))
    stray = Graph(
        vertices=frozenset([Vertex(9, 9), Vertex(3, 1), Vertex(1, 1)]),
        edges=frozenset([Edge(Vertex(1, 1), Vertex(2, 2))]),
    )
    with pytest.raises(
        MalformedFamilyError,
        match=r"^member 1 contains vertex \(3,1\) not in the host$",
    ):
        CoverFamily(host=grid, members=(stray,))


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
    first = family.members[0]
    assert first.vertices == {Vertex(1, 1), Vertex(1, 2)}
    assert first.edges == {
        Edge(Vertex(1, 1), Vertex(1, 2)), Edge(Vertex(1, 1), Vertex(2, 1))
    }
    assert is_edge_covering(family).covers
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
    taller = make_grid(GridSpec(3, 5))
    assert CoverFamily(host=taller, members=loaded.members).indices != loaded.indices
    for host in (taller, make_grid(GridSpec(2, 4))):  # not covering; member 4 outside
        assert_matches_reference(labeling, host, tuple(loaded.members))
