import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference

from gridirr import (
    CoverFamily,
    Edge,
    Graph,
    GridSpec,
    InvalidParameterError,
    Labeling,
    LabelingKind,
    MalformedFamilyError,
    ResourceLimitError,
    Vertex,
    closed_form_strength,
    enumerate_windows,
    family_lower_bound,
    graph_from_elements,
    is_edge_covering,
    lower_bound,
    make_grid,
    min_strength,
    subgraph_weight,
    verify_irregular,
)
import gridirr.search
from gridirr.construct import GridLabels, kind_element_count, kind_range
from gridirr.search import SearchResult, _feasible
from gridirr.verify import Verdict, WeightCollision
from strategies import scope_params


def brute_force_exists(host, family, kind, k):
    """Reference oracle: enumerate every label vector outright."""
    split = host.counts[0]
    if kind is LabelingKind.VERTEX:
        elements = host.elements[:split]
    elif kind is LabelingKind.EDGE:
        elements = host.elements[split:]
    else:
        elements = host.elements
    m = max(v.i for v in host.vertices)
    n = max(v.j for v in host.vertices)
    for combo in itertools.product(range(1, k + 1), repeat=len(elements)):
        lab = Labeling(
            kind=kind, k=k, labels=dict(zip(elements, combo)), m=m, n=n
        )
        weights = [subgraph_weight(lab, mem) for mem in family.members]
        if len(set(weights)) == len(weights):
            return lab
    return None


def test_vertex_negative_at_k1():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    assert min_strength(host, fam, LabelingKind.VERTEX, k_max=1, start_k=1).witness is None


def test_vertex_witness_at_k2():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    witness = min_strength(host, fam, LabelingKind.VERTEX, k_max=2, start_k=2).witness
    assert witness is not None
    assert verify_irregular(witness, fam).accepted


def test_single_member_all_ones():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 3)
    assert fam.t == 1
    for kind in LabelingKind:
        witness = min_strength(host, fam, kind, k_max=1, start_k=1).witness
        assert witness is not None
        assert set(witness.labels.values()) == {1}


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_agrees_with_brute_force_enumeration(kind):
    host = make_grid(GridSpec(2, 2))
    fam = enumerate_windows(host, 2)
    for k in (1, 2):
        ours = min_strength(host, fam, kind, k_max=k, start_k=k).witness
        reference = brute_force_exists(host, fam, kind, k)
        assert (ours is None) == (reference is None)


def test_brute_force_agreement_with_two_windows():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    for kind in (LabelingKind.VERTEX, LabelingKind.EDGE):
        for k in (1, 2):
            ours = min_strength(host, fam, kind, k_max=k, start_k=k).witness
            reference = brute_force_exists(host, fam, kind, k)
            assert (ours is None) == (reference is None)
            if ours is not None:
                # both searches scan in the same order, so the lex-least
                # witness must coincide
                assert ours.labels == reference.labels


def test_witness_is_lexicographically_least():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    witness = min_strength(host, fam, LabelingKind.VERTEX, k_max=2, start_k=2).witness
    vertices = host.elements[: host.counts[0]]
    vector = [witness.labels[v] for v in vertices]
    reference = brute_force_exists(host, fam, LabelingKind.VERTEX, 2)
    assert vector == [reference.labels[v] for v in vertices]


def test_determinism():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    first = min_strength(host, fam, LabelingKind.EDGE, k_max=3)
    second = min_strength(host, fam, LabelingKind.EDGE, k_max=3)
    assert first == second


@pytest.mark.parametrize(
    "m,c,n", [(2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 3, 4)]
)
def test_min_strength_matches_closed_form(m, c, n):
    host = make_grid(GridSpec(m, n))
    fam = enumerate_windows(host, c)
    for kind in LabelingKind:
        cf = closed_form_strength(kind, m, n, c)
        result = min_strength(host, fam, kind, k_max=cf + 1)
        assert result.minimal_k == cf
        assert verify_irregular(result.witness, fam).accepted
        assert result.witness.k == cf


def test_no_witness_below_lower_bound():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    for kind in LabelingKind:
        lb = lower_bound(kind, fam.t, 4, 4)
        # disable the skip: searching below the bound must come back empty
        for k in range(1, lb):
            assert min_strength(host, fam, kind, k_max=k, start_k=k).witness is None
        result = min_strength(host, fam, kind, k_max=3, start_k=1)
        assert result.minimal_k == lower_bound(kind, fam.t, 4, 4)


def test_family_lower_bound_matches_uniform_bound():
    host = make_grid(GridSpec(2, 5))
    fam = enumerate_windows(host, 2)
    for kind in LabelingKind:
        vH, eH = 4, 4
        assert family_lower_bound(kind, fam) == lower_bound(
            kind, fam.t, vH, eH
        )


def test_reported_negative_is_bounded_not_infinite():
    # two members with equal vertex sets but different edge sets are
    # distinct, yet their vertex weights agree under every labeling
    host = make_grid(GridSpec(2, 2))
    full = Graph(vertices=host.vertices, edges=host.edges)
    pruned = Graph(
        vertices=host.vertices, edges=frozenset(host.elements[host.counts[0] + 1 :])
    )
    family = CoverFamily(host=host, members=(full, pruned))
    result = min_strength(host, family, LabelingKind.VERTEX, k_max=3)
    assert result.minimal_k is None
    assert result.witness is None
    assert result.k_max == 3


def test_resource_limit_is_an_error_not_a_negative():
    host = make_grid(GridSpec(2, 7))
    fam = enumerate_windows(host, 2)
    with pytest.raises(ResourceLimitError):
        min_strength(host, fam, LabelingKind.TOTAL, k_max=2, start_k=2, max_elements=24)
    with pytest.raises(ResourceLimitError):
        min_strength(host, fam, LabelingKind.TOTAL, k_max=2, max_elements=24)
    # a generous cap lets the same instance through
    witness = min_strength(
        host, fam, LabelingKind.VERTEX, k_max=3, start_k=3, max_elements=100
    ).witness
    assert witness is not None


@pytest.mark.parametrize(
    "raw,error,message",
    [
        ("abc", InvalidParameterError, "GRIDIRR_ORACLE_MAX_ELEMENTS must be an integer, got 'abc'"),
        ("0", InvalidParameterError, "GRIDIRR_ORACLE_MAX_ELEMENTS must be >= 1"),
        ("1", ResourceLimitError, "instance has 6 labeled elements, above the cap of 1;"),
    ],
)
def test_size_cap_is_read_from_the_environment_when_none_is_passed(monkeypatch, raw, error, message):
    host = make_grid(GridSpec(2, 3))
    family = enumerate_windows(host, 2)
    monkeypatch.setenv("GRIDIRR_ORACLE_MAX_ELEMENTS", raw)
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        min_strength(host, family, LabelingKind.VERTEX, k_max=2)
    # a cap passed in reads no environment
    result = min_strength(host, family, LabelingKind.VERTEX, k_max=2, max_elements=6)
    assert result.minimal_k == 2


def test_non_covering_family_rejected():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    truncated = CoverFamily(host=host, members=fam.members[:-1])
    # k_max = 1 finds no witness, so the verifier's own check is never reached
    for k_max, start_k in ((2, 2), (1, None)):
        with pytest.raises(MalformedFamilyError):
            min_strength(host, truncated, LabelingKind.VERTEX, k_max=k_max, start_k=start_k)


def test_nodes_explored_accumulates():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    skip = reference.min_strength(host, fam, LabelingKind.VERTEX, k_max=2)
    full = reference.min_strength(
        host, fam, LabelingKind.VERTEX, k_max=2, start_k=1
    )
    assert full.nodes_explored > skip.nodes_explored
    assert full.minimal_k == skip.minimal_k == 2
    # the package walk spends no node on a budget below its root bound
    skip = min_strength(host, fam, LabelingKind.VERTEX, k_max=2)
    full = min_strength(host, fam, LabelingKind.VERTEX, k_max=2, start_k=1)
    assert full.nodes_explored == skip.nodes_explored
    assert full.minimal_k == skip.minimal_k == 2


def reversed_family(family):
    return CoverFamily(host=family.host, members=tuple(reversed(family.members)))


def pinned_tree(walk, kind, m, c, n, reverse):
    host = make_grid(GridSpec(m, n))
    family = enumerate_windows(host, c)
    if reverse:
        family = reversed_family(family)
    cf = closed_form_strength(kind, m, n, c)
    result = walk(host, family, kind, k_max=cf, start_k=1)
    assert result.minimal_k == cf
    return result.nodes_explored


# nodes_explored from k=1 to the closed form; these pin the search tree
# (element order, label order and cut rule), not just its answer.  Each
# count is the reference walk's, which cuts only on completed members.
@pytest.mark.parametrize(
    "kind,m,c,n,reverse,nodes",
    [
        (LabelingKind.VERTEX, 2, 2, 8, False, 11_307),
        (LabelingKind.VERTEX, 2, 3, 10, False, 89_598),
        (LabelingKind.EDGE, 2, 2, 6, False, 249),
        (LabelingKind.EDGE, 2, 2, 7, False, 174_997),
        (LabelingKind.TOTAL, 2, 3, 5, False, 47),
        (LabelingKind.VERTEX, 2, 2, 8, True, 11_307),
        (LabelingKind.EDGE, 2, 2, 6, True, 249),
    ],
)
def test_search_tree_size_is_pinned(kind, m, c, n, reverse, nodes):
    assert pinned_tree(reference.min_strength, kind, m, c, n, reverse) == nodes


# the same instances on the package walk, which checks Hall's rule at
# every node
@pytest.mark.parametrize(
    "kind,m,c,n,reverse,nodes",
    [
        (LabelingKind.VERTEX, 2, 2, 8, False, 28),
        (LabelingKind.VERTEX, 2, 3, 10, False, 32),
        (LabelingKind.EDGE, 2, 2, 6, False, 24),
        (LabelingKind.EDGE, 2, 2, 7, False, 32),
        (LabelingKind.TOTAL, 2, 3, 5, False, 25),
        (LabelingKind.VERTEX, 2, 2, 8, True, 28),
        (LabelingKind.EDGE, 2, 2, 6, True, 24),
    ],
)
def test_hall_search_tree_size_is_pinned(kind, m, c, n, reverse, nodes):
    assert pinned_tree(min_strength, kind, m, c, n, reverse) == nodes


# vertex windows of width 2 on 11 and 12 columns: the reference walk
# needs minutes for them; the package walk certifies them from k = 1
@pytest.mark.parametrize("n,nodes", [(11, 47), (12, 54)])
def test_wide_vertex_instances_are_certified(n, nodes):
    host = make_grid(GridSpec(2, n))
    family = enumerate_windows(host, 2)
    cf = closed_form_strength(LabelingKind.VERTEX, 2, n, 2)
    result = min_strength(
        host, family, LabelingKind.VERTEX, k_max=cf, start_k=1, max_elements=24
    )
    assert (result.minimal_k, result.nodes_explored) == (cf, nodes)


def hand_built_family():
    """A non-grid host (a 5-cycle in one row) and an explicit covering in
    which one member has no vertex and another no edge.  At k=2 it has no
    vertex or edge witness, and a total witness that is not all ones."""
    v = [Vertex(1, j) for j in range(1, 6)]
    e = [Edge(v[i], v[(i + 1) % 5]) for i in range(5)]

    def member(vs, es):
        return Graph(
            vertices=frozenset(v[i] for i in vs),
            edges=frozenset(e[i] for i in es),
        )

    members = (
        member([0, 1, 2], [0]),
        member([2, 3], [1]),
        member([3, 4], [2]),
        member([0], [3]),
        member([], [4, 0]),
        member([1, 4], []),
    )
    return CoverFamily(host=graph_from_elements(v, e), members=members)


# recorded like the grid counts above, on the reference walk; vertex
# position 4 finishes two members, so a cut there must unmark the weight
# the first one marked
@pytest.mark.parametrize(
    "kind,minimal_k,nodes",
    [
        (LabelingKind.VERTEX, 3, 89),
        (LabelingKind.EDGE, 4, 217),
        (LabelingKind.TOTAL, 2, 276),
    ],
)
def test_hand_built_search_tree_is_pinned(kind, minimal_k, nodes):
    family = hand_built_family()
    result = reference.min_strength(family.host, family, kind, k_max=4, start_k=1)
    assert result.minimal_k == minimal_k
    assert result.nodes_explored == nodes


@pytest.mark.parametrize(
    "kind,minimal_k,nodes",
    [
        (LabelingKind.VERTEX, 3, 34),
        (LabelingKind.EDGE, 4, 14),
        (LabelingKind.TOTAL, 2, 17),
    ],
)
def test_hall_hand_built_search_tree_is_pinned(kind, minimal_k, nodes):
    family = hand_built_family()
    result = min_strength(family.host, family, kind, k_max=4, start_k=1)
    assert result.minimal_k == minimal_k
    assert result.nodes_explored == nodes


def test_two_members_without_relevant_elements_collide_at_every_budget():
    host = make_grid(GridSpec(2, 2))
    family = CoverFamily(
        host=host,
        members=(
            Graph(vertices=host.vertices, edges=frozenset()),
            Graph(vertices=frozenset(), edges=host.edges),
            Graph(vertices=frozenset([Vertex(1, 1)]), edges=frozenset()),
        ),
    )
    kind = LabelingKind.EDGE
    result = min_strength(host, family, kind, k_max=3, start_k=1)
    assert (result.minimal_k, result.nodes_explored) == (None, 0)
    assert brute_force_exists(host, family, kind, 2) is None


def test_one_member_without_relevant_elements_needs_budget_1():
    """Budget 0 would pass the root check on a member that weighs nothing
    (its interval is [0, 0]), so the budget walk must start at 1."""
    host = graph_from_elements([Vertex(1, 1)], [])
    family = CoverFamily(host=host, members=(host,))
    kind = LabelingKind.EDGE
    assert family_lower_bound(kind, family) == 1
    result = min_strength(host, family, kind, k_max=3)
    assert (result.minimal_k, result.nodes_explored) == (1, 0)


def twin_cases():
    """Families with two members that weigh the same elements, with a
    k_max: the c = 2 windows of a 2x4 grid and the last one less its
    largest edge (vertex kind), and a path with two one-vertex members,
    which weigh no edge (edge kind)."""
    grid = make_grid(GridSpec(2, 4))
    windows = tuple(enumerate_windows(grid, 2).members)
    last = windows[-1]
    twin = Graph(vertices=last.vertices, edges=last.edges - {max(last.edges)})
    yield CoverFamily(host=grid, members=windows + (twin,)), LabelingKind.VERTEX, 4
    a, b, c = Vertex(1, 1), Vertex(1, 2), Vertex(1, 3)
    path = graph_from_elements([a, b, c], [Edge(a, b), Edge(b, c)])
    ends = [Graph(vertices=frozenset([v]), edges=frozenset()) for v in (a, b)]
    yield CoverFamily(host=path, members=(path, *ends)), LabelingKind.EDGE, 1000


def test_members_weighing_the_same_elements_give_none_without_a_search(monkeypatch):
    searched = []
    search = gridirr.search._search

    def counting(tables, k):
        searched.append(k)
        return search(tables, k)

    monkeypatch.setattr(gridirr.search, "_search", counting)
    for family, kind, k_max in twin_cases():
        assert is_edge_covering(family).covers
        for start_k in (None, 1):
            result = min_strength(family.host, family, kind, k_max=k_max, start_k=start_k)
            assert result == SearchResult(
                minimal_k=None, witness=None, nodes_explored=0, k_max=k_max
            )
    assert searched == []
    # the root check keeps its meaning: t + 1 for the two members with no edge
    assert family_lower_bound(LabelingKind.EDGE, family) == 4


def test_window_members_differ_in_every_kind():
    # why min_strength skips the twin check on a window family
    for m in range(2, 7):
        for c in range(m, 8):
            for n in range(c, 9):
                family = enumerate_windows(make_grid(GridSpec(m, n)), c)
                for kind in LabelingKind:
                    lo, hi = kind_range(kind, family.host)
                    cut = {tuple(p for p in member if lo <= p < hi) for member in family.indices}
                    assert len(cut) == family.t, (m, c, n, kind)


def differential_cases():
    for kind, n_max in (
        (LabelingKind.VERTEX, 4),
        (LabelingKind.EDGE, 4),
        (LabelingKind.TOTAL, 3),
    ):
        for n in range(2, n_max + 1):
            for c in range(2, n + 1):
                family = enumerate_windows(make_grid(GridSpec(2, n)), c)
                yield kind, family
                yield kind, reversed_family(family)
        yield kind, hand_built_family()


def test_witness_or_none_equals_brute_force():
    for kind, family in differential_cases():
        for k in (1, 2):
            ours = min_strength(family.host, family, kind, k_max=k, start_k=k).witness
            reference = brute_force_exists(family.host, family, kind, k)
            if reference is None:
                assert ours is None, (kind, family, k)
            else:
                assert ours is not None and ours.labels == reference.labels


CERTIFY_MAX_ELEMENTS = 24
WIDE = {(LabelingKind.VERTEX, 2, 2, 11), (LabelingKind.VERTEX, 2, 2, 12)}


def certify_instances():
    """The window instances of at most 24 elements with 2 <= m <= c <= 6,
    but vertex (2,2,11) and (2,2,12), which the reference walk needs
    minutes for: (kind, host, family, closed form, element count)."""
    for kind in LabelingKind:
        for m in range(2, 7):
            for c in range(m, 7):
                for n in range(c, CERTIFY_MAX_ELEMENTS + 1):
                    edges = (m - 1) * n + m * (n - 1)
                    size = kind_element_count(kind, m * n, edges)
                    if size > CERTIFY_MAX_ELEMENTS or (kind, m, c, n) in WIDE:
                        continue
                    host = make_grid(GridSpec(m, n))
                    cf = closed_form_strength(kind, m, n, c)
                    yield kind, host, enumerate_windows(host, c), cf, size


def walk_differential_cases():
    rnd = random.Random(11)
    for kind, host, family, cf, size in certify_instances():
        yield kind, family, cf
        if size <= 16:
            shuffled = list(family.members)
            rnd.shuffle(shuffled)
            yield kind, reversed_family(family), cf
            yield kind, CoverFamily(host=host, members=tuple(shuffled)), cf
            # the same windows over an equal host that records no spec
            grid = graph_from_elements(host.vertices, host.edges)
            yield kind, enumerate_windows(grid, host.spec.n - family.t + 1), cf
    for family in (hand_built_family(), *hand_built_cases()):
        if is_edge_covering(family).covers:
            for kind in LabelingKind:
                yield kind, family, 4


def assert_reference_witness(kind, family, k):
    """The witness at budget k is the reference walk's dict witness, in the
    same iteration order.  Against its own host and a distinct equal one it
    gets the verdicts of its dict form, also with the budget lowered by one
    and with every label set to 1."""
    host = family.host
    ours = min_strength(
        host, family, kind, k_max=k, start_k=k, max_elements=CERTIFY_MAX_ELEMENTS
    ).witness
    theirs = reference.min_strength(host, family, kind, k, start_k=k).witness
    assert ours == theirs, (kind, family, k)
    if ours is None:
        return
    labels = ours.labels
    assert list(labels.items()) == list(theirs.labels.items())
    equal = Graph(vertices=host.vertices, edges=host.edges)
    ones = GridLabels(labels.host, labels.lo, (1,) * len(labels))
    for labeling in (ours, replace(ours, k=k - 1), replace(ours, labels=ones)):
        as_dict = replace(labeling, labels=dict(labeling.labels))
        for on in (family, CoverFamily(host=equal, members=family.members)):
            assert verify_irregular(labeling, on) == verify_irregular(as_dict, on)


def test_walk_matches_the_reference_walk_at_every_budget():
    budgets = 0
    for kind, family, k_max in walk_differential_cases():
        for k in range(1, k_max + 1):
            assert_reference_witness(kind, family, k)
            budgets += 1
    assert budgets > 400


def full_check_walks(kind, family, k_max):
    """The package walk at each budget 1 .. k_max, asserted equal, label
    vector and node count, to the reference walk that runs the full Hall
    check at every node: [(vector, nodes)] per budget."""
    tables = gridirr.search._prepare(family, *kind_range(kind, family.host))
    walks = []
    for k in range(1, k_max + 1):
        walks.append(gridirr.search._search(tables, k))
        assert walks[-1] == reference.hall_search(tables, k), (kind, family, k)
    return walks


def test_walk_matches_the_full_check_walk_at_every_budget():
    budgets = 0
    for kind, family, k_max in walk_differential_cases():
        budgets += len(full_check_walks(kind, family, k_max))
    assert budgets > 400


def full_copy_family(m, c, n):
    """Every copy of P_m x P_c in the m x n grid for c < m <= n, from the
    definition: each m-row, c-column subgrid (the windows, left to right),
    then each c-row, m-column one (top to bottom, then left to right), as
    the grid's vertices and edges inside its box."""
    host = make_grid(GridSpec(m, n))

    def box(top, left, rows, cols):
        def inside(v):
            return top <= v.i < top + rows and left <= v.j < left + cols

        vertices = [v for v in host.vertices if inside(v)]
        return graph_from_elements(vertices, [e for e in host.edges if all(map(inside, e))])

    members = [
        box(top, left, rows, cols)
        for rows, cols in ((m, c), (c, m))
        for top in range(1, m - rows + 2)
        for left in range(1, n - cols + 2)
    ]
    return CoverFamily(host=host, members=tuple(members))


# nodes from k = 1 to the minimum, which is above the root Hall bound on
# both: the searches refute k = 3 and k = 2 in 62,334 and 5,634 nodes
@pytest.mark.parametrize("m,c,n,minimal_k,nodes", [(3, 2, 6, 4, 62_535), (4, 3, 7, 3, 13_262)])
def test_full_copy_families_walk_as_the_full_check_walk(m, c, n, minimal_k, nodes):
    family = full_copy_family(m, c, n)
    assert family.t == n - c + 1 + (m - c + 1) * (n - m + 1)
    walks = full_check_walks(LabelingKind.VERTEX, family, minimal_k)
    assert [vector is not None for vector, _ in walks] == [False] * (minimal_k - 1) + [True]
    assert sum(count for _, count in walks) == nodes
    result = min_strength(
        family.host, family, LabelingKind.VERTEX, k_max=minimal_k, max_elements=m * n
    )
    assert (result.minimal_k, result.nodes_explored) == (minimal_k, nodes)
    assert list(result.witness.labels.values()) == walks[-1][0]


@settings(max_examples=40, deadline=None)
@given(scope_params(max_m=3, max_c=5, max_n=8), st.sampled_from(LabelingKind), st.randoms())
def test_drawn_window_families_give_the_reference_witness(params, kind, rnd):
    m, c, n = params
    size = kind_element_count(kind, m * n, 2 * m * n - m - n)
    if size > 16:
        return
    family = enumerate_windows(make_grid(GridSpec(m, n)), c)
    members = list(family.members)
    rnd.shuffle(members)
    family = CoverFamily(host=family.host, members=tuple(members))
    for k in range(1, closed_form_strength(kind, m, n, c) + 1):
        assert_reference_witness(kind, family, k)


def test_certify_search_tree_is_pinned():
    # min_strength from k = 1 on every certify instance, as perfbench's
    # certify workload runs it: minimal_k is the closed form each time
    budgets = nodes = 0
    for kind, host, family, cf, _ in certify_instances():
        result = min_strength(
            host, family, kind, k_max=cf, start_k=1, max_elements=CERTIFY_MAX_ELEMENTS
        )
        assert result.minimal_k == cf
        budgets, nodes = budgets + cf, nodes + result.nodes_explored
    assert (budgets, nodes) == (203, 2_230)


def test_certify_runs_the_full_check_only_when_a_kept_value_no_longer_fits(monkeypatch):
    # the same pass: one full Hall check at each root and node would be
    # 2,433; the walk keeps the values of the last check that passed
    full, calls = gridirr.search._feasible, []
    monkeypatch.setattr(gridirr.search, "_feasible", lambda *args: calls.append(1) or full(*args))
    for kind, host, family, cf, _ in certify_instances():
        min_strength(host, family, kind, k_max=cf, start_k=1, max_elements=CERTIFY_MAX_ELEMENTS)
    assert len(calls) == 589


def test_a_witness_the_verifier_rejects_is_an_error(monkeypatch):
    rejected = Verdict(accepted=False, violation=WeightCollision(1, 2, 5))
    monkeypatch.setattr("gridirr.search.verify_irregular", lambda *args: rejected)
    host = make_grid(GridSpec(2, 3))
    with pytest.raises(
        AssertionError,
        match=r"^search produced a labeling the verifier rejects: "
        r"members 1 and 2 share weight 5$",
    ):
        min_strength(host, enumerate_windows(host, 2), LabelingKind.VERTEX, k_max=2)


@pytest.mark.parametrize("bad", [True, False, 0, -5, 1.0, "2"])
def test_integer_parameters_are_validated(bad):
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    kind = LabelingKind.VERTEX
    calls = [
        lambda: min_strength(host, fam, kind, k_max=bad, start_k=bad),
        lambda: min_strength(host, fam, kind, k_max=2, start_k=2, max_elements=bad),
        lambda: min_strength(host, fam, kind, k_max=bad),
        lambda: min_strength(host, fam, kind, k_max=2, start_k=bad),
        lambda: min_strength(host, fam, kind, k_max=2, max_elements=bad),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError):
            call()


def test_parameter_messages():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    kind = LabelingKind.VERTEX
    with pytest.raises(InvalidParameterError, match=r"^budget cap must be >= 1, got 0$"):
        min_strength(host, fam, kind, k_max=0)
    with pytest.raises(InvalidParameterError, match="start budget must be an integer, got True"):
        min_strength(host, fam, kind, k_max=2, start_k=True)
    # a zero cap is a bad argument (exit 1), not a limit hit (exit 3)
    with pytest.raises(InvalidParameterError, match="element cap must be >= 1"):
        min_strength(host, fam, kind, k_max=2, max_elements=0)


def test_start_budget_above_cap_is_rejected():
    # Nothing would be searched, and minimal_k=None would read as
    # "infeasible up to k_max".
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    with pytest.raises(
        InvalidParameterError,
        match=r"^start budget 4 is above the budget cap 3$",
    ):
        min_strength(host, fam, LabelingKind.VERTEX, k_max=3, start_k=4)


def test_minimal_k_is_least_feasible_from_start_budget():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    kind = LabelingKind.VERTEX
    assert min_strength(host, fam, kind, k_max=3).minimal_k == 2
    # start_k == k_max stays valid: one budget, searched in full
    one = min_strength(host, fam, kind, k_max=3, start_k=3)
    assert one.minimal_k == 3 and one.witness is not None
    below = reference.min_strength(host, fam, kind, k_max=1, start_k=1)
    assert below.minimal_k is None and below.nodes_explored > 0
    # k = 1 is below the root bound: the package walk refutes it unsearched
    below = min_strength(host, fam, kind, k_max=1, start_k=1)
    assert below.minimal_k is None and below.nodes_explored == 0


def counting_start_families():
    """Window families over 2 <= m <= c <= 6, n <= 12: forward, reversed,
    shuffled and truncated (their own host need not be covered)."""
    rnd = random.Random(9)
    for m in range(2, 7):
        for c in range(m, 7):
            for n in range(c, 13):
                family = enumerate_windows(make_grid(GridSpec(m, n)), c)
                members = tuple(family.members)
                shuffled = list(members)
                rnd.shuffle(shuffled)
                yield family
                yield reversed_family(family)
                yield CoverFamily(host=family.host, members=tuple(shuffled))
                if len(members) > 1:
                    yield CoverFamily(host=family.host, members=members[:-1])


def test_family_lower_bound_matches_the_reference_on_window_families():
    for family in counting_start_families():
        for kind in LabelingKind:
            expected = reference.family_lower_bound(kind, family)
            assert family_lower_bound(kind, family) == expected, (kind, family)


def hand_built_cases():
    """Families on their own host: the hand-built one (unequal members, one
    with no vertex, one with no edge), one with two members lacking edges,
    and a window family.  Then borrowed hosts: the hand-built members over
    a host with one more, isolated vertex (1,6), and the window members
    over an equal host they were not made from and over a taller grid
    (which they do not cover)."""
    family = hand_built_family()
    host = family.host
    wider = graph_from_elements([*host.vertices, Vertex(1, 6)], host.edges)
    grid = make_grid(GridSpec(2, 2))
    empties = CoverFamily(
        host=grid,
        members=(
            Graph(vertices=grid.vertices, edges=frozenset()),
            Graph(vertices=frozenset(), edges=grid.edges),
            Graph(vertices=frozenset([Vertex(1, 1)]), edges=frozenset()),
        ),
    )
    windows = enumerate_windows(make_grid(GridSpec(2, 5)), 2)
    equal_host = Graph(vertices=windows.host.vertices, edges=windows.host.edges)
    for own in (family, empties, windows):
        yield own
    yield CoverFamily(host=wider, members=family.members)
    yield CoverFamily(host=equal_host, members=windows.members)
    yield CoverFamily(host=make_grid(GridSpec(3, 5)), members=windows.members)


def test_family_lower_bound_matches_the_reference_on_hand_built_families():
    # the root check is never weaker than counting; on unequal members it
    # can be stronger
    counts = set()
    for family in hand_built_cases():
        for kind in LabelingKind:
            expected = reference.family_lower_bound(kind, family)
            counts.add(expected)
            assert family_lower_bound(kind, family) >= expected, (kind, family)
    assert len(counts) > 1  # the cases do not all share one bound


def test_root_check_raises_the_counting_bound():
    family, empties = list(hand_built_cases())[:2]
    raised = [
        (family, LabelingKind.EDGE, 3, 4),
        # two members without an edge: no budget passes, so t + 1
        (empties, LabelingKind.EDGE, 1, 4),
        (empties, LabelingKind.TOTAL, 1, 2),
    ]
    for family, kind, counting, root in raised:
        assert reference.family_lower_bound(kind, family) == counting
        assert family_lower_bound(kind, family) == root


def default_start_cases():
    for kind, n_max in (
        (LabelingKind.VERTEX, 8),
        (LabelingKind.EDGE, 6),
        (LabelingKind.TOTAL, 5),
    ):
        for c in range(2, 5):
            for n in range(c, n_max + 1):
                family = enumerate_windows(make_grid(GridSpec(2, n)), c)
                k_max = closed_form_strength(kind, 2, n, c)
                yield kind, family, k_max
                yield kind, reversed_family(family), k_max
        for family in hand_built_cases():
            if is_edge_covering(family).covers:
                yield kind, family, 4


def test_default_start_is_the_reference_counting_bound():
    searched = 0
    for kind, family, k_max in default_start_cases():
        host = family.host
        start = reference.family_lower_bound(kind, family)
        default = min_strength(host, family, kind, k_max=k_max)
        assert default == min_strength(
            host, family, kind, k_max=k_max, start_k=start
        ), (kind, family)
        searched += default.nodes_explored
    assert searched > 0


def test_a_member_outside_its_host_builds_no_family():
    host = make_grid(GridSpec(2, 3))
    stray = Graph(vertices=frozenset([Vertex(3, 1)]), edges=frozenset())
    with pytest.raises(MalformedFamilyError) as raised:
        CoverFamily(host=host, members=(*enumerate_windows(host, 2).members, stray))
    assert str(raised.value) == "member 3 contains vertex (3,1) not in the host"


def test_min_strength_rejects_a_host_other_than_the_family_s():
    host = make_grid(GridSpec(2, 3))
    family = enumerate_windows(host, 2)
    equal = make_grid(GridSpec(2, 3))
    assert min_strength(equal, family, LabelingKind.VERTEX, k_max=2) == min_strength(
        host, family, LabelingKind.VERTEX, k_max=2
    )
    for other in (make_grid(GridSpec(2, 4)), make_grid(GridSpec(3, 3))):
        with pytest.raises(InvalidParameterError, match="^host must be the family's own host$"):
            min_strength(other, family, LabelingKind.VERTEX, k_max=2)


def distinct_weights_exist(weight, left, k):
    """Brute force of Hall's check: some assignment gives each member a
    distinct final weight, member i one of w + r .. w + r*k (r unlabeled
    positions, each taking a label in 1..k, reach every value between)."""
    values = [range(w + r, w + r * k + 1) for w, r in zip(weight, left)]
    return any(len(set(chosen)) == len(chosen) for chosen in itertools.product(*values))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=5),
    st.integers(1, 4),
)
def test_hall_check_equals_brute_force_over_small_interval_sets(members, k):
    # the package check returns the value each member gets, the reference
    # check a bool
    weight, left = [w for w, _ in members], [r for _, r in members]
    exists = distinct_weights_exist(weight, left, k)
    assert reference.feasible(weight, left, k) == exists
    values = _feasible(weight, left, k)
    assert (values is not None) == exists
    if values is not None:
        assert len(set(values)) == len(values)
        assert all(w + r <= v <= w + r * k for v, w, r in zip(values, weight, left))
