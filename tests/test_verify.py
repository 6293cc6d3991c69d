import re

import pytest
from hypothesis import given

from gridirr import (
    CoverFamily,
    Edge,
    Graph,
    GridSpec,
    IncompleteLabelingError,
    InvalidParameterError,
    Labeling,
    LabelingKind,
    MalformedFamilyError,
    RangeViolation,
    StrayLabelError,
    TotalVariant,
    Vertex,
    WeightCollision,
    construct_edge_labeling,
    construct_for_kind,
    construct_total_labeling,
    construct_vertex_labeling,
    enumerate_windows,
    format_element,
    make_grid,
    subgraph_weight,
    verify_irregular,
    weight_profile,
    window_denominator,
)
from strategies import scope_params

A_KIND = {LabelingKind.VERTEX: "a vertex", LabelingKind.EDGE: "an edge", LabelingKind.TOTAL: "a total"}


def brute_weight(labeling, member):
    """Independent oracle: raw sum over the member's element sets."""
    total = 0
    if labeling.kind in (LabelingKind.VERTEX, LabelingKind.TOTAL):
        total += sum(labeling.labels[v] for v in member.vertices)
    if labeling.kind in (LabelingKind.EDGE, LabelingKind.TOTAL):
        total += sum(labeling.labels[e] for e in member.edges)
    return total


def all_ones(kind, host, m, n):
    labels = {}
    if kind in (LabelingKind.VERTEX, LabelingKind.TOTAL):
        labels.update({v: 1 for v in host.vertices})
    if kind in (LabelingKind.EDGE, LabelingKind.TOTAL):
        labels.update({e: 1 for e in host.edges})
    return Labeling(kind=kind, k=1, labels=labels, m=m, n=n)


def test_vertex_weights_2_3_2():
    fam = enumerate_windows(make_grid(GridSpec(2, 3)), 2)
    lab = construct_vertex_labeling(2, 3, 2)
    assert subgraph_weight(lab, fam.members[0]) == 4
    assert subgraph_weight(lab, fam.members[1]) == 5


def test_edge_weight_2_3_2():
    fam = enumerate_windows(make_grid(GridSpec(2, 3)), 2)
    lab = construct_edge_labeling(2, 3, 2)
    assert subgraph_weight(lab, fam.members[0]) == 4


@given(scope_params(max_n=10))
def test_all_ones_total_weight_is_element_count(params):
    m, c, n = params
    host = make_grid(GridSpec(m, n))
    fam = enumerate_windows(host, c)
    lab = all_ones(LabelingKind.TOTAL, host, m, n)
    for member in fam.members:
        assert subgraph_weight(lab, member) == 3 * m * c - m - c


@given(scope_params(max_n=14))
def test_weights_match_brute_force(params):
    m, c, n = params
    host = make_grid(GridSpec(m, n))
    fam = enumerate_windows(host, c)
    for lab in (
        construct_vertex_labeling(m, n, c),
        construct_edge_labeling(m, n, c),
        construct_total_labeling(m, n, c),
    ):
        assert weight_profile(lab, fam) == [
            brute_weight(lab, member) for member in fam.members
        ]


@given(scope_params(max_n=16))
def test_constructed_profiles_are_consecutive(params):
    m, c, n = params
    host = make_grid(GridSpec(m, n))
    fam = enumerate_windows(host, c)
    for kind, lab in (
        (LabelingKind.VERTEX, construct_vertex_labeling(m, n, c)),
        (LabelingKind.EDGE, construct_edge_labeling(m, n, c)),
        (LabelingKind.TOTAL, construct_total_labeling(m, n, c)),
    ):
        base = window_denominator(kind, m, c)
        assert weight_profile(lab, fam) == list(
            range(base, base + n - c + 1)
        )
        assert verify_irregular(lab, fam).accepted


def test_weight_additivity_on_split_window():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    lab = construct_total_labeling(2, 4, 2)
    member = fam.members[0]
    left = Graph(
        vertices=frozenset(v for v in member.vertices if v.j == 1),
        edges=frozenset(e for e in member.edges if e.a.j == 1 and e.b.j == 1),
    )
    right = Graph(
        vertices=frozenset(v for v in member.vertices if v.j == 2),
        edges=frozenset(e for e in member.edges if e.a.j == 2 and e.b.j == 2),
    )
    crossing = Graph(
        vertices=frozenset(),
        edges=frozenset(e for e in member.edges if e.a.j != e.b.j),
    )
    parts = (
        subgraph_weight(lab, left)
        + subgraph_weight(lab, right)
        + subgraph_weight(lab, crossing)
    )
    assert parts == subgraph_weight(lab, member)


def test_all_ones_collides_on_first_two_windows():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    lab = all_ones(LabelingKind.VERTEX, host, 2, 4)
    verdict = verify_irregular(lab, fam)
    assert not verdict.accepted
    assert verdict.violation == WeightCollision(first=1, second=2, weight=4)


def test_budget_breach_reported_before_collisions():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    lab = construct_vertex_labeling(2, 3, 2)
    bad = lab.with_label(Vertex(2, 2), lab.k + 1)
    verdict = verify_irregular(bad, fam)
    assert not verdict.accepted
    assert verdict.violation == RangeViolation(
        element=Vertex(2, 2), label=lab.k + 1, k=lab.k
    )


def test_label_below_one_is_a_range_violation():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    lab = construct_vertex_labeling(2, 3, 2).with_label(Vertex(1, 1), 0)
    verdict = verify_irregular(lab, fam)
    assert isinstance(verdict.violation, RangeViolation)
    assert verdict.violation.label == 0


def test_first_range_violation_in_canonical_order():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    lab = (
        construct_vertex_labeling(2, 3, 2)
        .with_label(Vertex(2, 1), 9)
        .with_label(Vertex(1, 2), 9)
    )
    verdict = verify_irregular(lab, fam)
    assert verdict.violation.element == Vertex(1, 2)


def test_collision_pair_is_lexicographically_least():
    host = make_grid(GridSpec(2, 5))
    fam = enumerate_windows(host, 2)
    # column sums 2,3,3,2,4 give window weights [5,6,5,6]: colliding pairs
    # are (1,3) and (2,4); the verdict must pick (1,3)
    column_sums = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (1, 1), 5: (2, 2)}
    labels = {}
    for j, (top, bottom) in column_sums.items():
        labels[Vertex(1, j)] = top
        labels[Vertex(2, j)] = bottom
    lab = Labeling(kind=LabelingKind.VERTEX, k=2, labels=labels, m=2, n=5)
    assert weight_profile(lab, fam) == [5, 6, 5, 6]
    verdict = verify_irregular(lab, fam)
    assert verdict.violation == WeightCollision(first=1, second=3, weight=5)


def test_incomplete_labeling_raises():
    host = make_grid(GridSpec(2, 3))
    fam = enumerate_windows(host, 2)
    lab = construct_vertex_labeling(2, 3, 2)
    labels = dict(lab.labels)
    del labels[Vertex(1, 2)]
    partial = Labeling(
        kind=lab.kind, k=lab.k, labels=labels, m=lab.m, n=lab.n
    )
    with pytest.raises(IncompleteLabelingError):
        verify_irregular(partial, fam)


@pytest.mark.parametrize("kind", list(LabelingKind))
def test_incomplete_labeling_names_the_element_and_the_kind(kind):
    fam = enumerate_windows(make_grid(GridSpec(2, 3)), 2)
    lab = construct_for_kind(kind, 2, 3, 2)
    missing = Edge(Vertex(1, 2), Vertex(2, 2)) if kind is LabelingKind.EDGE else Vertex(1, 2)
    labels = {e: label for e, label in lab.labels.items() if e != missing}
    partial = Labeling(kind=kind, k=lab.k, labels=labels, m=2, n=3)
    message = f"no label for {format_element(missing)} required by {A_KIND[kind]} labeling"
    with pytest.raises(IncompleteLabelingError, match=f"^{re.escape(message)}$"):
        verify_irregular(partial, fam)


def test_non_covering_family_is_malformed():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    truncated = CoverFamily(host=host, members=fam.members[:-1])
    lab = construct_vertex_labeling(2, 4, 2)
    with pytest.raises(MalformedFamilyError):
        verify_irregular(lab, truncated)


def test_single_label_mutation_flips_verdict():
    host = make_grid(GridSpec(2, 4))
    fam = enumerate_windows(host, 2)
    lab = construct_vertex_labeling(2, 4, 2)
    assert verify_irregular(lab, fam).accepted
    # raising the first column's corner by 1 equalizes windows 1 and 2
    # (window 1 gains 1, window 2 unchanged): 8+1 == 9
    bumped = lab.with_label(Vertex(1, 1), lab.labels[Vertex(1, 1)] + 1)
    profile = weight_profile(bumped, fam)
    assert profile[0] == profile[1]
    verdict = verify_irregular(bumped, fam)
    assert not verdict.accepted
    assert isinstance(verdict.violation, WeightCollision)


def stray_element(kind, m, n, stray):
    """An element a labeling of the kind on the m-by-n grid does not weigh."""
    if stray == "off_host_vertex":
        return Vertex(m + 1, n)
    if stray == "off_host_edge":
        return Edge(Vertex(1, n), Vertex(1, n + 1))
    if stray == "diagonal_edge":
        return Edge(Vertex(1, 1), Vertex(2, 2))
    if kind is LabelingKind.EDGE:  # wrong kind
        return Vertex(1, 1)
    return Edge(Vertex(1, 1), Vertex(1, 2))


STRAY_CASES = [
    (kind, stray)
    for kind in LabelingKind
    for stray in ("off_host_vertex", "off_host_edge", "diagonal_edge", "wrong_kind")
    if (kind, stray) != (LabelingKind.TOTAL, "wrong_kind")  # total weighs all
]


def window_or_explicit(host, c, family):
    windows = enumerate_windows(host, c)
    if family == "window":
        assert windows.window is not None
        return windows
    return CoverFamily(host=host, members=tuple(windows.members))


@pytest.mark.parametrize("kind, stray", STRAY_CASES)
@pytest.mark.parametrize("in_range", [True, False])
@pytest.mark.parametrize("family", ["window", "explicit"])
def test_stray_label_raises(kind, stray, in_range, family):
    m, c, n = 2, 2, 5
    constructed = construct_for_kind(kind, m, n, c)
    element = stray_element(kind, m, n, stray)
    label = 1 if in_range else 99
    labeling = constructed.with_label(element, label)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    assert verify_irregular(constructed, fam).accepted
    message = (
        f"label on {format_element(element)}, which {A_KIND[kind]} "
        f"labeling of this host does not weigh"
    )
    with pytest.raises(StrayLabelError, match=f"^{re.escape(message)}$"):
        verify_irregular(labeling, fam)
    # the weights still ignore it
    assert weight_profile(labeling, fam) == weight_profile(constructed, fam)


@pytest.mark.parametrize("family", ["window", "explicit"])
def test_stray_error_names_the_least_stray_element(family):
    m, c, n = 2, 3, 6
    labeling = construct_vertex_labeling(m, n, c).with_label(Vertex(1, 1), 0)
    for element in (
        Edge(Vertex(1, 1), Vertex(1, 2)),
        Vertex(3, 1),
        Edge(Vertex(1, 1), Vertex(2, 2)),
        Vertex(2, 7),
        Edge(Vertex(2, 6), Vertex(2, 7)),
    ):
        labeling = labeling.with_label(element, 1)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    # vertices come first, row-major; the stray wins over the range breach
    with pytest.raises(StrayLabelError, match=re.escape("label on (2,7), which")):
        verify_irregular(labeling, fam)


@pytest.mark.parametrize("family", ["window", "explicit"])
def test_stray_label_is_found_beside_a_missing_one(family):
    # as many labels as the kind weighs, one of them stray
    m, c, n = 2, 2, 5
    labeling = construct_edge_labeling(m, n, c)
    labels = dict(labeling.labels)
    del labels[Edge(Vertex(1, 1), Vertex(1, 2))]
    labels[Vertex(1, 1)] = 1
    swapped = Labeling(kind=labeling.kind, k=labeling.k, labels=labels, m=m, n=n)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    with pytest.raises(StrayLabelError, match=re.escape("label on (1,1), which")):
        verify_irregular(swapped, fam)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def as_dict(labeling):
    """The same labeling with its labels in a dict, read by lookup."""
    return Labeling(kind=labeling.kind, k=labeling.k, labels=dict(labeling.labels),
                    m=labeling.m, n=labeling.n)


VARIANTS = [(kind, TotalVariant.CORRECTED) for kind in LabelingKind] + [
    (LabelingKind.TOTAL, TotalVariant.AS_PRINTED)
]


def test_layout_fast_path_matches_the_lookup_path():
    """Over the acceptance range, a constructed labeling read through its
    layout gets the verdict, first violation and profile of its dict form."""
    for m in range(2, 5):
        for c in range(m, 7):
            for n in range(c, 41):
                fam = enumerate_windows(make_grid(GridSpec(m, n)), c)
                for kind, variant in VARIANTS:
                    lab = construct_for_kind(kind, m, n, c, variant)
                    fast = [outcome(fn, lab, fam) for fn in (verify_irregular, weight_profile)]
                    assert "_labels" not in vars(lab.labels)  # no key was read
                    slow = [outcome(fn, as_dict(lab), fam) for fn in (verify_irregular, weight_profile)]
                    assert fast == slow, (kind, variant, m, c, n)
                    assert fast[0][1].accepted is (variant is TotalVariant.CORRECTED)


@pytest.mark.parametrize("kind, variant", VARIANTS)
@pytest.mark.parametrize("family", ["window", "explicit"])
def test_with_label_on_a_constructed_labeling_matches_the_dict_form(kind, variant, family):
    m, c, n = 3, 4, 9
    lab = construct_for_kind(kind, m, n, c, variant)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    in_kind = Vertex(m, 1) if kind is not LabelingKind.EDGE else Edge(Vertex(1, 1), Vertex(2, 1))
    other = {LabelingKind.VERTEX: Edge(Vertex(1, 1), Vertex(1, 2)),
             LabelingKind.EDGE: Vertex(1, 1)}.get(kind)
    cases = [(in_kind, lab.labels[in_kind] + 1), (in_kind, lab.k + 1), (in_kind, 0),
             (Vertex(m + 1, 1), 1)] + ([(other, 1)] if other else [])
    for element, label in cases:
        edited, expected = lab.with_label(element, label), as_dict(lab).with_label(element, label)
        assert edited.labels == expected.labels
        for fn in (verify_irregular, weight_profile):
            assert outcome(fn, edited, fam) == outcome(fn, expected, fam), (element, label)
    message = f"label on ({m + 1},1), which {A_KIND[kind]} labeling of this host does not weigh"
    assert outcome(verify_irregular, lab.with_label(Vertex(m + 1, 1), 1), fam) == (
        "raised", StrayLabelError, message)


@pytest.mark.parametrize("kind", list(LabelingKind))
@pytest.mark.parametrize("family", ["window", "explicit"])
@pytest.mark.parametrize("label", [1.5, 2.0, True, "1"])
def test_a_label_that_is_not_an_int_is_rejected(kind, family, label):
    m, c, n = 2, 2, 4
    if kind is LabelingKind.EDGE:
        first, later = Edge(Vertex(1, 1), Vertex(2, 1)), Edge(Vertex(2, 3), Vertex(2, 4))
    else:
        first, later = Vertex(1, 2), Edge(Vertex(2, 3), Vertex(2, 4))
    if kind is LabelingKind.VERTEX:
        later = Vertex(2, 4)
    lab = construct_for_kind(kind, m, n, c)
    # a dict labeling, read by lookup, that holds the later bad label first
    labels = {later: 0.5, **{e: v for e, v in lab.labels.items() if e != later}}
    labels[first] = label
    edited = Labeling(kind=kind, k=lab.k, labels=labels, m=m, n=n)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    message = f"label at {format_element(first)} must be an integer, got {label!r}"
    for fn, member in ((verify_irregular, fam), (weight_profile, fam),
                       (subgraph_weight, fam.members[0])):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            fn(edited, member)


@pytest.mark.parametrize("kind", list(LabelingKind))
@pytest.mark.parametrize("family", ["window", "explicit"])
@pytest.mark.parametrize("k", [2.5, True])
@pytest.mark.parametrize("read", ["layout", "lookup"])
def test_a_budget_that_is_not_an_int_is_rejected(kind, family, k, read):
    m, c, n = 2, 2, 4
    lab = construct_for_kind(kind, m, n, c)
    labels = lab.labels if read == "layout" else dict(lab.labels)
    edited = Labeling(kind=kind, k=k, labels=labels, m=m, n=n)
    fam = window_or_explicit(make_grid(GridSpec(m, n)), c, family)
    assert verify_irregular(lab, fam).accepted
    with pytest.raises(InvalidParameterError, match=f"^k must be an integer, got {k!r}$"):
        verify_irregular(edited, fam)
