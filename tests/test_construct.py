import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gridirr import (
    Edge,
    GridSpec,
    InvalidParameterError,
    LabelingKind,
    RangeViolation,
    ScopeError,
    TotalVariant,
    Vertex,
    ceil_div,
    construct_edge_labeling,
    construct_for_kind,
    construct_total_labeling,
    construct_vertex_labeling,
    enumerate_windows,
    make_grid,
    verify_irregular,
    window_denominator,
)
import gridirr.construct
from gridirr.construct import _stair, kind_element_count, kind_rows
from gridirr.covering import _window_indices
from gridirr.grid import canonical_order, column_slices
from gridirr.verify import kind_range
import reference
from strategies import scope_params


# --- ceil_div: the audited primitive ---------------------------------------


@pytest.mark.parametrize(
    "p,q,expected", [(-1, 4, 0), (4, 4, 1), (-7, 8, 0), (0, 5, 0), (1, 8, 1),
                     (-8, 8, -1), (9, 8, 2), (-9, 8, -1)]
)
def test_ceil_div_values(p, q, expected):
    assert ceil_div(p, q) == expected


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=1, max_value=10**6))
def test_ceil_div_soundness(p, q):
    r = ceil_div(p, q)
    assert q * r >= p
    assert q * (r - 1) < p


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=10**4))
def test_ceil_div_matches_exact_rational_ceiling(p, q):
    assert ceil_div(p, q) == math.ceil(Fraction(p, q))


@pytest.mark.parametrize("q", [0, -1, -7])
def test_ceil_div_rejects_nonpositive_divisor(q):
    with pytest.raises(InvalidParameterError):
        ceil_div(3, q)


@given(st.integers(min_value=-300, max_value=5), st.integers(min_value=0, max_value=120),
       st.integers(min_value=1, max_value=80))
@example(low=-3, length=2, den=80)  # one run, longer than the range
@example(low=5, length=0, den=1)
def test_run_built_stair_equals_the_ceiling_of_each_value(low, length, den):
    high = low + length
    assert _stair(low, high, den) == [1 + ceil_div(p, den) for p in range(low, high)]


# --- vertex construction ----------------------------------------------------


def test_vertex_labeling_2_3_2():
    lab = construct_vertex_labeling(2, 3, 2)
    assert lab.kind is LabelingKind.VERTEX
    assert lab.k == 2
    assert lab.labels[Vertex(1, 3)] == 2
    assert lab.labels[Vertex(2, 1)] == 1


def test_vertex_labeling_trivial_when_c_equals_n():
    lab = construct_vertex_labeling(3, 4, 4)
    assert lab.k == 1
    assert set(lab.labels.values()) == {1}


@given(scope_params(max_n=20))
def test_vertex_max_label_at_top_right(params):
    m, c, n = params
    lab = construct_vertex_labeling(m, n, c)
    assert lab.labels[Vertex(1, n)] == lab.max_label() == lab.k
    assert lab.k == 1 + ceil_div(n - c, m * c)


# --- edge construction ------------------------------------------------------


def test_edge_labeling_2_3_2():
    lab = construct_edge_labeling(2, 3, 2)
    assert lab.kind is LabelingKind.EDGE
    assert lab.k == 2
    assert lab.labels[Edge(Vertex(1, 3), Vertex(2, 3))] == 2
    assert lab.labels[Edge(Vertex(1, 1), Vertex(1, 2))] == 1


def test_edge_labeling_trivial_when_c_equals_n():
    lab = construct_edge_labeling(2, 5, 5)
    assert lab.k == 1
    assert set(lab.labels.values()) == {1}


@given(scope_params(max_n=20))
def test_edge_max_label_at_last_vertical(params):
    m, c, n = params
    lab = construct_edge_labeling(m, n, c)
    top_right_vertical = Edge(Vertex(1, n), Vertex(2, n))
    assert lab.labels[top_right_vertical] == lab.max_label() == lab.k
    assert lab.k == 1 + ceil_div(n - c, 2 * m * c - m - c)


# --- total construction -----------------------------------------------------


def test_total_labeling_2_3_2_corrected():
    lab = construct_total_labeling(2, 3, 2)
    assert lab.kind is LabelingKind.TOTAL
    assert lab.k == 2
    assert lab.labels[Vertex(1, 3)] == 2
    assert lab.labels[Edge(Vertex(2, 2), Vertex(2, 3))] == 1


def test_total_labeling_trivial_when_c_equals_n():
    lab = construct_total_labeling(2, 4, 4)
    assert lab.k == 1
    assert set(lab.labels.values()) == {1}


@given(scope_params(max_n=20))
def test_total_max_label_at_top_right_vertex(params):
    m, c, n = params
    lab = construct_total_labeling(m, n, c)
    assert lab.labels[Vertex(1, n)] == lab.max_label() == lab.k
    assert lab.k == 1 + ceil_div(n - c, 3 * m * c - m - c)
    assert min(lab.labels.values()) >= 1


def test_as_printed_differs_and_breaks_range():
    # the mismatched horizontal denominator pushes early labels below 1
    printed = construct_total_labeling(2, 3, 2, TotalVariant.AS_PRINTED)
    corrected = construct_total_labeling(2, 3, 2, TotalVariant.CORRECTED)
    assert printed.labels != corrected.labels
    assert printed.labels[Edge(Vertex(1, 1), Vertex(1, 2))] == 0
    vertical = Edge(Vertex(1, 1), Vertex(2, 1))
    assert printed.labels[vertical] == corrected.labels[vertical]
    # In the whole acceptance range, n = c included, the first horizontal
    # edge gets 1 + ceil((2 - 2mc) / (2mc - m - c)) <= 0, so the as-printed
    # labeling never equals the corrected one and always fails the range
    # check there first.
    first = Edge(Vertex(1, 1), Vertex(1, 2))
    for m in range(2, 5):
        for c in range(m, 7):
            for n in range(c, 41):
                printed = construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED)
                label = printed.labels[first]
                assert label == 1 + ceil_div(2 - 2 * m * c, 2 * m * c - m - c) <= 0
                family = enumerate_windows(make_grid(GridSpec(m, n)), c)
                verdict = verify_irregular(printed, family)
                assert verdict.violation == RangeViolation(first, label, printed.k)


# --- shared properties -------------------------------------------------------


@pytest.mark.parametrize(
    "build", [construct_vertex_labeling, construct_edge_labeling,
              construct_total_labeling]
)
@pytest.mark.parametrize("m,c,n", [(1, 2, 3), (2, 1, 3), (2, 4, 3), (3, 2, 5)])
def test_constructors_reject_out_of_scope(build, m, c, n):
    with pytest.raises(ScopeError):
        build(m, n, c)


@given(scope_params(max_m=3, max_c=5, max_n=15))
def test_labels_nondecreasing_in_j(params):
    m, c, n = params
    for lab in (
        construct_vertex_labeling(m, n, c),
        construct_edge_labeling(m, n, c),
        construct_total_labeling(m, n, c),
    ):
        for i in range(1, m + 1):
            row = [lab.labels[Vertex(i, j)]
                   for j in range(1, n + 1) if Vertex(i, j) in lab.labels]
            assert row == sorted(row)
        for i in range(1, m):
            col_labels = [lab.labels[Edge(Vertex(i, j), Vertex(i + 1, j))]
                          for j in range(1, n + 1)
                          if Edge(Vertex(i, j), Vertex(i + 1, j)) in lab.labels]
            assert col_labels == sorted(col_labels)


def test_one_element_count_rule_per_kind():
    counts = {LabelingKind.VERTEX: 6, LabelingKind.EDGE: 7, LabelingKind.TOTAL: 13}
    host = make_grid(GridSpec(2, 3))
    for kind, count in counts.items():
        assert kind_element_count(kind, 6, 7) == count
        lo, hi = kind_range(kind, host)
        assert hi - lo == count
        assert window_denominator(kind, 2, 3) == count


def test_kind_rows_of_a_host_are_the_rows_of_its_column_slices():
    """The rows a kind labels, cut from its host's slices, are the rows of
    ``column_slices(m, n)`` they replace: the vertex rows, the vertical-edge
    and gap rows, or all of them."""
    for m in range(1, 7):
        for n in range(1, 13):
            columns, gaps = column_slices(m, n)
            expected = {
                LabelingKind.VERTEX: (columns[:m], []),
                LabelingKind.EDGE: (columns[m:], gaps),
                LabelingKind.TOTAL: (columns, gaps),
            }
            for kind, rows in expected.items():
                assert kind_rows(kind, make_grid(GridSpec(m, n))) == rows, (kind, m, n)


def test_domain_matches_kind():
    m, c, n = 2, 2, 4
    vertex_lab = construct_vertex_labeling(m, n, c)
    assert all(isinstance(e, Vertex) for e in vertex_lab.labels)
    assert len(vertex_lab.labels) == m * n
    edge_lab = construct_edge_labeling(m, n, c)
    assert all(isinstance(e, Edge) for e in edge_lab.labels)
    assert len(edge_lab.labels) == 2 * m * n - m - n
    total_lab = construct_total_labeling(m, n, c)
    assert len(total_lab.labels) == 3 * m * n - m - n


# --- one formula against the hand-written bodies -------------------------


ACCEPTANCE_RANGE = [
    (m, c, n)
    for m in range(2, 5)
    for c in range(m, 7)
    for n in range(c, 41)
]


def test_one_formula_matches_the_reference_constructors():
    """Over the full acceptance range, every kind and the as-printed total
    variant, both through the public constructor and through
    ``construct_for_kind``, give the reference's labels and budget; the
    labels iterate in canonical order, the order of the host's elements."""
    cases = [
        (LabelingKind.VERTEX, TotalVariant.CORRECTED,
         reference.construct_vertex_labeling, construct_vertex_labeling),
        (LabelingKind.EDGE, TotalVariant.CORRECTED,
         reference.construct_edge_labeling, construct_edge_labeling),
        (LabelingKind.TOTAL, TotalVariant.CORRECTED,
         reference.construct_total_labeling, construct_total_labeling),
        (LabelingKind.TOTAL, TotalVariant.AS_PRINTED,
         lambda m, n, c: reference.construct_total_labeling(
             m, n, c, TotalVariant.AS_PRINTED),
         lambda m, n, c: construct_total_labeling(
             m, n, c, TotalVariant.AS_PRINTED)),
    ]
    for kind, variant, expected_of, public in cases:
        for m, c, n in ACCEPTANCE_RANGE:
            expected = expected_of(m, n, c)
            for got in (public(m, n, c), construct_for_kind(kind, m, n, c, variant)):
                assert got.labels == expected.labels, (kind, variant, m, c, n)
                order = sorted(expected.labels, key=canonical_order)
                assert list(got.labels) == order, (kind, variant, m, c, n)
                assert got.k == expected.k, (kind, variant, m, c, n)
                assert (got.kind, got.m, got.n) == (kind, m, n)


def test_one_period_certifies_the_formula_for_every_n(monkeypatch):
    """Each row's offset does not depend on n, so the labeling for n is the
    first n columns of the labeling for any larger n, and along a row the
    label rises by exactly 1 every D columns.  A window step W(l+1) - W(l)
    takes, on each row, the label entering minus the label leaving, so the
    steps repeat with period D in l.  The D steps of n = c + D are
    therefore every step of every n >= c: if each is 1, the weights run
    base, base + 1, ... for every n.  The least label sits at j = 1 and the
    greatest, k = 1 + ceil((n - c) / D), at j = n of the first row.  The
    range takes m > c too, with the scope check bypassed; window weights
    are sums over the index tuples, since ``enumerate_windows`` checks the
    scope."""
    monkeypatch.setattr(gridirr.construct, "require_window_scope", lambda m, c, n: None)
    for kind in LabelingKind:
        for m in range(2, 13):
            for c in range(2, 13):
                n = c + window_denominator(kind, m, c)
                labeling = gridirr.construct._construct(kind, m, n, c, TotalVariant.CORRECTED)
                host, lo = labeling.labels.host, labeling.labels.lo
                values = [0] * lo + list(labeling.labels.layout)
                values += [0] * (sum(host.counts) - len(values))
                weights = [sum(map(values.__getitem__, w)) for w in _window_indices(host, c)]
                steps = {b - a for a, b in zip(weights, weights[1:])}
                assert steps == {1}, (kind, m, c)
                layout = labeling.labels.layout
                assert (min(layout), max(layout), labeling.k) == (1, 2, 2), (kind, m, c)
