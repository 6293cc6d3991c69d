import pytest
from hypothesis import given

from gridirr import (
    Graph,
    GridSpec,
    InvalidParameterError,
    LabelingKind,
    ScopeError,
    closed_form_strength,
    grid_bound_report,
    lower_bound,
    make_grid,
    upper_bound_exponent,
)
from strategies import scope_params


def test_lower_bound_values():
    assert lower_bound(LabelingKind.VERTEX, 2, 4, 4) == 2
    assert lower_bound(LabelingKind.EDGE, 4, 4, 4) == 2
    assert lower_bound(LabelingKind.VERTEX, 3, 1, 0) == 3  # d = 1, the least accepted
    for kind in LabelingKind:
        assert lower_bound(kind, 1, 5, 7) == 1


def test_lower_bound_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        lower_bound(LabelingKind.VERTEX, 0, 4, 4)
    with pytest.raises(InvalidParameterError):
        lower_bound(LabelingKind.EDGE, 3, 4, 0)
    with pytest.raises(InvalidParameterError):
        lower_bound(LabelingKind.VERTEX, 3, 0, 4)
    with pytest.raises(
        InvalidParameterError,
        match="^member element count for total labelings must be >= 1$",
    ):
        lower_bound(LabelingKind.TOTAL, 3, 0, 0)


def test_upper_bound_exponents():
    square = make_grid(GridSpec(2, 2))
    assert upper_bound_exponent(LabelingKind.VERTEX, square) == 3
    assert upper_bound_exponent(LabelingKind.EDGE, square) == 3
    assert upper_bound_exponent(LabelingKind.TOTAL, make_grid(GridSpec(2, 3))) == 6


def test_upper_bound_exponent_of_an_edgeless_host_is_rejected():
    single = make_grid(GridSpec(1, 1))
    assert upper_bound_exponent(LabelingKind.VERTEX, single) == 0
    empty = Graph(vertices=frozenset(), edges=frozenset())
    for kind in (LabelingKind.EDGE, LabelingKind.TOTAL):
        for host in (single, empty):
            with pytest.raises(InvalidParameterError, match="^host has no edges$"):
                upper_bound_exponent(kind, host)
    with pytest.raises(InvalidParameterError, match="^host has no vertices$"):
        upper_bound_exponent(LabelingKind.VERTEX, empty)


def test_closed_form_values():
    assert closed_form_strength(LabelingKind.VERTEX, 2, 3, 2) == 2
    assert closed_form_strength(LabelingKind.EDGE, 2, 7, 2) == 3
    for kind in LabelingKind:
        assert closed_form_strength(kind, 3, 5, 5) == 1


def test_closed_form_rejects_out_of_scope():
    with pytest.raises(ScopeError):
        closed_form_strength(LabelingKind.VERTEX, 2, 3, 4)


@given(scope_params(max_n=40))
def test_closed_form_equals_lower_bound(params):
    m, c, n = params
    t = n - c + 1
    vH = m * c
    eH = 2 * m * c - m - c
    for kind in LabelingKind:
        assert closed_form_strength(kind, m, n, c) == lower_bound(
            kind, t, vH, eH
        )


@given(scope_params(max_n=25))
def test_bound_sandwich(params):
    m, c, n = params
    for kind in LabelingKind:
        report = grid_bound_report(kind, m, c, n)
        cf = closed_form_strength(kind, m, n, c)
        assert report.lower >= 1
        assert report.lower <= cf
        # lower <= 2^e without expanding the power
        assert (report.lower - 1).bit_length() <= report.upper_exponent
        assert (cf - 1).bit_length() <= report.upper_exponent


@given(scope_params(max_n=30))
def test_closed_form_nondecreasing_in_n(params):
    m, c, n = params
    for kind in LabelingKind:
        assert closed_form_strength(kind, m, n + 1, c) >= closed_form_strength(
            kind, m, n, c
        )
