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
    LabelingKind,
    Subgraph,
    TotalVariant,
    Vertex,
    construct_edge_labeling,
    construct_total_labeling,
    construct_vertex_labeling,
    enumerate_windows,
    graph_from_elements,
    make_grid,
    verify_irregular,
)
from gridirr.io import (
    dot_export,
    dump_family,
    dump_labeling,
    elements_to_json_dict,
    family_from_json_dict,
    family_to_json_dict,
    graph_from_json_dict,
    graph_to_json_dict,
    labeling_from_json_dict,
    labeling_to_json_dict,
    load_family,
    load_labeling,
)


def roundtrip_labeling(labeling):
    buf = stdio.StringIO()
    dump_labeling(labeling, buf)
    buf.seek(0)
    return load_labeling(buf)


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_vertex_labeling(2, 4, 2),
        lambda: construct_edge_labeling(2, 4, 2),
        lambda: construct_total_labeling(2, 4, 2),
        lambda: construct_total_labeling(2, 4, 2, TotalVariant.AS_PRINTED),
    ],
)
def test_labeling_roundtrip_is_identical(build):
    original = build()
    restored = roundtrip_labeling(original)
    assert restored.kind == original.kind
    assert restored.k == original.k
    assert (restored.m, restored.n) == (original.m, original.n)
    assert dict(restored.labels) == dict(original.labels)


def test_labeling_json_orders_vertices_then_edges():
    data = labeling_to_json_dict(construct_total_labeling(2, 3, 2))
    tags = [next(iter(entry["element"])) for entry in data["labels"]]
    assert tags == ["v"] * 6 + ["e"] * 7
    vertex_entries = [e["element"]["v"] for e in data["labels"][:6]]
    assert vertex_entries == sorted(vertex_entries)
    edge_entries = [e["element"]["e"] for e in data["labels"][6:]]
    assert edge_entries == sorted(edge_entries)


def test_load_preserves_out_of_range_labels():
    # range enforcement is the verifier's job, not the loader's
    data = labeling_to_json_dict(construct_vertex_labeling(2, 3, 2))
    data["labels"][0]["label"] = 99
    restored = labeling_from_json_dict(data)
    assert 99 in restored.labels.values()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="diagonal"),
        lambda d: d.update(k=0),
        lambda d: d.update(m="two"),
        lambda d: d.update(labels={"not": "a list"}),
        lambda d: d["labels"].append({"element": {"x": [1, 1]}, "label": 1}),
        lambda d: d["labels"].append({"element": {"v": [0, 1]}, "label": 1}),
        lambda d: d["labels"].append({"element": {"v": [1]}, "label": 1}),
        lambda d: d["labels"].append(dict(d["labels"][0])),
        lambda d: d["labels"].append(
            {"element": {"e": [[1, 1], [1, 1]]}, "label": 1}
        ),
        lambda d: d["labels"][0].update(label="three"),
        lambda d: d["labels"].append(5),
        lambda d: d["labels"].append(
            {"element": {"v": [1, 1], "e": [[1, 1], [1, 2]]}, "label": 1}
        ),
    ],
)
def test_malformed_labeling_files_rejected(mutate):
    data = labeling_to_json_dict(construct_vertex_labeling(2, 3, 2))
    mutate(data)
    with pytest.raises(FormatError):
        labeling_from_json_dict(data)


def test_duplicate_edge_with_swapped_endpoints_is_rejected():
    data = labeling_to_json_dict(construct_edge_labeling(2, 3, 2))
    assert len(data["labels"]) == 7
    data["labels"].append({"element": {"e": [[1, 2], [1, 1]]}, "label": 1})
    message = "labels[7]: duplicate element (1,1)-(1,2)"
    with pytest.raises(FormatError) as excinfo:
        labeling_from_json_dict(data)
    assert str(excinfo.value) == message


def test_labeling_data_that_is_a_list_is_rejected():
    data = [labeling_to_json_dict(construct_vertex_labeling(2, 3, 2))]
    with pytest.raises(FormatError, match="^labeling file must contain a JSON object$"):
        labeling_from_json_dict(data)


def test_load_labeling_rejects_invalid_json():
    with pytest.raises(FormatError):
        load_labeling(stdio.StringIO("{not json"))


def test_load_family_rejects_invalid_json():
    with pytest.raises(FormatError, match="^not valid JSON: "):
        load_family(stdio.StringIO("{not json"))


def test_family_roundtrip_window_family():
    family = enumerate_windows(make_grid(GridSpec(3, 5)), 3)
    buf = stdio.StringIO()
    dump_family(family, buf)
    buf.seek(0)
    assert load_family(buf) == family


def test_grid_host_uses_shorthand():
    family = enumerate_windows(make_grid(GridSpec(2, 3)), 2)
    data = family_to_json_dict(family)
    assert data["host"] == {"grid": [2, 3]}
    assert len(data["members"]) == 2


def test_non_grid_host_roundtrips_explicitly():
    # triangle via the single-row convention: i = 1, j = ordinal
    a, b, c = Vertex(1, 1), Vertex(1, 2), Vertex(1, 3)
    host = graph_from_elements(
        [a, b, c], [Edge(a, b), Edge(b, c), Edge(a, c)]
    )
    member = Subgraph(vertices=host.vertices, edges=host.edges)
    family = CoverFamily(host=host, members=(member,))
    data = family_to_json_dict(family)
    assert "grid" not in data["host"]
    assert sorted(map(tuple, data["host"]["vertices"])) == [
        (1, 1), (1, 2), (1, 3)
    ]
    restored = family_from_json_dict(json.loads(json.dumps(data)))
    assert restored == family


def test_graph_shorthand_parses():
    g = graph_from_json_dict({"grid": [2, 4]})
    assert g == make_grid(GridSpec(2, 4))
    assert graph_to_json_dict(g) == {"grid": [2, 4]}


def test_only_a_graph_equal_to_a_grid_takes_the_shorthand():
    grid = make_grid(GridSpec(3, 4))
    assert graph_to_json_dict(grid) == {"grid": [3, 4]}
    assert vars(grid) == {"spec": GridSpec(3, 4)}  # answered from the spec
    hand = graph_from_elements(grid.vertices, grid.edges)
    assert hand.spec is None and graph_to_json_dict(hand) == {"grid": [3, 4]}
    # same counts, one edge replaced by a diagonal
    diagonal = Edge(Vertex(1, 1), Vertex(2, 2))
    edges = (grid.edges - {Edge(Vertex(1, 1), Vertex(1, 2))}) | {diagonal}
    bent = graph_from_elements(grid.vertices, edges)
    assert graph_to_json_dict(bent) == elements_to_json_dict(bent)
    assert [[1, 1], [2, 2]] in graph_to_json_dict(bent)["edges"]
    # the counts and dims of a grid: a path of two adjacent vertices, one
    # in row 0 (the 1-by-2 grid's counts), and an edge left dangling
    a, b = Vertex(0, 2), Vertex(1, 2)
    moved = Graph(vertices=frozenset({a, b}), edges=frozenset({Edge(a, b)}))
    dangling = Graph(vertices=grid.vertices,
                     edges=(grid.edges - {Edge(Vertex(1, 1), Vertex(1, 2))})
                     | {Edge(Vertex(3, 4), Vertex(3, 5))})
    for graph in (moved, dangling):
        assert graph_to_json_dict(graph) == elements_to_json_dict(graph)


@pytest.mark.parametrize(
    "data",
    [
        "not a dict",
        {"host": {"grid": [2, 3]}},
        {"host": {"grid": [0, 3]}, "members": []},
        {"host": {"grid": [2, 3]}, "members": []},
        {"host": {"grid": [2, 3]}, "members": [{"vertices": []}]},
        {"host": {}, "members": [{"vertices": [], "edges": []}]},
        # bools are not grid sizes, though Python counts them as ints
        {"host": {"grid": [True, 3]},
         "members": [{"vertices": [[1, 1]], "edges": []}]},
        # element lists that are not lists
        {"host": {"grid": [2, 3]}, "members": [{"vertices": 5, "edges": []}]},
        {"host": {"grid": [2, 3]},
         "members": [{"vertices": [[1, 1]], "edges": None}]},
        {"host": {"grid": [2, 3]},
         "members": [{"vertices": "ab", "edges": []}]},
        {"host": {"vertices": 5, "edges": []},
         "members": [{"vertices": [], "edges": []}]},
        {"host": {"vertices": [[1, 1]], "edges": {}},
         "members": [{"vertices": [], "edges": []}]},
        # bools are not vertex indices either
        {"host": {"grid": [2, 3]},
         "members": [{"vertices": [[True, 1]], "edges": []}]},
        {"host": {"grid": [2, 3]},
         "members": [{"vertices": [], "edges": [[[1, 1], [1, False]]]}]},
        # a host that is not an object
        {"host": [2, 3], "members": [{"vertices": [[1, 1]], "edges": []}]},
    ],
)
def test_malformed_family_files_rejected(data):
    with pytest.raises(FormatError):
        family_from_json_dict(data)


def test_dot_export_plain_grid():
    text = dot_export(make_grid(GridSpec(2, 2)))
    assert text.startswith("graph grid_2x2 {")
    assert text.rstrip().endswith("}")
    lines = text.splitlines()
    node_stmts = [l for l in lines if l.strip().endswith(";") and "--" not in l]
    edge_stmts = [l for l in lines if "--" in l]
    assert len(node_stmts) == 4
    assert len(edge_stmts) == 4


def test_dot_export_with_labels():
    lab = construct_total_labeling(2, 2, 2)
    text = dot_export(make_grid(GridSpec(2, 2)), lab)
    assert "v1_1 [label=1];" in text
    assert "v1_1 -- v1_2 [label=1];" in text


def test_dot_export_vertex_labeling_leaves_edges_bare():
    lab = construct_vertex_labeling(2, 3, 2)
    text = dot_export(make_grid(GridSpec(2, 3)), lab)
    assert "v1_3 [label=2];" in text
    assert "v1_1 -- v1_2;" in text


def test_exported_labeling_verifies_after_reload():
    host = make_grid(GridSpec(2, 5))
    family = enumerate_windows(host, 2)
    lab = construct_edge_labeling(2, 5, 2)
    restored = roundtrip_labeling(lab)
    assert verify_irregular(restored, family).accepted


SCALARS = st.one_of(
    st.integers(-1, 3), st.integers(), st.booleans(), st.floats(), st.text(max_size=2), st.none()
)
SHORT_LISTS = st.lists(SCALARS, max_size=3)
VERTICES = st.lists(st.integers(-1, 3), min_size=2, max_size=2)
PAIRS = st.lists(st.one_of(st.integers(1, 3), SCALARS), min_size=2, max_size=2)
JSON_VALUES = st.sampled_from([  # one kind of value, then the value
    VERTICES,
    PAIRS,
    st.lists(VERTICES, min_size=2, max_size=2),
    st.lists(PAIRS, min_size=2, max_size=2),
    st.one_of(VERTICES, PAIRS, SHORT_LISTS).map(lambda end: [end, list(end)]),  # equal ends
    st.lists(st.one_of(PAIRS, SHORT_LISTS), min_size=2, max_size=2),
    SCALARS,
    SHORT_LISTS,
    st.lists(st.one_of(SCALARS, SHORT_LISTS), max_size=3),
]).flatmap(lambda kind: kind)


def decoded(fn, *args):
    try:
        return ("ok", fn(*args))
    except FormatError as exc:
        return ("FormatError", str(exc))


@settings(max_examples=300)
@given(JSON_VALUES)
def test_every_site_decodes_as_the_reference(value):
    """Labels, member lists, explicit hosts and the grid shorthand accept
    the element the reference reads, or raise its error text."""
    for tag, read in (("v", reference._vertex_from_json), ("e", reference._edge_from_json)):
        edge = tag == "e"
        label = {"kind": "total", "k": 1, "m": 1, "n": 1,
                 "labels": [{"element": {tag: value}, "label": 1}]}
        expected = decoded(read, value, "labels[0]")
        got = decoded(labeling_from_json_dict, label)
        if expected[0] == "ok":
            ((key, _),) = got[1].labels.items()
            assert key == expected[1] and type(key) is type(expected[1])
            assert not edge or type(key.a) is type(key.b) is Vertex
        else:
            assert got == expected

        name = "edges" if edge else "vertices"
        first = [[1, 1], [1, 2]] if edge else [1, 1]
        member = {"vertices": [], "edges": [], name: [first, value]}
        expected = decoded(read, value, f"members[0].{name}[1]")
        got = decoded(family_from_json_dict, {"host": {"grid": [1, 2]}, "members": [member]})
        kind = Edge if edge else Vertex
        if expected[0] == "ok":
            elements = getattr(got[1].members[0], name)
            assert elements == {read(first, ""), expected[1]}
            assert {type(e) for e in elements} == {kind}
        else:
            assert got == expected

        expected = decoded(read, value, f"host.{name}[0]")
        ends = [list(expected[1].a), list(expected[1].b)] if edge and expected[0] == "ok" else []
        got = decoded(graph_from_json_dict, {"vertices": ends, "edges": [], name: [value]})
        if expected[0] == "ok":
            (element,) = getattr(got[1], name)
            assert element == expected[1] and type(element) is kind
        else:
            assert got == expected

    expected = decoded(reference._vertex_from_json, value, "host")
    got = decoded(graph_from_json_dict, {"grid": value})
    if expected[0] == "ok":
        assert got[1].spec == GridSpec(*expected[1])
    else:
        assert got == ("FormatError", "host: 'grid' must be [m, n] with positive integers")
