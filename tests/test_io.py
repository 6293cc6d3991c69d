import io as stdio
import json
import random
import sys
from enum import IntEnum
from itertools import cycle, product

import pytest
from hypothesis import example, given, settings, strategies as st

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
    construct_edge_labeling,
    construct_for_kind,
    construct_total_labeling,
    construct_vertex_labeling,
    enumerate_windows,
    format_element,
    graph_from_elements,
    make_grid,
    verify_irregular,
)
from gridirr.io import (
    _decode,
    _key,
    _positions,
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
from gridirr.construct import GridLabels
from strategies import hand_built_cases


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
        lambda d: d.update(labels=5),
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


UNPARSED = [  # file bytes that are no JSON value, each once an uncaught error
    pytest.param(b"\xff\xfe{}", id="not-utf-8"),
    pytest.param(
        b'{"kind": "vertex", "k": ' + b"1" * 5001 + b', "m": 2, "n": 5, "labels": []}',
        id="long-integer",
        marks=pytest.mark.skipif(
            not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
            reason="this Python parses a 5,001-digit integer",
        ),
    ),
    pytest.param(b"[" * 200_000, id="deep"),
]


@pytest.mark.parametrize("raw", UNPARSED)
@pytest.mark.parametrize("load", [load_labeling, load_family])
def test_text_that_does_not_parse_is_a_format_error(load, raw):
    with pytest.raises(FormatError, match="^not valid JSON: "):
        load(stdio.TextIOWrapper(stdio.BytesIO(raw), encoding="utf-8"))


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
    member = Graph(vertices=host.vertices, edges=host.edges)
    family = CoverFamily(host=host, members=(member,))
    data = family_to_json_dict(family)
    assert "grid" not in data["host"]
    assert sorted(map(tuple, data["host"]["vertices"])) == [
        (1, 1), (1, 2), (1, 3)
    ]
    restored = family_from_json_dict(json.loads(json.dumps(data)))
    assert restored == family


def test_grid_members_load_as_ascending_position_sets():
    # one position per element, ascending, whether a member names an
    # element twice or lists it out of order
    once = {"vertices": [[1, 1], [1, 2]], "edges": [[[1, 1], [1, 2]]]}
    twice = {"vertices": [[1, 2], [1, 1], [1, 2]], "edges": [[[1, 2], [1, 1]], [[1, 1], [1, 2]]]}
    for member in (once, twice):
        family = family_from_json_dict({"host": {"grid": [1, 2]}, "members": [member]})
        assert family.indices == ((0, 1, 2),)


def test_graph_shorthand_parses():
    g = graph_from_json_dict({"grid": [2, 4]})
    assert g == make_grid(GridSpec(2, 4))
    assert graph_to_json_dict(g) == {"grid": [2, 4]}


def test_only_a_graph_equal_to_a_grid_takes_the_shorthand():
    grid = make_grid(GridSpec(3, 4))
    assert graph_to_json_dict(grid) == {"grid": [3, 4]}
    assert vars(grid) == {"spec": GridSpec(3, 4)}  # answered from the spec
    # a hand-built grid is written in the explicit form and reads back equal
    hand = graph_from_elements(grid.vertices, grid.edges)
    assert hand.spec is None and graph_to_json_dict(hand) == elements_to_json_dict(hand)
    family = enumerate_windows(hand, 3)
    restored = family_from_json_dict(json.loads(json.dumps(family_to_json_dict(family))))
    assert restored == family and restored.host == grid
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
        # fields besides the ones the format names
        {"host": {"grid": [2, 3]},
         "members": [{"vertices": [[1, 1]], "edges": [], "junk": 1}]},
        {"host": {"grid": [2, 3], "vertices": [[9, 9]], "edges": []},
         "members": [{"vertices": [[1, 1]], "edges": []}]},
        # data that is not an object, as the family or as its host
        5,
        {"host": 5, "members": [{"vertices": [[1, 1]], "edges": []}]},
    ],
)
def test_malformed_family_files_rejected(data):
    with pytest.raises(FormatError):
        family_from_json_dict(data)


def test_unknown_family_fields_are_named():
    member = {"vertices": [[1, 1]], "edges": []}
    for data, message in (
        ({"host": {"grid": [2, 3]}, "members": [member, {**member, "junk": 1}]},
         "members[1]: unknown field 'junk'"),
        ({"host": {"grid": [2, 3], "vertices": [[9, 9]], "edges": []}, "members": [member]},
         "host: unknown field 'edges'"),
        ({"host": {"vertices": [[1, 1]], "edges": [], "grid": 5}, "members": [member]},
         "host: 'grid' must be [m, n] with positive integers"),
        ({"host": {"vertices": [[1, 1]], "edges": [], "size": 1}, "members": [member]},
         "host: unknown field 'size'"),
    ):
        with pytest.raises(FormatError) as excinfo:
            family_from_json_dict(data)
        assert str(excinfo.value) == message


def test_unknown_top_level_fields_are_named():
    """Checked after the missing fields, before any field is read."""
    labels = labeling_to_json_dict(construct_vertex_labeling(2, 5, 2))
    family = {"host": {"grid": [2, 3]}, "members": [{"vertices": [[1, 1]], "edges": []}]}
    for load, data, message in (
        (labeling_from_json_dict, {**labels, "extra": 1}, "labeling file: unknown field 'extra'"),
        (labeling_from_json_dict, {**labels, "kind": "bogus", "extra": 1},
         "labeling file: unknown field 'extra'"),
        (labeling_from_json_dict, {"extra": 1, "kind": "vertex"},
         "labeling file is missing the 'k' field"),
        (family_from_json_dict, {**family, "extra": 1}, "family file: unknown field 'extra'"),
        (family_from_json_dict, {**family, "host": [2, 3], "b": 1, "a": 2},
         "family file: unknown field 'a'"),
        (family_from_json_dict, {"members": [], "extra": 1},
         "family file needs 'host' and 'members' fields"),
    ):
        with pytest.raises(FormatError) as excinfo:
            load(data)
        assert str(excinfo.value) == message


def test_dot_export_plain_grid():
    text = dot_export(make_grid(GridSpec(2, 2)))
    assert text.startswith("graph grid_2x2 {")
    assert text.rstrip().endswith("}")
    lines = text.splitlines()
    node_stmts = [l for l in lines if l.strip().endswith(";") and "--" not in l]
    edge_stmts = [l for l in lines if "--" in l]
    assert len(node_stmts) == 4
    assert len(edge_stmts) == 4
    # one column: the count of 1 in the singular
    assert dot_export(make_grid(GridSpec(2, 1))) == (
        "graph grid_2x1 {\n"
        "  // 2 rows x 1 column\n"
        "  v1_1;\n"
        "  v2_1;\n"
        "  v1_1 -- v2_1;\n"
        "}\n"
    )


def test_dot_export_with_labels():
    lab = construct_total_labeling(2, 2, 2)
    text = dot_export(make_grid(GridSpec(2, 2)), lab)
    assert "v1_1 [label=1];" in text
    assert "v1_1 -- v1_2 [label=1];" in text
    # the edge kind: the vertices bare, every edge labeled
    assert dot_export(make_grid(GridSpec(2, 2)), construct_edge_labeling(2, 2, 2)) == (
        "graph grid_2x2 {\n"
        "  // 2 rows x 2 columns\n"
        "  // edge labeling, budget k=1\n"
        "  v1_1;\n"
        "  v1_2;\n"
        "  v2_1;\n"
        "  v2_2;\n"
        "  v1_1 -- v1_2 [label=1];\n"
        "  v1_1 -- v2_1 [label=1];\n"
        "  v1_2 -- v2_2 [label=1];\n"
        "  v2_1 -- v2_2 [label=1];\n"
        "}\n"
    )


def test_dot_export_vertex_labeling_leaves_edges_bare():
    lab = construct_vertex_labeling(2, 3, 2)
    text = dot_export(make_grid(GridSpec(2, 3)), lab)
    assert "v1_3 [label=2];" in text
    assert "v1_1 -- v1_2;" in text
    # a dict labeling missing one vertex label and one edge label: both bare
    total = construct_total_labeling(2, 2, 2)
    gone = (Vertex(1, 2), Edge(Vertex(1, 2), Vertex(2, 2)))
    labels = {x: label for x, label in total.labels.items() if x not in gone}
    partial = Labeling(kind=LabelingKind.TOTAL, k=total.k, labels=labels, m=2, n=2)
    text = dot_export(make_grid(GridSpec(2, 2)), partial)
    assert "  v1_2;\n" in text and "  v1_2 -- v2_2;\n" in text
    assert text.count("[label=") == 6


def test_exported_labeling_verifies_after_reload():
    host = make_grid(GridSpec(2, 5))
    family = enumerate_windows(host, 2)
    lab = construct_edge_labeling(2, 5, 2)
    restored = roundtrip_labeling(lab)
    assert verify_irregular(restored, family).accepted


def decoded(fn, *args):
    try:
        return ("ok", fn(*args))
    except FormatError as exc:
        return ("FormatError", str(exc))


def load_both(data):
    """``data`` loaded by the loader and by the reference, which must give
    the same fields and labels, as mappings, or the same FormatError text;
    the loader's labeling, or that text."""
    got, expected = (
        decoded(read, data) for read in (labeling_from_json_dict, reference.labeling_from_json_dict)
    )
    if got[0] == expected[0] == "ok":
        ours, theirs = got[1], expected[1]
        assert (ours.kind, ours.k, ours.m, ours.n) == (theirs.kind, theirs.k, theirs.m, theirs.n)
        assert ours.labels == theirs.labels
    else:
        assert got == expected
    return got[1]


ACCEPTANCE = [(m, c, n) for m in range(2, 5) for c in range(m, 7) for n in range(c, 41)]


def changed_entries(entries, kind, m, n, change, rng):
    """The entries shuffled, one short, with a stray entry (off the grid,
    diagonal, or of the other kind) or with one repeated, an edge with its
    ends swapped; each at a random place."""
    entries = entries[:]
    if change == "shuffled":
        rng.shuffle(entries)
    elif change == "short":
        del entries[rng.randrange(len(entries))]
    else:
        if change == "stray":
            strays = [{"v": [m + 1, n]}, {"e": [[1, n], [1, n + 1]]}, {"e": [[1, 1], [2, 2]]}]
            if kind is not LabelingKind.TOTAL:
                strays.append({"v": [1, 1]} if kind is LabelingKind.EDGE else {"e": [[1, 1], [1, 2]]})
            element = rng.choice(strays)
        else:
            ((tag, payload),) = rng.choice(entries)["element"].items()
            element = {tag: payload[::-1] if tag == "e" else payload}
        entries.insert(rng.randrange(len(entries) + 1), {"element": element, "label": 1})
    return entries


def test_constructed_labelings_load_as_the_reference():
    """Every construction of the acceptance range loads as the reference
    loads it, as dumped and with one change, the changes taken in turn: only
    files that fill the kind's slice, each element once, load into host
    order; a repeat is rejected."""
    rng = random.Random(15)
    changes = cycle(["shuffled", "short", "stray", "repeated"])
    for m, c, n in ACCEPTANCE:
        for labeling in (
            *(construct_for_kind(kind, m, n, c) for kind in LabelingKind),
            construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED),
        ):
            data = labeling_to_json_dict(labeling)
            assert type(load_both(data).labels) is GridLabels
            change = next(changes)
            entries = changed_entries(data["labels"], labeling.kind, m, n, change, rng)
            got = load_both({**data, "labels": entries})
            if change == "repeated":
                assert got.startswith("labels[") and "duplicate element" in got
            else:
                assert type(got.labels) is (GridLabels if change == "shuffled" else dict)


def test_constructed_labelings_write_as_the_reference():
    """Every construction of the acceptance range, every kind and the
    as-printed variant, writes the object the element-by-element writer
    writes, and the same file text."""
    for m, c, n in ACCEPTANCE:
        for labeling in (
            *(construct_for_kind(kind, m, n, c) for kind in LabelingKind),
            construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED),
        ):
            ours = labeling_to_json_dict(labeling)
            theirs = reference.labeling_to_json_dict(labeling)
            assert ours == theirs
            assert json.dumps(ours) == json.dumps(theirs)  # key order too


def test_a_bad_entry_deep_in_a_file_is_named_as_the_reference_names_it():
    data = labeling_to_json_dict(construct_total_labeling(4, 400, 6))
    entries = data["labels"]
    assert len(entries) > 4 * 1024
    bads = (0, 1023, 1024, 3000, len(entries) - 1)
    for bad, repeat, short in product(bads, (None, 1, 1500, 2999), (False, True)):
        changed = entries[:]
        changed[bad] = {**entries[bad], "label": "x"}
        if short and bad:  # one entry deleted before the bad one: the file cannot fill its slice
            del changed[bad // 2]
        if repeat is not None:
            changed.insert(repeat, entries[0])
        assert load_both({**data, "labels": changed}).startswith("labels[")


@settings(max_examples=100, deadline=None)
@given(hand_built_cases())
def test_one_row_labelings_load_as_the_reference(case):
    labeling, _, _, _ = case
    data = json.loads(json.dumps(labeling_to_json_dict(labeling)))
    assert data == reference.labeling_to_json_dict(labeling)
    assert load_both(data).labels == labeling.labels


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


ONE_ROW_ENTRIES = [  # of the 1-by-2 grid, one edge twice with its ends swapped
    {"element": {"v": [1, 1]}, "label": 1},
    {"element": {"v": [1, 2]}, "label": 2},
    {"element": {"e": [[1, 2], [1, 1]]}, "label": 1},
    {"element": {"e": [[1, 1], [1, 2]]}, "label": 3},
]
ENTRIES = st.one_of(
    st.sampled_from(ONE_ROW_ENTRIES),
    st.builds(
        lambda tag, value, label: {"element": {tag: value}, "label": label},
        st.sampled_from(["v", "e", "x"]), JSON_VALUES, SCALARS,
    ),
    st.dictionaries(
        st.sampled_from(["element", "label", "junk"]),
        st.one_of(SCALARS, st.dictionaries(st.sampled_from(["v", "e"]), JSON_VALUES, max_size=2)),
        max_size=3,
    ),
    SCALARS,
)


@settings(max_examples=300)
@given(JSON_VALUES, st.lists(ENTRIES, max_size=4))
@example([1, 1], [ONE_ROW_ENTRIES[0], {"element": {"v": [1, 2]}, "label": IntEnum("L", "ONE TWO").TWO}])
def test_every_site_decodes_as_the_reference(value, entries):
    """Labels, member lists, explicit hosts and the grid shorthand accept
    the element the reference reads, or raise its error text; a list of
    label entries, well-formed or not, loads as the reference loads it."""
    for kind in LabelingKind:
        load_both({"kind": kind.value, "k": 1, "m": 1, "n": 2, "labels": entries})
    for tag, read in (("v", reference._vertex_from_json), ("e", reference._edge_from_json)):
        edge = tag == "e"
        label = {"kind": "total", "k": 1, "m": 1, "n": 1,
                 "labels": [{"element": {tag: value}, "label": 1}]}
        load_both(label)
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
        try:
            got = decoded(family_from_json_dict, {"host": {"grid": [1, 2]}, "members": [member]})
        except MalformedFamilyError as exc:  # a decoded element off the host
            got = ("MalformedFamilyError", str(exc))
        kind = Edge if edge else Vertex
        if expected[0] == "ok" and expected[1] in make_grid(GridSpec(1, 2)).index:
            elements = getattr(got[1].members[0], name)
            assert elements == {read(first, ""), expected[1]}
            assert {type(e) for e in elements} == {kind}
        elif expected[0] == "ok":
            what = "edge" if edge else "vertex"
            assert got == ("MalformedFamilyError", f"member 1 contains {what} "
                           f"{format_element(expected[1])} not in the host")
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


COORDINATES = st.lists(st.integers(1, 4), min_size=2, max_size=2)
WELL_FORMED = {  # vertices, and edges of two different ends in either order
    False: COORDINATES,
    True: st.lists(COORDINATES, min_size=2, max_size=2, unique_by=tuple),
}


@settings(max_examples=300)
@given(st.booleans(), st.data())
def test_a_list_decodes_as_the_reference_reads_it_item_by_item(edges, data):
    """A list of 0-40 well-formed items, with at most one arbitrary value
    at a random place, decodes to the keys the per-item reference reads,
    or raises the reference's error text for the first malformed item."""
    items = data.draw(st.lists(WELL_FORMED[edges], max_size=40))
    if data.draw(st.booleans()):
        items.insert(data.draw(st.integers(0, len(items))), data.draw(JSON_VALUES))
    read = reference._edge_from_json if edges else reference._vertex_from_json
    expected = decoded(lambda: [read(item, f"list[{pos}]") for pos, item in enumerate(items)])
    got = decoded(_decode, items, edges, "list")
    assert got == expected
    if got[0] == "ok":
        assert {type(key) for key in got[1]} <= {tuple}


@settings(max_examples=500)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_the_position_pass_places_items_as_the_host_index_does(m, n, edges, data):
    """On the m-by-n grid, the position pass gives a list of vertices, or
    of edges (adjacent or not, ends in either order), on and off the grid
    and with at most one arbitrary value, the positions the grid's index
    gives the keys :func:`_key` reads; it hands back only a list with an
    item that ``_key`` rejects or that the index lacks."""
    grid = make_grid(GridSpec(m, n))
    split = grid.counts[0]
    pool = grid.elements[split:] if edges else grid.elements[:split]
    chosen = data.draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    coordinate = lambda top: st.one_of(st.integers(1, top), st.sampled_from([0, top + 1, True]))
    end = st.tuples(coordinate(m), coordinate(n))  # on the grid, beside it, or 1 as a bool
    if edges:  # grid edges, ends in either order; or two ends a step apart
        items = [[list(e.a), list(e.b)][:: data.draw(st.sampled_from([1, -1]))] for e in chosen]
        steps = st.sampled_from([(0, 1), (1, 0), (0, -1), (-1, 0), (1, 1), (1, -1), (0, 2), (0, 0)])
        odd = st.builds(
            lambda a, d, order: [list(a), [a[0] + d[0], a[1] + d[1]]][::order],
            end, steps, st.sampled_from([1, -1]),
        )
    else:
        items = [list(v) for v in chosen]
        odd = end.map(list)
    extra = data.draw(st.sampled_from([None, odd, odd, JSON_VALUES]))
    if extra is not None:
        items.insert(data.draw(st.integers(0, len(items))), data.draw(extra))
    index = grid.index
    keys = [_key(item, edges) for item in items]
    keys = None if str in map(type, keys) else keys
    places = _positions(items, edges, m, n)
    if places is None:
        assert keys is None or None in map(index.get, keys)
    else:
        assert keys is not None and places == list(map(index.get, keys))
    assert _positions(tuple(items), edges, m, n) is None  # a list or nothing


def test_the_position_pass_places_every_item_of_a_small_grid_as_the_host_index_does():
    """Every vertex, and every pair of ends, with coordinates on an m-by-n
    grid (m, n <= 4), beside it or a bool, alone in a list."""
    for m in range(1, 5):
        for n in range(1, 5):
            index = make_grid(GridSpec(m, n)).index
            ends = [[i, j] for i in (*range(m + 2), True, False) for j in (*range(n + 2), True, False)]
            for edges, items in ((False, ends), (True, [[a, b] for a in ends for b in ends])):
                for item in items:
                    key = _key(item, edges)
                    places = None if type(key) is str else [index.get(key)]
                    assert _positions([item], edges, m, n) == (None if places == [None] else places)


def test_constructed_labelings_load_without_the_host_index():
    """A constructed labeling file loads by position: its grid's index is
    never made (window family files: test_indexed_families)."""
    for m, c, n in ((2, 2, 5), (4, 6, 40)):
        for kind in LabelingKind:
            labeling = construct_for_kind(kind, m, n, c)
            loaded = labeling_from_json_dict(json.loads(json.dumps(labeling_to_json_dict(labeling))))
            assert type(loaded.labels) is GridLabels and loaded.labels.layout == labeling.labels.layout
            assert "index" not in vars(loaded.labels.host)
