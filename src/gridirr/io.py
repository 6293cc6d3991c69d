"""JSON file formats and DOT export.

Labeling files::

    {
      "kind": "vertex" | "edge" | "total",
      "k": 2,
      "m": 2,
      "n": 3,
      "labels": [
        {"element": {"v": [1, 1]}, "label": 1},
        {"element": {"e": [[1, 1], [1, 2]]}, "label": 1},
        ...
      ]
    }

    Vertex entries come first in row-major order, then edges in canonical
    order (for labels in host order, read off the grid's layout), though a
    file may list them in any order.  Labels are not
    range-checked on load, nor checked against a host: out-of-range and
    stray labels are the verifier's to report.

    A file whose entries label exactly the elements its kind weighs on the
    m-by-n grid, each once, loads into host order: one label tuple over
    :func:`gridirr.grid.make_grid`'s elements, held by
    :class:`gridirr.construct.GridLabels`, as a constructed labeling is,
    and no element object is made.  Every other file (a missing, stray or
    other-kind label, or an element off the grid, as on a non-grid host)
    loads as a dict of elements, for the verifier to report or to read by
    lookup.  Each check runs over all entries at once; a rejected file is
    read again to name the first bad entry, entry by entry only within
    the first chunk of 1024 entries that holds a malformed one.

Family files::

    {
      "host": {"grid": [2, 3]},
      "members": [
        {"vertices": [[1, 1], ...], "edges": [[[1, 1], [1, 2]], ...]},
        ...
      ]
    }

    The host is either a grid shorthand {"grid": [m, n]} or an explicit
    graph {"vertices": [...], "edges": [...]}.  Non-grid hosts embed their
    vertex ids in the same (i, j) scheme, conventionally in a single row
    (i = 1, j = ordinal).  A host or member holding any other field is
    rejected, as a label entry with a third field is.

Coordinates follow one rule everywhere, in labels, members and explicit
hosts: a vertex is [i, j] with positive integer indices (not bools), an
edge [[i, j], [p, q]] of two different vertices, ends in either order.
The grid shorthand's [m, n] follows the vertex rule.  :func:`_keys` is
that rule: one list comprehension reads a whole JSON list into plain
keys, (i, j) or ((i, j), (p, q)) with the lower end first.  Only a list it
rejects is read again, item by item, and that pass only names the first
malformed item.  Members become sorted index
tuples into the host's canonical element order
(:class:`gridirr.covering.Members`) through ``host.index``, with no
element object per occurrence.  A member naming an element outside the
host keeps it: such a file loads as a family of member
:class:`~gridirr.grid.Graph` objects, and the covering check reports
the element.

DOT output is export-only (never parsed back): element labels become
``label`` attributes; anything else rides in comments.
"""

from __future__ import annotations

import json
from itertools import compress, repeat
from operator import getitem, itemgetter, not_
from typing import Any, IO, Optional, Union

from .construct import GridLabels, Labeling, LabelingKind
from .covering import CoverFamily, Members
from .errors import FormatError
from .grid import (
    Edge,
    Element,
    Graph,
    GridSpec,
    Vertex,
    _grid_order,
    canonical_order,
    format_element,
    graph_from_elements,
    grid_dims,
    make_grid,
)
from .verify import kind_range


def _vertex_to_json(v: Vertex) -> list[int]:
    return [v.i, v.j]


def _edge_to_json(e: Edge) -> list[list[int]]:
    return [_vertex_to_json(e.a), _vertex_to_json(e.b)]


def _keys(items: list, edges: bool) -> Optional[list]:
    """The coordinate rule (see above), over a whole JSON list of vertices
    or of edges: the plain key of every item, or None when one is
    malformed (:func:`_why` names it)."""
    try:
        if edges:
            keys = [
                ((i, j), (p, q)) if i < p or i == p and j < q else ((p, q), (i, j))
                for (i, j), (p, q) in items
                if type(i) is type(j) is type(p) is type(q) is int
                and i > 0 < j and p > 0 < q and (i != p or j != q)
            ]
        else:
            keys = [(i, j) for i, j in items if type(i) is type(j) is int and i > 0 < j]
    except (TypeError, ValueError):  # an item that does not unpack into coordinates
        return None
    return keys if len(keys) == len(items) else None


def _why(item: Any, edges: bool) -> str:
    """Why :func:`_keys` rejects the one item."""
    shaped = type(item) is list and len(item) == 2
    if edges and not shaped:
        return f"expected an edge as [[i, j], [i, j]], got {item!r}"
    if edges:
        bad = [_why(end, False) for end in item if _keys([end], False) is None]
        return bad[0] if bad else f"edge endpoints are equal: {item!r}"
    if shaped and type(item[0]) is type(item[1]) is int:
        return f"vertex indices must be >= 1, got {item!r}"
    return f"expected a vertex as [i, j], got {item!r}"


def _decode(items: Any, edges: bool, where: str) -> list:
    """The keys of the JSON list ``where``, once :func:`_keys` accepts it;
    else the first item it rejects is named, item by item."""
    if type(items) is not list:
        raise FormatError(f"{where}: expected a list")
    keys = _keys(items, edges)
    if keys is None:
        pos = next(pos for pos, item in enumerate(items) if _keys([item], edges) is None)
        raise FormatError(f"{where}[{pos}]: {_why(items[pos], edges)}")
    return keys


def _element(key: tuple) -> Element:
    """The :class:`Vertex` or :class:`Edge` of a decoded key."""
    return Vertex(*key) if type(key[0]) is int else Edge(*map(Vertex._make, key))


def labeling_to_json_dict(labeling: Labeling) -> dict[str, Any]:
    """The labeling file's object, entries in canonical order.  Labels in
    host order on a grid with a spec are written from their layout, making
    no element; entries may then share coordinate lists."""
    labels = labeling.labels
    if type(labels) is GridLabels and labels.host.spec is not None:
        host, lo, values = labels.host, labels.lo, labels.layout
        plain = _grid_order(host.spec, list, lambda *ends: map(list, zip(*ends)))
        plain = plain[lo : lo + len(values)]  # each edge as [end, far end]
        split = max(host.counts[0] - lo, 0)  # the vertices come first
        elements = [{"v": v} for v in plain[:split]] + [{"e": e} for e in plain[split:]]
    else:
        order = sorted(labels, key=canonical_order)
        elements = [
            {"e": _edge_to_json(e)} if isinstance(e, Edge) else {"v": _vertex_to_json(e)}
            for e in order
        ]
        values = map(labels.__getitem__, order)
    return {
        "kind": labeling.kind.value,
        "k": labeling.k,
        "m": labeling.m,
        "n": labeling.n,
        "labels": [{"element": e, "label": x} for e, x in zip(elements, values)],
    }


def labeling_from_json_dict(data: Any) -> Labeling:
    if not isinstance(data, dict):
        raise FormatError("labeling file must contain a JSON object")
    for field in ("kind", "k", "m", "n", "labels"):
        if field not in data:
            raise FormatError(f"labeling file is missing the {field!r} field")
    try:
        kind = LabelingKind(data["kind"])
    except ValueError:
        raise FormatError(f"unknown labeling kind {data['kind']!r}") from None
    k, m, n = data["k"], data["m"], data["n"]
    for name, value in (("k", k), ("m", m), ("n", n)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise FormatError(f"{name!r} must be a positive integer, got {value!r}")
    entries = data["labels"]
    if not isinstance(entries, list):
        raise FormatError("'labels' must be a list of entries")
    read = _entries(entries)
    if type(read) is tuple:
        keys, values = read
        host = make_grid(GridSpec(m, n))
        lo, hi = kind_range(kind, host)
        if len(keys) == hi - lo:  # only then can the keys fill the slice
            placed = dict(zip(map(host.index.get, keys), values))
            layout = tuple(map(placed.get, range(lo, hi)))
            if None not in layout:  # so each key has its own place in the slice
                return Labeling(kind=kind, k=k, labels=GridLabels(host, lo, layout), m=m, n=n)
        labels = dict(zip(map(_element, keys), values))
        if len(labels) == len(keys):
            return Labeling(kind=kind, k=k, labels=labels, m=m, n=n)
    # name the first malformed entry, read in chunks, then one by one, or an earlier repeat
    bad, why = len(entries), None
    if type(read) is str:
        start = next(at for at in range(0, len(entries), 1024)
                     if type(_entries(entries[at : at + 1024])) is str)
        chunk = zip(entries[start : start + 1024])  # each entry as a list of one
        bad, why = next((pos, one) for pos, one in enumerate(map(_entries, chunk), start)
                        if type(one) is str)
    seen = set()
    for pos, key in enumerate(_entries(entries[:bad])[0]):
        if key in seen:
            element = format_element(_element(key))
            raise FormatError(f"labels[{pos}]: duplicate element {element}")
        seen.add(key)
    raise FormatError(f"labels[{bad}]: {why}")


_ENTRY = "expected {'element': ..., 'label': ...}"
_ELEMENT = "element must be {'v': [i, j]} or {'e': [[i, j], [i, j]]}"


def _entries(entries: list) -> Union[tuple[list, list], str]:
    """The keys (see :func:`_keys`) and labels of the label entries, in
    order, or a reason why one is malformed: for a list of one entry, that
    entry's reason.  Each check runs over all entries at once."""
    if not all(map(isinstance, entries, repeat(dict))) or {*map(len, entries)} - {2}:
        return _ENTRY
    try:
        elements = list(map(itemgetter("element"), entries))
        labels = list(map(itemgetter("label"), entries))
    except KeyError:
        return _ENTRY
    if not all(map(isinstance, elements, repeat(dict))) or {*map(len, elements)} - {1}:
        return _ELEMENT
    tags = list(map(next, map(iter, elements)))
    if {*tags} - {"v", "e"}:
        return f"unknown element tag {next(tag for tag in tags if tag not in ('v', 'e'))!r}"
    is_edge = list(map("e".__eq__, tags))
    payloads = list(map(getitem, elements, tags))
    vertices = _keys(list(compress(payloads, map(not_, is_edge))), False)
    edges = _keys(list(compress(payloads, is_edge)), True)
    if vertices is None or edges is None:  # the first malformed payload, in entry order
        return next(_why(p, e) for p, e in zip(payloads, is_edge) if _keys([p], e) is None)
    keys = list(map(next, map((iter(vertices), iter(edges)).__getitem__, is_edge)))
    if {*map(type, labels)} - {int}:
        for label in labels:
            if not isinstance(label, int) or isinstance(label, bool):
                return f"label must be an integer, got {label!r}"
    return keys, labels


def dump_labeling(labeling: Labeling, fp: IO[str]) -> None:
    json.dump(labeling_to_json_dict(labeling), fp, indent=2)
    fp.write("\n")


def load_labeling(fp: IO[str]) -> Labeling:
    try:
        data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    return labeling_from_json_dict(data)


def graph_to_json_dict(graph: Graph) -> dict[str, Any]:
    """The grid shorthand for a :func:`make_grid` graph, else the explicit
    form, for a hand-built graph equal to a grid too."""
    if graph.spec is not None:
        return {"grid": [graph.spec.m, graph.spec.n]}
    return elements_to_json_dict(graph)


def elements_to_json_dict(graph: Graph) -> dict[str, Any]:
    """The explicit form: the vertex and edge lists in canonical order."""
    return {
        "vertices": [_vertex_to_json(v) for v in graph.elements[: graph.counts[0]]],
        "edges": [_edge_to_json(e) for e in graph.elements[graph.counts[0] :]],
    }


def graph_from_json_dict(data: Any, where: str = "host") -> Graph:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if "grid" in data:
        shape = _keys([data["grid"]], False)  # [m, n] is vertex-shaped
        if shape is None:
            raise FormatError(f"{where}: 'grid' must be [m, n] with positive integers")
        _no_other_fields(data, ("grid",), where)
        return make_grid(GridSpec(*shape[0]))
    if "vertices" not in data or "edges" not in data:
        raise FormatError(
            f"{where}: expected {{'grid': [m, n]}} or explicit "
            f"'vertices' and 'edges' lists"
        )
    _no_other_fields(data, ("vertices", "edges"), where)
    vertices = _decode(data["vertices"], False, f"{where}.vertices")
    edges = _decode(data["edges"], True, f"{where}.edges")
    return graph_from_elements(map(_element, vertices), map(_element, edges))


def _no_other_fields(data: dict, fields: tuple[str, ...], where: str) -> None:
    """Reject an object holding a field besides ``fields``, which it holds."""
    if len(data) > len(fields):
        other = min(map(repr, data.keys() - set(fields)))
        raise FormatError(f"{where}: unknown field {other}")


def family_to_json_dict(family: CoverFamily) -> dict[str, Any]:
    members = [elements_to_json_dict(member) for member in family.members]
    return {"host": graph_to_json_dict(family.host), "members": members}


def family_from_json_dict(data: Any) -> CoverFamily:
    if not isinstance(data, dict):
        raise FormatError("family file must contain a JSON object")
    if "host" not in data or "members" not in data:
        raise FormatError("family file needs 'host' and 'members' fields")
    host = graph_from_json_dict(data["host"])
    if not isinstance(data["members"], list) or not data["members"]:
        raise FormatError("'members' must be a nonempty list")
    index = host.index
    indices, outside = [], []
    for pos, raw in enumerate(data["members"]):  # each list: one decode, then index
        if not isinstance(raw, dict) or "vertices" not in raw or "edges" not in raw:
            raise FormatError(f"members[{pos}]: expected 'vertices' and 'edges' lists")
        _no_other_fields(raw, ("vertices", "edges"), f"members[{pos}]")
        vertices = _decode(raw["vertices"], False, f"members[{pos}].vertices")
        edges = _decode(raw["edges"], True, f"members[{pos}].edges")
        found = {*map(index.get, vertices), *map(index.get, edges)}
        missing = []
        if None in found:  # elements outside the host
            found.discard(None)
            missing = [_element(key) for key in (*vertices, *edges) if key not in index]
        indices.append(tuple(sorted(found)))
        outside.append(missing)
    members = Members(host, len(indices), indices.__getitem__)
    if any(outside):  # kept, for the covering check to name
        members = tuple(
            Graph(
                vertices=m.vertices.union(e for e in extra if isinstance(e, Vertex)),
                edges=m.edges.union(e for e in extra if isinstance(e, Edge)),
            )
            for m, extra in zip(members, outside)
        )
    return CoverFamily(host=host, members=members)


def dump_family(family: CoverFamily, fp: IO[str]) -> None:
    json.dump(family_to_json_dict(family), fp, indent=2)
    fp.write("\n")


def load_family(fp: IO[str]) -> CoverFamily:
    try:
        data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    return family_from_json_dict(data)


def _node_id(v: Vertex) -> str:
    return f"v{v.i}_{v.j}"


def dot_export(graph: Graph, labeling: Optional[Labeling] = None) -> str:
    """Render the graph in DOT, labels (when given) as element attributes."""
    m, n = grid_dims(graph)
    lines = [f"graph grid_{m}x{n} {{"]
    lines.append(f"  // {m} rows x {n} columns")
    if labeling is not None:
        lines.append(
            f"  // {labeling.kind.value} labeling, budget k={labeling.k}"
        )
    split = graph.counts[0]
    for v in graph.elements[:split]:
        if labeling is not None and v in labeling.labels:
            lines.append(f"  {_node_id(v)} [label={labeling.labels[v]}];")
        else:
            lines.append(f"  {_node_id(v)};")
    for e in graph.elements[split:]:
        stmt = f"  {_node_id(e.a)} -- {_node_id(e.b)}"
        if labeling is not None and e in labeling.labels:
            stmt += f" [label={labeling.labels[e]}]"
        lines.append(stmt + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
