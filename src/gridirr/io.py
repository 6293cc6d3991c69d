"""JSON file formats and DOT export.

README's "File formats" gives the labeling and family files, the
coordinate rule and the format errors.  :func:`_key` is that rule: it
reads one item into its plain key, (i, j) or ((i, j), (p, q)) with the
lower end first, or says why the item is malformed.

Labels load by one of two readers.  A file whose entries label exactly
the elements its kind weighs on the m-by-n grid, each once, loads in one
pass into host order: one label tuple over
:func:`gridirr.grid.make_grid`'s elements, held by
:class:`gridirr.construct.GridLabels` as a constructed labeling is, and
placed by the position pass, :func:`gridirr.grid._positions`.  Any other
file (a missing, stray or other-kind label, or an element off the grid)
is read entry by entry into a dict of elements, for the verifier to
report or to read by lookup; that read stops at the first malformed or
repeated entry, and names it.

Members become sorted index tuples into the host's canonical element
order (:attr:`gridirr.covering.CoverFamily.indices`), with no element
object per occurrence: by the position pass on a {"grid": [m, n]} host,
else through ``host.index``.  A list the position pass hands back is
read by :func:`_key` item by item up to its first malformed item, which
is named.  A file naming an element outside the host is rejected once
every member has decoded, so a malformed item in a later member is named
first: the error names the first such member and, in it, the least such
vertex, or else the least such edge.

DOT output is export-only (never parsed back): element labels become
``label`` attributes; anything else rides in comments.
"""

from __future__ import annotations

import json
from itertools import compress
from operator import not_
from typing import Any, IO, Optional, Union

from .construct import GridLabels, Labeling, LabelingKind, kind_range
from .covering import CoverFamily, _outside_the_host
from .errors import FormatError
from .grid import (
    Edge,
    Element,
    Graph,
    GridSpec,
    Vertex,
    _grid_order,
    _positions,
    canonical_order,
    format_element,
    graph_from_elements,
    grid_dims,
    make_grid,
)


def _key(item: Any, edges: bool) -> Union[tuple, str]:
    """The coordinate rule (see above) for one JSON vertex or edge: its
    plain key, or why it is malformed."""
    if edges:
        if type(item) is not list or len(item) != 2:
            return f"expected an edge as [[i, j], [i, j]], got {item!r}"
        a, b = _key(item[0], False), _key(item[1], False)
        if type(a) is str or type(b) is str:
            return a if type(a) is str else b
        if a == b:
            return f"edge endpoints are equal: {item!r}"
        return (a, b) if a < b else (b, a)
    if type(item) is list and len(item) == 2 and type(item[0]) is type(item[1]) is int:
        if item[0] > 0 < item[1]:
            return tuple(item)
        return f"vertex indices must be >= 1, got {item!r}"
    return f"expected a vertex as [i, j], got {item!r}"


def _decode(items: Any, edges: bool, where: str) -> list:
    """The keys of the JSON list ``where``, read by :func:`_key` up to the
    first malformed item, which is named."""
    if type(items) is not list:
        raise FormatError(f"{where}: expected a list")
    keys = []
    for pos, item in enumerate(items):
        key = _key(item, edges)
        if type(key) is str:
            raise FormatError(f"{where}[{pos}]: {key}")
        keys.append(key)
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
            {"e": list(map(list, e))} if isinstance(e, Edge) else {"v": list(e)}
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
    fields = ("kind", "k", "m", "n", "labels")
    for field in fields:
        if field not in data:
            raise FormatError(f"labeling file is missing the {field!r} field")
    _no_other_fields(data, fields, "labeling file")
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
    host = make_grid(GridSpec(m, n))
    lo, hi = kind_range(kind, host)
    if len(entries) == hi - lo:  # only then can they fill the slice
        layout = _layout(entries, lo, hi, m, n)
        if layout is not None:
            return Labeling(kind=kind, k=k, labels=GridLabels(host, lo, layout), m=m, n=n)
    labels = {}
    for pos, entry in enumerate(entries):  # to the first malformed or repeated entry
        read = _entry(entry)
        if type(read) is str:
            raise FormatError(f"labels[{pos}]: {read}")
        element, label = read
        if element in labels:
            raise FormatError(f"labels[{pos}]: duplicate element {format_element(element)}")
        labels[element] = label
    return Labeling(kind=kind, k=k, labels=labels, m=m, n=n)


def _layout(entries: list, lo: int, hi: int, m: int, n: int) -> Optional[tuple]:
    """The labels of the entries in host order, ``layout[p]`` that of
    position lo + p of the m-by-n grid, when each entry is well-formed and
    the position pass places one at each of lo .. hi - 1; else None."""
    try:
        elements = [entry["element"] for entry in entries
                    if type(entry) is dict and len(entry) == 2]
        labels = [entry["label"] for entry in entries]
        is_edge = ["e" in element for element in elements]
        vertices = [element["v"] for element in compress(elements, map(not_, is_edge))]
        edges = [element["e"] for element in compress(elements, is_edge)]
    except (KeyError, TypeError):  # an entry or element of another shape
        return None
    if len(elements) < len(entries) or {*map(len, elements)} - {1} or {*map(type, labels)} - {int}:
        return None
    vertices, edges = _positions(vertices, False, m, n), _positions(edges, True, m, n)
    if vertices is None or edges is None:
        return None
    placed = dict(zip(vertices, compress(labels, map(not_, is_edge))))
    placed.update(zip(edges, compress(labels, is_edge)))
    try:
        return tuple(map(placed.__getitem__, range(lo, hi)))
    except KeyError:  # a position no entry places
        return None


def _entry(entry: Any) -> Union[tuple[Element, int], str]:
    """The element and label of one label entry, or why it is malformed:
    its shape, its element's shape, tag and coordinates (:func:`_key`),
    then its label, checked in that order."""
    if not isinstance(entry, dict) or entry.keys() != {"element", "label"}:
        return "expected {'element': ..., 'label': ...}"
    element, label = entry["element"], entry["label"]
    if not isinstance(element, dict) or len(element) != 1:
        return "element must be {'v': [i, j]} or {'e': [[i, j], [i, j]]}"
    ((tag, payload),) = element.items()
    if tag not in ("v", "e"):
        return f"unknown element tag {tag!r}"
    key = _key(payload, tag == "e")
    if type(key) is str:
        return key
    if not isinstance(label, int) or isinstance(label, bool):
        return f"label must be an integer, got {label!r}"
    return _element(key), label


def _read(fp: IO[str]) -> Any:
    """The file's JSON value.  Text that does not parse (not JSON, not
    UTF-8, nested too deep or an integer too long) is a format error."""
    try:
        return json.load(fp)
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise FormatError(f"not valid JSON: {exc}") from None


def _write(data: dict[str, Any], fp: IO[str]) -> None:
    json.dump(data, fp, indent=2)
    fp.write("\n")


def dump_labeling(labeling: Labeling, fp: IO[str]) -> None:
    _write(labeling_to_json_dict(labeling), fp)


def load_labeling(fp: IO[str]) -> Labeling:
    return labeling_from_json_dict(_read(fp))


def graph_to_json_dict(graph: Graph) -> dict[str, Any]:
    """The grid shorthand for a :func:`make_grid` graph, else the explicit
    form, for a hand-built graph equal to a grid too."""
    if graph.spec is not None:
        return {"grid": [graph.spec.m, graph.spec.n]}
    return elements_to_json_dict(graph)


def elements_to_json_dict(graph: Graph) -> dict[str, Any]:
    """The explicit form: the vertex and edge lists in canonical order."""
    return {
        "vertices": list(map(list, graph.elements[: graph.counts[0]])),
        "edges": [list(map(list, e)) for e in graph.elements[graph.counts[0] :]],
    }


def graph_from_json_dict(data: Any) -> Graph:
    where = "host"
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if "grid" in data:
        shape = _key(data["grid"], False)  # [m, n] is vertex-shaped
        if type(shape) is str:
            raise FormatError(f"{where}: 'grid' must be [m, n] with positive integers")
        _no_other_fields(data, ("grid",), where)
        return make_grid(GridSpec(*shape))
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
    _no_other_fields(data, ("host", "members"), "family file")
    host = graph_from_json_dict(data["host"])
    if not isinstance(data["members"], list) or not data["members"]:
        raise FormatError("'members' must be a nonempty list")
    grid = host.spec and (host.spec.m, host.spec.n)
    indices, outside = [], None
    for pos, raw in enumerate(data["members"]):  # each list: placed by formula, or decoded
        if not isinstance(raw, dict) or "vertices" not in raw or "edges" not in raw:
            raise FormatError(f"members[{pos}]: expected 'vertices' and 'edges' lists")
        _no_other_fields(raw, ("vertices", "edges"), f"members[{pos}]")
        vertices, edges = raw["vertices"], raw["edges"]
        found = grid and (_positions(vertices, False, *grid), _positions(edges, True, *grid))
        if found and None not in found:
            found = found[0] + found[1]  # ascending as written; a set if an element is named twice
            found = found if len(set(found)) == len(found) else set(found)
        else:  # an explicit host, or a list the pass hands back
            vertices = _decode(vertices, False, f"members[{pos}].vertices")
            edges = _decode(edges, True, f"members[{pos}].edges")
            index = host.index
            found = {*map(index.get, vertices), *map(index.get, edges)}
            if None in found and outside is None:  # named once every member decodes
                keys = [key for key in (*vertices, *edges) if key not in index]
                outside = _outside_the_host(pos + 1, map(_element, keys))
            found.discard(None)
        indices.append(tuple(sorted(found)))
    if outside is not None:
        raise outside
    return CoverFamily._from_indices(host, indices)


def dump_family(family: CoverFamily, fp: IO[str]) -> None:
    _write(family_to_json_dict(family), fp)


def load_family(fp: IO[str]) -> CoverFamily:
    return family_from_json_dict(_read(fp))


def _node_id(v: Vertex) -> str:
    return f"v{v.i}_{v.j}"


def dot_export(graph: Graph, labeling: Optional[Labeling] = None) -> str:
    """Render the graph in DOT, labels (when given) as element attributes."""
    m, n = grid_dims(graph)
    lines = [f"graph grid_{m}x{n} {{"]
    lines.append(f"  // {m} row{'s' * (m != 1)} x {n} column{'s' * (n != 1)}")
    if labeling is not None:
        lines.append(
            f"  // {labeling.kind.value} labeling, budget k={labeling.k}"
        )
    labels = {} if labeling is None else labeling.labels
    for x in graph.elements:
        stmt = f"{_node_id(x.a)} -- {_node_id(x.b)}" if isinstance(x, Edge) else _node_id(x)
        if x in labels:
            stmt += f" [label={labels[x]}]"
        lines.append(f"  {stmt};")
    lines.append("}")
    return "\n".join(lines) + "\n"
