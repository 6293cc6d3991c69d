"""Reference implementations the differential tests compare against.

The covering checks are the set-based loops the package used before
explicit families were indexed: every member is read as its element sets,
and every lookup goes through the labeling's mapping.  They know nothing
of element indices.

The constructors are the three hand-written bodies the package used
before every label came from one formula, one per kind.

The window builder is the element-by-element body the package used
before a window's positions were read from the grid layout.

The verdict's stray rule reads the host's vertex and edge sets; the
package reads the labeling only through its host-order label layout.

The counting start is the body the oracle used before it read member
element counts from its own index tuples: it reads every member graph.

The search is the walk the oracle used before it checked Hall's rule at
every node: it cuts a branch only when two completed members share a
weight, and starts at the counting bound.

The coordinate readers are the per-item checks the file loader used
before every JSON list went through one decoder: one function per vertex
and per edge, raising at the first malformed item.

The labeling loader is the entry-by-entry loop the package used before
files loaded into host order: it checks and reads one entry at a time,
makes its element, and returns a dict of elements.

The labeling writer is the body the package used before host-order labels
were written from their layout: it makes every element, sorts them and
writes each entry from its element.
"""

from bisect import bisect_left
from typing import Any

from gridirr import (
    CoveringCheck,
    Edge,
    Element,
    FormatError,
    Graph,
    IncompleteLabelingError,
    Labeling,
    LabelingKind,
    MalformedFamilyError,
    RangeViolation,
    SearchResult,
    StrayLabelError,
    TotalVariant,
    Verdict,
    Vertex,
    WeightCollision,
    ceil_div,
    format_element,
    require_window_scope,
)
from gridirr.grid import canonical_order, grid_dims
from gridirr.verify import kind_range


def family_lower_bound(kind, family):
    """Smallest budget not excluded by counting, from the member graphs.

    The t member weights are distinct integers between the smallest member
    element count and k times the largest, so k >= (d_min + t - 1) / d_max.
    """
    ranges = [kind_range(kind, member) for member in family.members]
    counts = [hi - lo for lo, hi in ranges]
    t = len(counts)
    if t <= 1:
        return 1
    d_max = max(counts)
    if d_max == 0:
        return 1
    return max(1, ceil_div(min(counts) + t - 1, d_max))


def _tables(host, family, kind):
    """(elements, touch, finish, counts): per position the members that
    contain it and those whose last position it is; per member its count
    of elements of the kind."""
    lo, hi = kind_range(kind, host)
    elements = host.elements[lo:hi]
    touch, finish = [[] for _ in elements], [[] for _ in elements]
    counts = []
    for mi, member in enumerate(family.indices):
        positions = member[bisect_left(member, lo) : bisect_left(member, hi)]
        counts.append(len(positions))
        for pos in positions:
            touch[pos - lo].append(mi)
        if positions:
            finish[positions[-1] - lo].append(mi)
    return elements, touch, finish, counts


def search(tables, k):
    """The uncut walk: (lex-least valid assignment or None, node count)."""
    elements, touch, finish, counts = tables
    if counts.count(0) > 1:  # two weight-0 members collide at every budget
        return None, 0
    size = len(elements)
    weight = [0] * len(counts)
    taken = bytearray(max(counts) * k + 1)  # taken[w]: some completed weight is w
    labels = [0] * size
    nodes = pos = 0
    while pos < size:
        label = labels[pos]
        if label == k:
            labels[pos] = 0
            for mi in touch[pos]:
                weight[mi] -= k
            pos -= 1
            if pos < 0:
                return None, nodes
            for mi in finish[pos]:
                taken[weight[mi]] = 0
            continue
        labels[pos] = label + 1
        nodes += 1
        for mi in touch[pos]:
            weight[mi] += 1
        done = finish[pos]
        for marked, mi in enumerate(done):
            if taken[weight[mi]]:  # collision: cut, unmark this node's marks
                for mj in done[:marked]:
                    taken[weight[mj]] = 0
                break
            taken[weight[mi]] = 1
        else:
            pos += 1
    return dict(zip(elements, labels)), nodes


def min_strength(host, family, kind, k_max, start_k=None):
    """The uncut walk at each budget from ``start_k`` (the counting start
    by default) to ``k_max``; the witness is not verified."""
    tables = _tables(host, family, kind)
    start = family_lower_bound(kind, family) if start_k is None else start_k
    total = 0
    for k in range(start, k_max + 1):
        assignment, nodes = search(tables, k)
        total += nodes
        if assignment is not None:
            m, n = grid_dims(host)
            witness = Labeling(kind=kind, k=k, labels=assignment, m=m, n=n)
            return SearchResult(k, witness, total, k_max)
    return SearchResult(None, None, total, k_max)


def window_subgraph(m, c, l):
    """The window spanning columns l .. l+c-1 of an m-row grid, element
    by element."""
    cols = range(l, l + c)
    vertices = [Vertex(i, j) for i in range(1, m + 1) for j in cols]
    edges = []
    for j in cols:
        for i in range(1, m):
            edges.append(Edge(Vertex(i, j), Vertex(i + 1, j)))
    for j in range(l, l + c - 1):
        for i in range(1, m + 1):
            edges.append(Edge(Vertex(i, j), Vertex(i, j + 1)))
    return Graph(vertices=frozenset(vertices), edges=frozenset(edges))


def outside_host_error(host, family_members):
    """The error for the first member naming an element outside ``host``:
    its least such vertex, or else its least such edge."""
    for idx, member in enumerate(family_members, start=1):
        for v in sorted(member.vertices):
            if v not in host.vertices:
                return MalformedFamilyError(
                    f"member {idx} contains vertex {format_element(v)} "
                    f"not in the host"
                )
        for e in sorted(member.edges):
            if e not in host.edges:
                return MalformedFamilyError(
                    f"member {idx} contains edge {format_element(e)} "
                    f"not in the host"
                )
    return None


def is_edge_covering(host, members):
    error = outside_host_error(host, members)
    if error is not None:
        raise error
    covered = set()
    for member in members:
        covered.update(member.edges)
    uncovered = tuple(sorted(host.edges - covered))
    return CoveringCheck(covers=not uncovered, uncovered=uncovered)


def article(kind):
    return "an" if kind.value[0] in "aeiou" else "a"


def subgraph_weight(labeling, member):
    elements = []
    if labeling.kind is not LabelingKind.EDGE:
        elements += sorted(member.vertices)
    if labeling.kind is not LabelingKind.VERTEX:
        elements += sorted(member.edges)
    total = 0
    for element in elements:
        if element not in labeling.labels:
            raise IncompleteLabelingError(
                f"no label for {format_element(element)} required by "
                f"{article(labeling.kind)} {labeling.kind.value} labeling"
            )
        total += labeling.labels[element]
    return total


def weight_profile(labeling, family):
    error = outside_host_error(family.host, family.members)
    if error is not None:
        raise error
    return [subgraph_weight(labeling, member) for member in family.members]


def range_violation(labeling):
    """The out-of-range label on the least element, by sorting them all."""
    vertices = sorted(e for e in labeling.labels if isinstance(e, Vertex))
    edges = sorted(e for e in labeling.labels if isinstance(e, Edge))
    for element in [*vertices, *edges]:
        label = labeling.labels[element]
        if not 1 <= label <= labeling.k:
            return RangeViolation(element=element, label=label, k=labeling.k)
    return None


def stray_label_error(labeling, host):
    """The error for the least labeled element, vertices first, that is not
    a vertex or edge of ``host`` that the kind weighs."""
    weighed = set()
    if labeling.kind is not LabelingKind.EDGE:
        weighed |= host.vertices
    if labeling.kind is not LabelingKind.VERTEX:
        weighed |= host.edges
    vertices = sorted(e for e in labeling.labels if isinstance(e, Vertex))
    edges = sorted(e for e in labeling.labels if isinstance(e, Edge))
    for element in [*vertices, *edges]:
        if element not in weighed:
            return StrayLabelError(
                f"label on {format_element(element)}, which {article(labeling.kind)} "
                f"{labeling.kind.value} labeling of this host does not weigh"
            )
    return None


def verify_irregular(labeling, family):
    check = is_edge_covering(family.host, family.members)
    if not check.covers:
        raise MalformedFamilyError(
            f"family does not cover the host: edge "
            f"{format_element(check.uncovered[0])} belongs to no member"
        )
    error = stray_label_error(labeling, family.host)
    if error is not None:
        raise error
    breach = range_violation(labeling)
    if breach is not None:
        return Verdict(accepted=False, violation=breach)
    profile = weight_profile(labeling, family)
    pairs = [
        (first, second)
        for first in range(1, len(profile) + 1)
        for second in range(first + 1, len(profile) + 1)
        if profile[first - 1] == profile[second - 1]
    ]
    if pairs:
        first, second = min(pairs)
        return Verdict(
            accepted=False,
            violation=WeightCollision(first, second, profile[first - 1]),
        )
    return Verdict(accepted=True)


def construct_vertex_labeling(m: int, n: int, c: int) -> Labeling:
    """Vertex labeling of the m-by-n grid for width-c window coverings.

    label(i, j) = 1 + ceil((j - i*c) / (m*c)); the maximum label, attained
    at (1, n), equals the budget k = 1 + ceil((n - c) / (m*c)).
    """
    require_window_scope(m, c, n)
    d = m * c
    k = 1 + ceil_div(n - c, d)
    labels: dict[Element, int] = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            labels[Vertex(i, j)] = 1 + ceil_div(j - i * c, d)
    return Labeling(kind=LabelingKind.VERTEX, k=k, labels=labels, m=m, n=n)


def construct_edge_labeling(m: int, n: int, c: int) -> Labeling:
    """Edge labeling of the m-by-n grid for width-c window coverings.

    With D = 2mc - m - c (the edge count of one window):

        vertical   (i,j)-(i+1,j):  1 + ceil((j - i*c) / D)
        horizontal (i,j)-(i,j+1):  1 + ceil((j - (m+i-1)*c + i) / D)

    The maximum label, at the vertical edge (1,n)-(2,n), equals
    k = 1 + ceil((n - c) / D).
    """
    require_window_scope(m, c, n)
    d = 2 * m * c - m - c
    k = 1 + ceil_div(n - c, d)
    labels: dict[Element, int] = {}
    for i in range(1, m):
        for j in range(1, n + 1):
            labels[Edge(Vertex(i, j), Vertex(i + 1, j))] = 1 + ceil_div(
                j - i * c, d
            )
    for i in range(1, m + 1):
        for j in range(1, n):
            labels[Edge(Vertex(i, j), Vertex(i, j + 1))] = 1 + ceil_div(
                j - (m + i - 1) * c + i, d
            )
    return Labeling(kind=LabelingKind.EDGE, k=k, labels=labels, m=m, n=n)


def construct_total_labeling(
    m: int, n: int, c: int, variant: TotalVariant = TotalVariant.CORRECTED
) -> Labeling:
    """Total labeling of the m-by-n grid for width-c window coverings.

    With D = 3mc - m - c (vertex plus edge count of one window):

        vertex     (i,j):          1 + ceil((j - i*c) / D)
        vertical   (i,j)-(i+1,j):  1 + ceil((j - (m+i)*c) / D)
        horizontal (i,j)-(i,j+1):  1 + ceil((j - (2m+i-1)*c + i) / D')

    where D' = D under ``TotalVariant.CORRECTED`` and D' = 2mc - m - c
    under ``TotalVariant.AS_PRINTED``.  The budget is always
    k = 1 + ceil((n - c) / D); under the corrected variant every label lies
    in {1, ..., k} with the maximum at vertex (1, n), while the as-printed
    variant can produce labels below 1 (left for the verifier to flag).
    """
    require_window_scope(m, c, n)
    d = 3 * m * c - m - c
    d_horizontal = d if variant is TotalVariant.CORRECTED else 2 * m * c - m - c
    k = 1 + ceil_div(n - c, d)
    labels: dict[Element, int] = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            labels[Vertex(i, j)] = 1 + ceil_div(j - i * c, d)
    for i in range(1, m):
        for j in range(1, n + 1):
            labels[Edge(Vertex(i, j), Vertex(i + 1, j))] = 1 + ceil_div(
                j - (m + i) * c, d
            )
    for i in range(1, m + 1):
        for j in range(1, n):
            labels[Edge(Vertex(i, j), Vertex(i, j + 1))] = 1 + ceil_div(
                j - (2 * m + i - 1) * c + i, d_horizontal
            )
    return Labeling(kind=LabelingKind.TOTAL, k=k, labels=labels, m=m, n=n)


def _vertex_from_json(data: Any, where: str) -> Vertex:
    if (
        type(data) is not list
        or len(data) != 2
        or not all(type(x) is int for x in data)  # bools are not indices
    ):
        raise FormatError(f"{where}: expected a vertex as [i, j], got {data!r}")
    if data[0] < 1 or data[1] < 1:
        raise FormatError(f"{where}: vertex indices must be >= 1, got {data!r}")
    return Vertex(data[0], data[1])


def _edge_from_json(data: Any, where: str) -> Edge:
    if type(data) is not list or len(data) != 2:
        raise FormatError(
            f"{where}: expected an edge as [[i, j], [i, j]], got {data!r}"
        )
    a = _vertex_from_json(data[0], where)
    b = _vertex_from_json(data[1], where)
    if a == b:
        raise FormatError(f"{where}: edge endpoints are equal: {data!r}")
    return Edge(a, b)


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
    if not isinstance(data["labels"], list):
        raise FormatError("'labels' must be a list of entries")
    labels: dict[Any, int] = {}
    for pos, entry in enumerate(data["labels"]):
        where = f"labels[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"element", "label"}:
            raise FormatError(
                f"{where}: expected {{'element': ..., 'label': ...}}"
            )
        element_obj = entry["element"]
        if not isinstance(element_obj, dict) or len(element_obj) != 1:
            raise FormatError(
                f"{where}: element must be {{'v': [i, j]}} or "
                f"{{'e': [[i, j], [i, j]]}}"
            )
        ((tag, payload),) = element_obj.items()
        if tag not in ("v", "e"):
            raise FormatError(f"{where}: unknown element tag {tag!r}")
        read = _edge_from_json if tag == "e" else _vertex_from_json
        element = read(payload, where)
        label = entry["label"]
        if not isinstance(label, int) or isinstance(label, bool):
            raise FormatError(f"{where}: label must be an integer, got {label!r}")
        if element in labels:
            raise FormatError(f"{where}: duplicate element {format_element(element)}")
        labels[element] = label
    return Labeling(kind=kind, k=k, labels=labels, m=m, n=n)


def labeling_to_json_dict(labeling: Labeling) -> dict[str, Any]:
    entries: list[dict[str, Any]] = []
    for e in sorted(labeling.labels, key=canonical_order):
        if isinstance(e, Edge):
            tagged = {"e": [[e.a.i, e.a.j], [e.b.i, e.b.j]]}
        else:
            tagged = {"v": [e.i, e.j]}
        entries.append({"element": tagged, "label": labeling.labels[e]})
    return {
        "kind": labeling.kind.value,
        "k": labeling.k,
        "m": labeling.m,
        "n": labeling.n,
        "labels": entries,
    }
