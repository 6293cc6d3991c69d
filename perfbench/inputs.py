"""Workload inputs and expected outputs, computed without the package.

Everything here follows the paper's formulas and the documented file
formats directly, so a change to the package can change neither what the
benchmark feeds it nor what the benchmark expects back.

Elements are plain tuples: a vertex is ``(i, j)`` and an edge is
``((i, j), (i2, j2))`` with endpoints in row-major order.
"""

from __future__ import annotations

KINDS = ("vertex", "edge", "total")
SWEEP_N_MAX = 40


def ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def window_size(kind: str, m: int, c: int) -> int:
    """Relevant element count D of one m-by-c window."""
    return {"vertex": m * c, "edge": 2 * m * c - m - c, "total": 3 * m * c - m - c}[kind]


def closed_form(kind: str, m: int, c: int, n: int) -> int:
    """1 + ceil((n - c) / D): the strength, and the counting lower bound."""
    return 1 + ceil_div(n - c, window_size(kind, m, c))


def element_count(kind: str, m: int, n: int) -> int:
    vertices, edges = m * n, 2 * m * n - m - n
    return {"vertex": vertices, "edge": edges, "total": vertices + edges}[kind]


def _vertical(i: int, j: int):
    return ((i, j), (i + 1, j))


def _horizontal(i: int, j: int):
    return ((i, j), (i, j + 1))


def construction(kind: str, m: int, c: int, n: int) -> dict:
    """The paper's optimal labeling as {element: label}."""
    d = window_size(kind, m, c)
    labels = {}
    if kind == "vertex":
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                labels[(i, j)] = 1 + ceil_div(j - i * c, d)
    elif kind == "edge":
        for i in range(1, m):
            for j in range(1, n + 1):
                labels[_vertical(i, j)] = 1 + ceil_div(j - i * c, d)
        for i in range(1, m + 1):
            for j in range(1, n):
                labels[_horizontal(i, j)] = 1 + ceil_div(j - (m + i - 1) * c + i, d)
    else:
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                labels[(i, j)] = 1 + ceil_div(j - i * c, d)
        for i in range(1, m):
            for j in range(1, n + 1):
                labels[_vertical(i, j)] = 1 + ceil_div(j - (m + i) * c, d)
        for i in range(1, m + 1):
            for j in range(1, n):
                labels[_horizontal(i, j)] = 1 + ceil_div(
                    j - (2 * m + i - 1) * c + i, d
                )
    return labels


def _is_vertex(element) -> bool:
    return isinstance(element[0], int)


def canonical(elements) -> list:
    """Vertices row-major, then edges by endpoints."""
    return sorted(elements, key=lambda e: (not _is_vertex(e), e))


def _column_of(element) -> int:
    """Leftmost column an element occupies."""
    return element[1] if _is_vertex(element) else element[0][1]


def window_members(m: int, c: int, n: int, l: int) -> tuple[list, list]:
    """Sorted vertices and edges of the window over columns l .. l+c-1."""
    cols = range(l, l + c)
    vertices = [(i, j) for i in range(1, m + 1) for j in cols]
    edges = [_vertical(i, j) for j in cols for i in range(1, m)]
    edges += [_horizontal(i, j) for j in range(l, l + c - 1) for i in range(1, m + 1)]
    return sorted(vertices), sorted(edges)


def window_weights(labels: dict, m: int, c: int, n: int) -> list[int]:
    """Window weights left to right, from per-column sums.

    Column j holds its vertices and vertical edges; the gap after column j
    holds the horizontal edges to column j+1.  A window sums c columns and
    the c-1 gaps between them.
    """
    column = [0] * (n + 2)
    gap = [0] * (n + 2)
    for element, label in labels.items():
        if _is_vertex(element):
            column[element[1]] += label
        elif element[0][1] == element[1][1]:
            column[element[0][1]] += label
        else:
            gap[element[0][1]] += label
    return [
        sum(column[l : l + c]) + sum(gap[l : l + c - 1]) for l in range(1, n - c + 2)
    ]


def format_element(element) -> str:
    if _is_vertex(element):
        return f"({element[0]},{element[1]})"
    (a, b), (c, d) = element
    return f"({a},{b})-({c},{d})"


def expected_verify(k: int, labels: dict, m: int, c: int, n: int, reverse: bool):
    """(exit code, stdout, stderr) that ``gridirr verify`` must produce.

    Range violations come first, in canonical element order; then the
    lexicographically least pair of members with equal weight.
    """
    for element in canonical(labels):
        label = labels[element]
        if not 1 <= label <= k:
            return 2, "", (
                f"REJECT: label {label} at {format_element(element)} "
                f"outside 1..{k}\n"
            )
    weights = window_weights(labels, m, c, n)
    if reverse:
        weights.reverse()
    first_seen: dict[int, int] = {}
    pairs = []
    for idx, weight in enumerate(weights, start=1):
        if weight in first_seen:
            pairs.append((first_seen[weight], idx, weight))
        else:
            first_seen[weight] = idx
    if pairs:
        first, second, weight = min(pairs)
        return 2, "", f"REJECT: members {first} and {second} share weight {weight}\n"
    t = len(weights)
    return 0, f"ACCEPT: {t} member weights pairwise distinct within budget k={k}\n", ""


def mutations(kind: str, m: int, c: int, n: int, rng) -> dict:
    """The three labelings of one rung: accepted, windows 1 and 2 made to
    collide, and one label set to k+1.

    Windows have consecutive weights, and column 1 lies in window 1 only,
    so raising a column-1 label by one makes window 1 weigh what window 2
    weighs.  The raised label must stay within budget, so that the
    collision, not a range violation, is what the verifier reports.
    """
    k = closed_form(kind, m, c, n)
    labels = construction(kind, m, c, n)
    elements = canonical(labels)
    candidates = [e for e in elements if _column_of(e) == 1 and labels[e] < k]
    raised = rng.choice(candidates)
    collide = dict(labels)
    collide[raised] += 1
    over = dict(labels)
    over[rng.choice(elements)] = k + 1
    return {"accept": labels, "collide": collide, "range": over}


# The writers below emit the same bytes as the package's json.dump(...,
# indent=2) writers, formatted directly: the standard library's indented
# encoder is pure Python and would make set-up several times slower.


def _ints(values, pad: str) -> str:
    items = ",\n".join(f"{pad}  {v}" for v in values)
    return f"[\n{items}\n{pad}]"


def _edge(edge, pad: str) -> str:
    inner = pad + "  "
    return f"[\n{inner}{_ints(edge[0], inner)},\n{inner}{_ints(edge[1], inner)}\n{pad}]"


def labeling_json(kind: str, k: int, m: int, n: int, labels: dict) -> str:
    """Labeling file text, as ``gridirr.io.dump_labeling`` writes it."""
    entries = []
    for element in canonical(labels):
        if _is_vertex(element):
            key = f'"v": {_ints(element, "        ")}'
        else:
            key = f'"e": {_edge(element, "        ")}'
        entries.append(
            f'    {{\n      "element": {{\n        {key}\n      }},\n'
            f'      "label": {labels[element]}\n    }}'
        )
    return (
        f'{{\n  "kind": "{kind}",\n  "k": {k},\n  "m": {m},\n  "n": {n},\n'
        f'  "labels": [\n' + ",\n".join(entries) + "\n  ]\n}\n"
    )


def write_window_family(path, m: int, c: int, n: int, reverse: bool) -> None:
    """Window family file, as ``gridirr.io.dump_family`` writes it."""
    order = range(1, n - c + 2)
    if reverse:
        order = reversed(order)
    members = []
    for l in order:
        vertices, edges = window_members(m, c, n, l)
        vertex_list = ",\n".join("        " + _ints(v, "        ") for v in vertices)
        edge_list = ",\n".join("        " + _edge(e, "        ") for e in edges)
        members.append(
            f'    {{\n      "vertices": [\n{vertex_list}\n      ],\n'
            f'      "edges": [\n{edge_list}\n      ]\n    }}'
        )
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f'{{\n  "host": {{\n    "grid": {_ints((m, n), "    ")}\n  }},\n'
                 f'  "members": [\n' + ",\n".join(members) + "\n  ]\n}\n")


def sweep_csv(kind: str, m: int, c: int) -> str:
    """Expected ``gridirr sweep`` CSV for one kind, m and c, n = c .. 40."""
    lines = ["kind,m,c,n,t,lower_bound,closed_form,construction_verified,as_printed_verified"]
    as_printed = ""
    if kind == "total":
        # The as-printed horizontal denominator 2mc-m-c gives edge
        # (m,1)-(m,2) a label below 1 on every grid, so it never verifies.
        lowest = 1 + ceil_div(1 - (3 * m - 1) * c + m, 2 * m * c - m - c)
        if lowest >= 1:
            raise ValueError(f"cannot predict the as-printed verdict at m={m}, c={c}")
        as_printed = "false"
    for n in range(c, SWEEP_N_MAX + 1):
        t = n - c + 1
        cf = closed_form(kind, m, c, n)
        lines.append(f"{kind},{m},{c},{n},{t},{cf},{cf},true,{as_printed}")
    return "\n".join(lines) + "\n"
