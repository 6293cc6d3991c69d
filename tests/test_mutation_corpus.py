"""The mutation corpus: 2,000 seeded mutations of five small input files,
each run through ``gridirr verify`` in process, against the digests
committed in ``mutation_corpus.txt``.

The base files are the transcript's 2x2x5 vertex, edge and total
labelings (verified with ``--grid 2,2,5``), its 2x5 c=2 window family and
its explicit-host path family (each verified with a labeling that
accepts).  A mutation drops, repeats or reorders an entry or member; sets
a coordinate to a bad value; swaps an edge's ends or makes it diagonal or
a loop; changes an element's tag or adds a field; sets a label to a bad
value; or changes ``k``, ``m``, ``n`` or ``kind``.  Each case's exit code,
stdout and stderr are digested.  A change that alters an output on
purpose rewrites the file in the same diff::

    PYTHONPATH=src python tests/test_mutation_corpus.py
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridirr.cli import main
from test_transcript import _inputs

EXPECTED = Path(__file__).with_name("mutation_corpus.txt")
SEED = 22
BASES = {  # the mutated file, its case count, and the verify call reading it as <case>
    "vertex.json": (400, ["--labeling", "<case>", "--grid", "2,2,5"]),
    "edge.json": (400, ["--labeling", "<case>", "--grid", "2,2,5"]),
    "total.json": (450, ["--labeling", "<case>", "--grid", "2,2,5"]),
    "forward.json": (550, ["--labeling", "<tmp>/total.json", "--family", "<case>"]),
    "path.json": (200, ["--labeling", "<tmp>/path_labels.json", "--family", "<case>"]),
}
VERTICES = {  # where a vertex [i, j] sits, with list indices shown as "#"
    ("labels", "#", "element", "v"), ("labels", "#", "element", "e", "#"),
    ("members", "#", "vertices", "#"), ("members", "#", "edges", "#", "#"),
    ("host", "vertices", "#"), ("host", "edges", "#", "#"), ("host", "grid"),
}
EDGES = {("labels", "#", "element", "e"), ("members", "#", "edges", "#"), ("host", "edges", "#")}
ITEMS = {("labels",), ("members",)}  # lists of entries or members
OBJECTS = {(), ("host",), ("labels", "#"), ("labels", "#", "element"), ("members", "#")}


def _nodes(value, path=()):
    """Every (path, node) of a JSON value, the value itself first."""
    yield path, value
    children = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _shape(path):
    return tuple("#" if type(key) is int else key for key in path)


def _show(path):
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path).lstrip(".")


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _mutate(text, paths, rng):
    """A mutated copy of the JSON text's value, whose node paths and their
    shapes are ``paths``, and what was done; or None when the drawn
    mutation has no target in it."""
    value = json.loads(text)
    m, n = value["host"]["grid"] if "host" in value and "grid" in value["host"] else (
        (value["m"], value["n"]) if "m" in value else (1, 3))  # the path: one row of three
    pick = lambda shapes: [(p, _at(value, p)) for p, shape in paths if shape in shapes]
    what = rng.choice(["drop", "repeat", "reorder", "coordinate", "coordinate", "coordinate",
                       "edge", "tag", "field", "label", "top"])
    if what in ("drop", "repeat", "reorder"):
        lists = [(p, v) for p, v in pick(ITEMS) if v]
        if not lists:
            return None
        path, items = rng.choice(lists)
        pos = rng.randrange(len(items))
        if what == "drop":
            del items[pos]
            return value, f"{_show(path)}[{pos}] dropped"
        to = rng.randrange(len(items) + (what == "repeat"))
        if what == "repeat":
            items.insert(to, copy.deepcopy(items[pos]))
            return value, f"{_show(path)}[{pos}] repeated at {to}"
        items.insert(to, items.pop(pos))
        return value, f"{_show(path)}[{pos}] moved to {to}"
    if what == "coordinate":
        path, vertex = rng.choice(pick(VERTICES))
        side = rng.randrange(2)
        bad = rng.choice([0, -1, True, 1.0, "1", None, [1], [1, 2, 3], (m, n)[side] + 1])
        vertex[side] = bad
        return value, f"{_show(path)}[{side}] = {json.dumps(bad)}"
    if what == "edge":
        edges = pick(EDGES)
        if not edges:
            return None
        path, edge = rng.choice(edges)
        how = rng.choice(["swapped", "diagonal", "loop"])
        if how == "swapped":
            edge.reverse()
        else:
            i, j = edge[0]
            edge[1] = [i + 1, j + rng.choice([1, -1])] if how == "diagonal" else [i, j]
        return value, f"{_show(path)} {how}: {json.dumps(edge)}"
    if what == "tag":
        elements = pick({("labels", "#", "element")})
        if not elements:
            return None
        path, element = rng.choice(elements)
        ((tag, payload),) = element.items()
        new = rng.choice([t for t in ("v", "e", "x", "V") if t != tag])
        element.clear()
        element[new] = payload
        return value, f"{_show(path)} tag {tag!r} -> {new!r}"
    if what == "field":
        path, obj = rng.choice(pick(OBJECTS))
        obj["extra"] = 1
        return value, f"{_show(path) or 'file'} gains 'extra'"
    if what == "label":
        labels = pick({("labels", "#", "label")})
        if not labels:
            return None
        path, _ = rng.choice(labels)
        bad = rng.choice([0, value["k"] + 1, True, 1.5, "x"])
        value["labels"][path[1]]["label"] = bad
        return value, f"{_show(path)} = {json.dumps(bad)}"
    if "kind" not in value:
        return None
    field = rng.choice(["k", "m", "n", "kind"])
    if field == "kind":
        new = rng.choice([k for k in ("vertex", "edge", "total", "Vertex", 1) if k != value["kind"]])
    else:
        new = rng.choice([value[field] + 1, value[field] - 1, 0, -1, True, "2", None])
    value[field] = new
    return value, f"{field} = {json.dumps(new)}"


def cases() -> list[tuple[str, str, object]]:
    """Every case: its base file, its mutation, and the mutated value."""
    rng, inputs, out = random.Random(SEED), _inputs(), []
    for name, (count, _) in BASES.items():
        text, seen = json.dumps(inputs[name]), set()
        paths = [(path, _shape(path)) for path, _ in _nodes(inputs[name])]
        while len(seen) < count:
            made = _mutate(text, paths, rng)
            if made is not None and made[1] not in seen:
                seen.add(made[1])
                out.append((name, made[1], made[0]))
    return out


def outputs() -> list[tuple[str, str]]:
    """Per case, its label and its outputs: exit code, stdout and stderr."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in _inputs().items():
            Path(tmp, name).write_text(value if isinstance(value, str) else json.dumps(value))
        case = Path(tmp, "case.json")
        for name, mutation, value in cases():
            case.write_text(json.dumps(value))
            argv = [arg.replace("<case>", str(case)).replace("<tmp>", tmp) for arg in BASES[name][1]]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(["verify", *argv])
            text = f"exit {code}\nstdout: {stdout.getvalue()}stderr: {stderr.getvalue()}"
            out.append((f"{name}: {mutation}", text.replace(tmp, "<tmp>")))
    return out


def _lines(results) -> list[str]:
    """The committed form: the count and overall sha256, then one line a
    case with a short digest of its outputs."""
    total = hashlib.sha256("".join(text for _, text in results).encode()).hexdigest()
    return [f"{len(results)} cases, sha256 {total}"] + [
        f"{pos:04d} {hashlib.sha256(text.encode()).hexdigest()[:12]} {label}"
        for pos, (label, text) in enumerate(results)
    ]


def test_mutation_corpus_is_unchanged():
    expected = EXPECTED.read_text().splitlines()
    results = outputs()
    got = _lines(results)
    for pos, (want, have) in enumerate(zip(expected[1:], got[1:])):
        if want != have:
            raise AssertionError(
                f"case {have}\nexpected {want}\noutputs:\n{results[pos][1]}"
            )
    assert len(got) == len(expected), f"{len(got) - 1} cases, expected {len(expected) - 1}"
    assert got[0] == expected[0]


if __name__ == "__main__":
    EXPECTED.write_text("\n".join(_lines(outputs())) + "\n")
    sys.exit(0)
