"""Shared hypothesis strategies: window-scope parameter triples, and
labeled families on hand-built one-row hosts."""

from hypothesis import strategies as st

from gridirr import (
    CoverFamily,
    Edge,
    Labeling,
    LabelingKind,
    Subgraph,
    Vertex,
    graph_from_elements,
)


@st.composite
def scope_params(draw, max_m=4, max_c=6, max_n=12):
    m = draw(st.integers(min_value=2, max_value=max_m))
    c = draw(st.integers(min_value=m, max_value=max_c))
    n = draw(st.integers(min_value=c, max_value=max_n))
    return m, c, n


@st.composite
def hand_built_cases(draw):
    """A one-row host with arbitrary edges, members drawn from its elements
    and a few outside it, and labels on some elements of each kind."""
    size = draw(st.integers(2, 6))
    row = [Vertex(1, j) for j in range(1, size + 1)]
    pairs = [Edge(a, b) for a in row for b in row if a < b]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    host = graph_from_elements(row, edges)
    outside_vertices = [Vertex(2, 1), Vertex(1, size + 1)]
    outside_edges = [Edge(Vertex(1, 1), Vertex(2, 1))] + [
        e for e in pairs if e not in host.edges
    ]
    vertex_pool = row + draw(st.lists(st.sampled_from(outside_vertices), max_size=1))
    edge_pool = edges + draw(st.lists(st.sampled_from(outside_edges), max_size=1))
    member = st.builds(
        Subgraph,
        vertices=st.frozensets(st.sampled_from(vertex_pool)),
        edges=st.frozensets(st.sampled_from(edge_pool)),
    )
    members = draw(st.lists(member, min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(list(LabelingKind)))
    k = draw(st.integers(1, 3))
    labelled = draw(
        st.lists(
            st.sampled_from(row + edges + outside_vertices + outside_edges),
            unique=True,
        )
    )
    labels = {e: draw(st.integers(0, k + 1)) for e in labelled}
    labeling = Labeling(kind=kind, k=k, labels=labels, m=1, n=size)
    wider = graph_from_elements(
        row + outside_vertices, edges + outside_edges
    )
    return labeling, CoverFamily(host=host, members=tuple(members)), wider
