"""Grids, sliding windows, and subgraph weights.

A 3-by-7 grid graph is edge-covered by the five windows of width 3: window
l spans columns l..l+2 and is itself a 3-by-3 grid.  This script builds the
grid, enumerates the windows, confirms the covering, and sums weights under
a trivial all-ones labeling to show why that labeling is never irregular.
"""

from gridirr import (
    CoverFamily,
    GridSpec,
    Labeling,
    LabelingKind,
    enumerate_windows,
    format_element,
    is_edge_covering,
    make_grid,
    subgraph_weight,
)

m, n, c = 3, 7, 3

grid = make_grid(GridSpec(m, n))
print(f"grid P_{m} x P_{n}: {len(grid.vertices)} vertices, "
      f"{len(grid.edges)} edges")

family = enumerate_windows(grid, c)
print(f"window width c={c} gives t = n - c + 1 = {family.t} members")
for l, member in enumerate(family.members, start=1):
    cols = sorted({v.j for v in member.vertices})
    print(f"  window {l}: columns {cols[0]}..{cols[-1]}, "
          f"{len(member.vertices)} vertices, {len(member.edges)} edges")

check = is_edge_covering(family)
print(f"edge covering: {check.covers}")

# drop the last window and the covering breaks in column n
truncated = CoverFamily(host=grid, members=family.members[:-1])
check = is_edge_covering(truncated)
print(f"without window {family.t}: covers={check.covers}, "
      f"first uncovered edge = {format_element(check.uncovered[0])}")

# all-ones labelings weight every window identically
ones = Labeling(
    kind=LabelingKind.VERTEX,
    k=1,
    labels={v: 1 for v in grid.vertices},
    m=m,
    n=n,
)
weights = [subgraph_weight(ones, member) for member in family.members]
print(f"all-ones vertex weights: {weights}  (every window has mc = {m*c} "
      f"vertices, so one label value can never separate them)")
