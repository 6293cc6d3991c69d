"""Bounds, closed forms, and exhaustive optimality certificates.

The counting lower bound 1 + ceil((t-1)/d) matches the closed-form
strength on every grid instance, and the constructions attain it, so the
closed form is exact.  On small instances the backtracking oracle
re-derives the same minimum from scratch: it proves smaller budgets
infeasible by exhausting them, then exhibits a verifier-checked witness.
"""

from gridirr import (
    GridSpec,
    LabelingKind,
    closed_form_strength,
    enumerate_windows,
    grid_bound_report,
    make_grid,
    min_strength,
)

print("bounds and closed forms for P_2 x P_7 under width-2 windows:")
m, c, n = 2, 2, 7
for kind in LabelingKind:
    report = grid_bound_report(kind, m, c, n)
    cf = closed_form_strength(kind, m, n, c)
    print(f"  {kind.value:6s}: lower={report.lower}  closed_form={cf}  "
          f"upper=2^{report.upper_exponent}")

print("\nexhaustive certificates (every budget from k=1):")
host = make_grid(GridSpec(m, n))
family = enumerate_windows(host, c)
for kind in (LabelingKind.VERTEX, LabelingKind.EDGE):
    cf = closed_form_strength(kind, m, n, c)
    result = min_strength(host, family, kind, k_max=cf)
    print(f"  {kind.value:6s}: minimal k = {result.minimal_k} "
          f"({result.nodes_explored} nodes explored; every k < "
          f"{result.minimal_k} exhausted with no witness)")

print("\nthe edge instance is the interesting one: k=2 admits no labeling")
print("even though 2^19 raw assignments exist, while k=3 has a witness —")
print("exactly the closed form 1 + ceil(5/4) = 3.")
