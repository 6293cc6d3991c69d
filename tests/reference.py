"""Set-based reference checks for covering families.

These are the loops the package used before explicit families were
indexed: every member is read as its element sets, and every lookup goes
through the labeling's mapping.  They know nothing of element indices, so
the differential tests compare the indexed path against them.
"""

from gridirr import (
    CoveringCheck,
    Edge,
    IncompleteLabelingError,
    LabelingKind,
    MalformedFamilyError,
    RangeViolation,
    Verdict,
    Vertex,
    WeightCollision,
    format_element,
)


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


def is_edge_covering(host, family):
    error = outside_host_error(host, family.members)
    if error is not None:
        raise error
    covered = set()
    for member in family.members:
        covered.update(member.edges)
    uncovered = tuple(sorted(host.edges - covered))
    return CoveringCheck(covers=not uncovered, uncovered=uncovered)


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
                f"no label for {format_element(element)} required by a "
                f"{labeling.kind.value} labeling"
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


def verify_irregular(labeling, family):
    check = is_edge_covering(family.host, family)
    if not check.covers:
        raise MalformedFamilyError(
            f"family does not cover the host: edge "
            f"{format_element(check.uncovered[0])} belongs to no member"
        )
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
