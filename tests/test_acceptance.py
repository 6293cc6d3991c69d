"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All checks are exact integer comparisons; there are no
tolerances to tune.
"""

import csv
import json
import random
from pathlib import Path

import pytest

from gridirr import (
    Edge,
    GridSpec,
    LabelingKind,
    ResourceLimitError,
    TotalVariant,
    Vertex,
    closed_form_strength,
    construct_total_labeling,
    enumerate_windows,
    lower_bound,
    make_grid,
    min_strength,
    verify_irregular,
    window_denominator,
)
from gridirr.cli import main
from gridirr.construct import kind_element_count
from gridirr.report import construct_for_kind
from gridirr.verify import RangeViolation, WeightCollision

SWEEP = [
    (m, c, n)
    for m in range(2, 5)
    for c in range(m, 7)
    for n in range(c, 41)
]

ORACLE_INSTANCES = [
    (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 7), (2, 3, 4), (3, 3, 4)
]

ORACLE_CAP = 24

REPORT_PATH = Path(__file__).resolve().parent.parent / "erratum_report.csv"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def sweep_families():
    cache = {}
    for m, c, n in SWEEP:
        host = make_grid(GridSpec(m, n))
        cache[(m, c, n)] = (host, enumerate_windows(host, c))
    return cache


def brute_weights(labeling, family):
    """Independent weight computation: raw sums over member element sets."""
    weights = []
    for member in family.members:
        total = 0
        if labeling.kind in (LabelingKind.VERTEX, LabelingKind.TOTAL):
            total += sum(labeling.labels[v] for v in member.vertices)
        if labeling.kind in (LabelingKind.EDGE, LabelingKind.TOTAL):
            total += sum(labeling.labels[e] for e in member.edges)
        weights.append(total)
    return weights


def test_criterion_1_construction_validity_sweep(sweep_families):
    failures = []
    for m, c, n in SWEEP:
        host, family = sweep_families[(m, c, n)]
        for kind in LabelingKind:
            labeling = construct_for_kind(kind, m, n, c)
            cf = closed_form_strength(kind, m, n, c)
            base = window_denominator(kind, m, c)
            expected_profile = list(range(base, base + n - c + 1))
            verdict = verify_irregular(labeling, family)
            if not verdict.accepted:
                failures.append((kind.value, m, c, n, "rejected"))
            elif labeling.max_label() != cf:
                failures.append((kind.value, m, c, n, "max label != closed form"))
            elif brute_weights(labeling, family) != expected_profile:
                failures.append((kind.value, m, c, n, "profile not consecutive"))
    ok = not failures
    _report(
        1,
        "construction validity sweep",
        ok,
        f"{len(SWEEP)} triples x 3 kinds"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
    assert ok, failures[:10]


def test_criterion_2_tightness(sweep_families):
    failures = []
    for m, c, n in SWEEP:
        t = n - c + 1
        vH = m * c
        eH = 2 * m * c - m - c
        for kind in LabelingKind:
            cf = closed_form_strength(kind, m, n, c)
            lb = lower_bound(kind, t, vH, eH)
            if cf != lb:
                failures.append((kind.value, m, c, n, cf, lb))
    ok = not failures
    _report(2, "closed form equals lower bound", ok,
            f"{len(SWEEP)} triples x 3 kinds")
    assert ok, failures[:10]


def test_criterion_3_oracle_optimality(sweep_families):
    failures = []
    confirmed = 0
    skipped = 0
    for m, c, n in ORACLE_INSTANCES:
        host = make_grid(GridSpec(m, n))
        family = enumerate_windows(host, c)
        for kind in LabelingKind:
            elements = kind_element_count(kind, len(host.vertices), len(host.edges))
            cf = closed_form_strength(kind, m, n, c)
            if elements > ORACLE_CAP:
                with pytest.raises(ResourceLimitError):
                    min_strength(host, family, kind, k_max=cf,
                                 max_elements=ORACLE_CAP)
                skipped += 1
                continue
            # start_k=1 tries every budget below the closed form too; each
            # below the root bound ends at the root Hall check with 0 nodes
            result = min_strength(host, family, kind, k_max=cf, start_k=1,
                                  max_elements=ORACLE_CAP)
            if result.minimal_k != cf:
                failures.append((kind.value, m, c, n, result.minimal_k, cf))
            else:
                confirmed += 1
    # every sweep row, from k = 1, with the cap raised to the row's size
    certified = 0
    nodes = 0
    for m, c, n in SWEEP:
        host, family = sweep_families[(m, c, n)]
        for kind in LabelingKind:
            cf = closed_form_strength(kind, m, n, c)
            elements = kind_element_count(kind, len(host.vertices), len(host.edges))
            result = min_strength(host, family, kind, k_max=cf, start_k=1,
                                  max_elements=elements)
            nodes += result.nodes_explored
            if result.minimal_k != cf:
                failures.append((kind.value, m, c, n, result.minimal_k, cf))
            else:
                certified += 1
    ok = not failures
    _report(3, "oracle optimality", ok,
            f"{confirmed} instances confirmed, {skipped} above size cap; "
            f"{certified} sweep rows certified from k=1 in {nodes} nodes")
    assert ok, failures


def test_criterion_4_erratum_adjudication(sweep_families):
    corrected_failures = []
    rows = []
    for m, c, n in SWEEP:
        if n <= c:
            continue
        _, family = sweep_families[(m, c, n)]
        good = construct_total_labeling(m, n, c, TotalVariant.CORRECTED)
        if not verify_irregular(good, family).accepted:
            corrected_failures.append((m, c, n))
        printed = construct_total_labeling(m, n, c, TotalVariant.AS_PRINTED)
        verdict = verify_irregular(printed, family)
        rows.append(
            [m, c, n, "true" if verdict.accepted else "false",
             "" if verdict.accepted else str(verdict.violation)]
        )
    with open(REPORT_PATH, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["m", "c", "n", "as_printed_verified", "violation"])
        writer.writerows(rows)
    ok = not corrected_failures
    printed_pass = sum(1 for r in rows if r[3] == "true")
    _report(
        4,
        "erratum adjudication",
        ok,
        f"corrected 100% of {len(rows)} triples; as-printed passes "
        f"{printed_pass}/{len(rows)}; report at {REPORT_PATH.name}",
    )
    assert ok, corrected_failures[:10]


def test_criterion_5_verifier_mutation_soundness(sweep_families):
    rng = random.Random(29)
    flips = 0
    keeps = 0
    failures = []
    kinds = list(LabelingKind)
    for trial in range(100):
        m, c, n = SWEEP[rng.randrange(len(SWEEP))]
        kind = kinds[rng.randrange(3)]
        _, family = sweep_families[(m, c, n)]
        labeling = construct_for_kind(kind, m, n, c)
        elements = sorted(
            (e for e in labeling.labels if isinstance(e, Vertex))
        ) + sorted((e for e in labeling.labels if isinstance(e, Edge)))
        target = elements[rng.randrange(len(elements))]
        new_label = rng.randrange(0, labeling.k + 2)
        mutated = labeling.with_label(target, new_label)

        verdict = verify_irregular(mutated, family)

        # independent expectation
        if not 1 <= new_label <= labeling.k:
            expected_kind = "range"
        else:
            weights = brute_weights(mutated, family)
            expected_kind = (
                "collision" if len(set(weights)) < len(weights) else "accept"
            )

        if expected_kind == "accept":
            keeps += 1
            if not verdict.accepted:
                failures.append((trial, "spurious rejection", verdict))
        elif expected_kind == "range":
            flips += 1
            if verdict.accepted or not isinstance(
                verdict.violation, RangeViolation
            ):
                failures.append((trial, "missed range breach", verdict))
            elif (
                verdict.violation.element != target
                or verdict.violation.label != new_label
            ):
                failures.append((trial, "misidentified range breach", verdict))
        else:
            flips += 1
            if verdict.accepted or not isinstance(
                verdict.violation, WeightCollision
            ):
                failures.append((trial, "missed collision", verdict))
            else:
                weights = brute_weights(mutated, family)
                first = verdict.violation.first
                second = verdict.violation.second
                pairs = [
                    (l1, l2)
                    for l2 in range(1, len(weights) + 1)
                    for l1 in range(1, l2)
                    if weights[l1 - 1] == weights[l2 - 1]
                ]
                if (first, second) != min(pairs):
                    failures.append((trial, "wrong collision pair", verdict))
    ok = not failures and flips > 0 and keeps > 0
    _report(5, "verifier mutation soundness", ok,
            f"100 mutations: {flips} flips, {keeps} keeps")
    assert ok, failures[:10]


def test_criterion_6_cli_roundtrip_and_determinism(tmp_path, capsys):
    checks = []

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # construct -> export json -> re-import -> verify accepts
    lab = tmp_path / "lab.json"
    code, _, _ = run("construct", "--kind", "total", "-m", "2", "-c", "3",
                     "-n", "5", "--out", str(lab))
    checks.append(("construct exit 0", code == 0))
    code, exported, _ = run("export", "--grid", "2,5", "--labeling", str(lab),
                            "--format", "json")
    checks.append(("export exit 0", code == 0))
    reimported = tmp_path / "re.json"
    reimported.write_text(exported)
    code, out, _ = run("verify", "--labeling", str(reimported),
                       "--grid", "2,3,5")
    checks.append(("verify exit 0", code == 0 and out.startswith("ACCEPT")))
    checks.append(
        ("export is element-wise identical",
         json.loads(exported) == json.loads(lab.read_text()))
    )

    # repeated sweeps byte-identical
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--kind", "edge", "--m-range", "2..3",
            "--c-range", "2..4", "--n-range", "2..10"]
    run(*args, "--csv", str(a))
    run(*args, "--csv", str(b))
    checks.append(("sweep byte-identical", a.read_bytes() == b.read_bytes()))

    # exit-code contract on crafted inputs
    code, _, _ = run("verify", "--labeling", str(lab), "--grid", "2,3,5")
    checks.append(("accept is 0", code == 0))

    code, _, _ = run("frobnicate")
    checks.append(("unknown subcommand is 1", code == 1))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run("verify", "--labeling", str(bad), "--grid", "2,3,5")
    checks.append(("malformed file is 1", code == 1))

    data = json.loads(lab.read_text())
    data["labels"][0]["label"] = data["k"] + 1
    breached = tmp_path / "breached.json"
    breached.write_text(json.dumps(data))
    code, _, err = run("verify", "--labeling", str(breached),
                       "--grid", "2,3,5")
    checks.append(("budget breach is 2", code == 2 and "outside" in err))

    code, _, _ = run("strength", "--kind", "total", "-m", "2", "-c", "2",
                     "-n", "7", "--oracle")
    checks.append(("oversized oracle is 3", code == 3))

    bad_checks = [name for name, good in checks if not good]
    ok = not bad_checks
    _report(6, "CLI round-trip and determinism", ok,
            f"{len(checks)} checks" + (f"; failed {bad_checks}" if bad_checks else ""))
    assert ok, bad_checks
