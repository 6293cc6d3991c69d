"""Benchmark runner for gridirr: one workload, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from
``src/``.  Set-up builds the workload's inputs from the seed.  It is
timed several times before the timed phase and again after it, and
``setup_s`` is the median.  The timed phase runs whole passes over the
workload's ops, each pass in a seed-shuffled order, until ``--seconds``
have passed and at least ``MIN_OPS`` ops have run.
Every op's output is checked; failures are counted, never fatal.

The speed of the host drifts, by up to a factor of two within a second
on the 2-CPU virtual machine the benchmark was written on.  So every
timed piece of work (an op, a set-up build) is bracketed by two runs of
a fixed pure-Python reference kernel, and the time reported is the wall
time scaled to a host on which that kernel takes ``REF_NOMINAL_NS``:
raw time x nominal / mean of the two bracket times.  A change to the
package moves the scaled time as it moves the raw time; a change in the
host's speed moves both the op and its brackets and cancels.  The raw
figures are printed on the lines before the result.  Each op starts
after a garbage collection, on a heap with no garbage from the op before.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase, then one traced pass, and reports the per-layer metrics
of that pass (see ``spans.py``); every count is per pass.  The last line
of standard output is the JSON result; the lines before it repeat the
metrics for reading, with the bases of every ratio and the machine stamp.
Generated files live in a temporary directory inside the checkout,
removed on exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_OPS = 100
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 1000
# The reference kernel takes about 0.75 ms at the host's fast speed and
# 1.4 ms at its slow speed on the machine the benchmark was written on.
REF_LOOPS = 2000
REF_NOMINAL_NS = 1_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "verify_grid", "verify_family", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def reference_kernel() -> int:
    """Fixed pure-Python work of the kind the package does: small-int
    arithmetic, dict counts, tuples and set membership."""
    counts: dict[int, int] = {}
    seen = set()
    total = 0
    for i in range(REF_LOOPS):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
        pair = (key, i & 15)
        if pair not in seen:
            seen.add(pair)
        total += len(str(i))
    return total + len(seen) + len(counts)


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def bracketed(fn):
    """Call fn between two reference runs; return (result, raw_ns,
    scaled_ns), where scaled_ns is raw_ns at the nominal host speed."""
    before = reference_ns()
    start = time.perf_counter_ns()
    result = fn()
    raw = time.perf_counter_ns() - start
    after = reference_ns()
    return result, raw, raw * 2 * REF_NOMINAL_NS / (before + after)


def timed_setup(make_ops, seed: int, tmp: Path, times: list[tuple[float, float]]):
    """Build the inputs repeatedly, appending each build's (raw, scaled)
    seconds; return the ops of the last build (every build writes the
    same files)."""
    spent = 0.0
    for repeat in range(SETUP_MAX_REPEATS):
        if repeat >= SETUP_MIN_REPEATS and spent >= SETUP_MIN_SECONDS:
            break
        ops, raw, scaled = bracketed(partial(make_ops, seed, tmp))
        times.append((raw / 1e9, scaled / 1e9))
        spent += raw / 1e9
    return ops


def _run_op(op, traced: bool):
    """(result, None), or (None, reason) when the op raised."""
    try:
        return op.run(traced), None
    except Exception as exc:  # a crashing op is a failed op
        return None, f"{type(exc).__name__}: {exc}"


class Phase:
    """Latencies and failures of the ops run in one phase."""

    def __init__(self) -> None:
        self.raw_ns: list[int] = []
        self.latencies_ns: list[float] = []  # scaled to the nominal host speed
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, ops, rng, tracer=None) -> None:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            # Start each op on a heap with no garbage from the op before,
            # as a fresh CLI process would.
            gc.collect()
            (result, error), raw, scaled = bracketed(partial(_run_op, op, tracer is not None))
            self.raw_ns.append(raw)
            self.latencies_ns.append(scaled)
            if error is None:
                if tracer is not None:
                    with tracer.paused():
                        error = op.check(result)
                else:
                    error = op.check(result)
            if error is not None:
                self.failures.append(f"{op.label}: {error}")
        self.passes += 1

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    def ops_per_s(self, raw: bool = False) -> float:
        """Completed ops over the client's busy time (checks and reference
        runs excluded), scaled unless raw."""
        return self.ops / (sum(self.raw_ns if raw else self.latencies_ns) / 1e9)


def end_to_end(phase: Phase, setup_s: float) -> dict:
    ms = [ns / 1e6 for ns in phase.latencies_ns]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "ok_op_ratio": ((phase.ops - len(phase.failures)) / phase.ops, "ratio"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


def per_layer(totals: dict, overhead: float) -> dict:
    def get(span: str, key: str) -> int:
        return totals.get(span, {}).get(key, 0)

    def self_ms(span: str):
        return (get(span, "self_ns") / 1e6, "ms")

    def count(span: str, key: str):
        return (get(span, key), "count")

    verdicts = get("verify.verify_irregular", "calls")
    search_s = get("search.min_strength", "self_ns") / 1e9
    nodes = get("search.min_strength", "nodes")
    return {
        "grid.make_grid.self_ms": self_ms("grid.make_grid"),
        "grid.make_grid.calls": count("grid.make_grid", "calls"),
        "covering.enumerate_windows.self_ms": self_ms("covering.enumerate_windows"),
        "covering.enumerate_windows.members": count("covering.enumerate_windows", "members"),
        "covering.is_edge_covering.self_ms": self_ms("covering.is_edge_covering"),
        "covering.is_edge_covering.calls": count("covering.is_edge_covering", "calls"),
        "construct.self_ms": self_ms("construct"),
        "construct.labels": count("construct", "labels"),
        "bounds.self_ms": self_ms("bounds"),
        "verify.weight_profile.self_ms": self_ms("verify.weight_profile"),
        "verify.weight_profile.members": count("verify.weight_profile", "members"),
        "verify.verify_irregular.self_ms": self_ms("verify.verify_irregular"),
        "verify.verify_irregular.calls": count("verify.verify_irregular", "calls"),
        "verify.reject_ratio": (
            get("verify.verify_irregular", "rejects") / verdicts if verdicts else 0.0, "ratio"),
        "io.load_labeling.self_ms": self_ms("io.load_labeling"),
        "io.load_labeling.bytes": count("io.load_labeling", "bytes"),
        "io.load_family.self_ms": self_ms("io.load_family"),
        "io.load_family.bytes": count("io.load_family", "bytes"),
        "search.min_strength.self_ms": self_ms("search.min_strength"),
        "search.budgets": count("search.min_strength", "calls"),
        "search.nodes": count("search.min_strength", "nodes"),
        "search.nodes_below_min": count("search.min_strength", "nodes_below_min"),
        "search.nodes_per_s": (nodes / search_s if search_s else 0.0, "1/s"),
        "cli.main.self_ms": self_ms("cli.main"),
        "trace.ops_per_s_ratio": (overhead, "ratio"),
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gridirr" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gridirr'}; "
              "run from the root of a gridirr checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import gridirr
    import spans
    import workloads

    if Path(gridirr.__file__).resolve().parent != ROOT / "src" / "gridirr":
        print(f"error: imported gridirr from {gridirr.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    order_rng = random.Random(f"{args.seed}:order")
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        make_ops, setup_times = workloads.WORKLOADS[args.workload], []
        ops = timed_setup(make_ops, args.seed, Path(tmp), setup_times)
        # The inputs held for the ops (certify's hosts and families) would
        # not exist in a user's process; keep the collector from scanning them.
        gc.collect()
        gc.freeze()
        untraced = Phase()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or untraced.ops < MIN_OPS:
            untraced.run_pass(ops, order_rng)
        timed_setup(make_ops, args.seed, Path(tmp), setup_times)
        setup_s = statistics.median(scaled for _, scaled in setup_times)
        setup_raw_s = statistics.median(raw for raw, _ in setup_times)
        traced = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = Phase()
                traced.run_pass(ops, order_rng, tracer=tracer)
            finally:
                tracer.uninstall()

    attempted = untraced.ops + (traced.ops if traced else 0)
    failures = untraced.failures + (traced.failures if traced else [])
    if traced:
        overhead = traced.ops_per_s() / untraced.ops_per_s()
        metrics = per_layer(tracer.totals(), overhead)
    else:
        metrics = end_to_end(untraced, setup_s)

    declared = declared_metrics(bool(args.trace))
    if {name: unit for name, (_, unit) in metrics.items()} != declared:
        print("error: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} closed loop, one client; "
          f"{untraced.passes} passes x {len(ops)} ops = {untraced.ops} ops untraced"
          + (f", 1 traced pass of {traced.ops} ops" if traced else ""))
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    print(f"failed_op_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    for failure in failures[:20]:
        print(f"  failed: {failure}")
    if traced:
        print(f"trace overhead: traced {traced.ops_per_s():.6g} ops/s / untraced "
              f"{untraced.ops_per_s():.6g} ops/s = {overhead:.4f}")
        for name in tracer.missing:
            print(f"  not traced (absent from the package): {name}")
    raw_ms = [ns / 1e6 for ns in untraced.raw_ns]
    print(f"unscaled wall time: setup_s {setup_raw_s:.6g} s, ops_per_s "
          f"{untraced.ops_per_s(raw=True):.6g} 1/s, op_p50_ms {statistics.median(raw_ms):.6g} ms, "
          f"op_p90_ms {statistics.quantiles(raw_ms, n=10, method='inclusive')[8]:.6g} ms; "
          f"scaled below to a reference kernel time of {REF_NOMINAL_NS / 1e6:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
