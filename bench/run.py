#!/usr/bin/env python3
"""Run one classinv benchmark workload, check every result, print metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload table --seed 1 --seconds 10 --trace 0

Workloads: table, large, hilbert, invariance (see bench/README.md).
With ``--trace 0`` the run prints the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it makes the same untraced passes,
then one more pass with every layer wrapped, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only
when every result passed its gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden_data.py"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = BENCH / "out"

SETUP_REPEATS = 11
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import classinv.classpoly
result = classinv.classpoly.compute_ramanujan(11)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import reference_factor
print(elapsed, elapsed * reference_factor(), result.polynomial)
"""
# A fresh interpreter imports the package and finishes the smallest
# polynomial: lazily built tables are paid here, not in wall_s.  The
# host's speed is sampled right after, outside the measured interval.


@dataclass
class Pass:
    """One timed sweep over a workload's inputs."""

    wall: float = 0.0
    calls: List[Tuple[float, float]] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    items: int = 0

    @property
    def times(self) -> List[float]:
        return [end - start for start, end in self.calls]


def run_pass(workload, order, tracer=None) -> Pass:
    out = Pass()
    start = time.perf_counter()
    for n in order:
        if tracer is not None:
            tracer.poly = f"{workload.name}:{n}"
        t0 = time.perf_counter()
        try:
            result = workload.compute(n)
        except Exception:
            traceback.print_exc()
            result = None
        out.calls.append((t0, time.perf_counter()))
        out.results.append(result)
    out.wall = time.perf_counter() - start
    return out


def gate_pass(workload, order, run: Pass, expected) -> int:
    """Number of results that raised or failed their gate; also counts
    the pass's items."""
    failed = 0
    for n, result in zip(order, run.results):
        if result is None:
            errors = ["raised"]
        else:
            errors = workload.gate(n, result, expected[n])
            run.items += workload.items(result)
        for error in errors:
            print(f"FAIL {workload.name} n={n}: {error}", file=sys.stderr)
        failed += bool(errors)
    return failed


def measure_setup() -> List[Tuple[float, float]]:
    """Wall and reference seconds to import classinv and finish
    compute_ramanujan(11), each in a fresh interpreter; raises if a child
    fails or prints a wrong result."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        elapsed, reference, polynomial = done.stdout.strip().split(" ", 2)
        if polynomial != "x - 1":
            raise RuntimeError(f"compute_ramanujan(11) gave {polynomial!r}")
        samples.append((float(elapsed), float(reference)))
    return samples


def environment() -> Dict[str, object]:
    import mpmath

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "classinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cores": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout's .git directory, or None outside a git tree."""
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
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (SRC / "classinv" / "__init__.py", GOLDEN, ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"bench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    sys.path.insert(0, str(SRC))
    import classinv

    if Path(classinv.__file__).resolve().parent != SRC / "classinv":
        print(f"bench: imported classinv from {classinv.__file__}", file=sys.stderr)
        return 2
    import spans
    from speed import SpeedProbe
    from workloads import WORKLOADS, load_expected

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected(workload.name, GOLDEN, REFERENCE)
    order = list(workload.inputs)
    random.Random(args.seed).shuffle(order)

    print("env", json.dumps(environment(), sort_keys=True))
    setup = [] if args.trace else measure_setup()
    classinv.classpoly.compute_ramanujan(11)  # fill lazy tables before timing

    passes: List[Pass] = []
    attempted = failed = 0
    measured = 0.0
    probe = SpeedProbe()
    with contextlib.nullcontext() if args.trace else probe:
        while not passes or measured + passes[-1].wall <= args.seconds:
            run = run_pass(workload, order)
            measured += run.wall
            attempted += len(order)
            failed += gate_pass(workload, order, run, expected)
            run.results = []
            passes.append(run)

    print(f"untraced passes: {len(passes)}, seconds each: "
          + " ".join(f"{p.wall:.4f}" for p in passes))
    correct = True
    if args.trace:
        with spans.Tracer() as tracer:
            traced = run_pass(workload, order, tracer)
        attempted += len(order)
        failed += gate_pass(workload, order, traced, expected)
        untraced_wall = statistics.median(p.wall for p in passes)
        # Wherever a pass evaluates conjugates or j-values, its items are roots.
        values = tracer.metrics(traced.items, traced.results)
        values.update({"trace.wall_s": traced.wall,
                       "trace.untraced_wall_s": untraced_wall,
                       "trace.overhead_s": traced.wall - untraced_wall})
        polys = [f"{workload.name}:{n}" for n in order]
        for error in tracer.unbalanced(dict(zip(polys, traced.times)),
                                       values["trace.overhead_s"]):
            print(f"FAIL trace {error}", file=sys.stderr)
            correct = False
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{workload.name}.json").write_text(
            json.dumps(tracer.dump()))
        section = "per_layer"
    else:
        items = passes[0].items
        net = [[probe.net_seconds(*c) for c in p.calls] for p in passes]
        ref = [[probe.reference_seconds(*c) for c in p.calls] for p in passes]
        wall = statistics.median(sum(times) for times in net)
        wall_ref = statistics.median(sum(times) for times in ref)
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "wall_ref_s": wall_ref,
            "items_per_ref_s": items / wall_ref,
            "latency_p50_ref_s": statistics.median(t for times in ref for t in times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"latency samples: {sum(map(len, net))}; speed samples: "
              f"{len(probe.samples)}; setup samples (wall, reference s): "
              + " ".join(f"{t:.4f},{r:.4f}" for t, r in setup))
        # Wall-clock figures, printed but not declared: on a shared host
        # they drift too much between runs to gate a change on.
        print(f"setup_wall_s = {statistics.median(t for t, _ in setup)} s")
        print(f"wall_s = {wall} s")
        print(f"items_per_s = {items / wall} 1/s")
        print(f"latency_p50_s = {statistics.median(t for times in net for t in times)} s")
        section = "end_to_end"

    metrics = {}
    for spec in declared[section]:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value} {spec['unit']}")
    print(f"failed_ratio = {failed / attempted} ({failed}/{attempted})")
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
