"""Benchmark of sft-lab: four workloads, timed end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are classify, torsion, square_zero and loops (see README.md).
The run repeats cold passes, each in a fresh single-threaded worker
process (worker.py), one at a time, while the next pass fits in
``--seconds`` of wall time; an untimed set-up of a worker warms the
file cache first.  Every output is checked against its known answer and
the digest of the outputs must agree across passes.  The report goes
to standard output; its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes, so the tracing overhead comes
from the same run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "torsion", "square_zero", "loops")
SETUP_SAMPLES = 9           # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str):
    """Run one worker to completion; returns (its JSON result, spawn time)."""
    cmd = [sys.executable, "-I",
           "-X", "pycache_prefix=%s" % (ROOT / ".bench_build" / "pycache"),
           str(HERE / "worker.py"), workload, str(seed), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %ds" % WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1]), spawned


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0")
        source.update(path.read_bytes())
    return ("env python=%s commit=%s source_sha256=%s nproc=%d "
            "affinity=%d machine=%s" % (
                platform.python_version(), commit(), source.hexdigest(),
                os.cpu_count() or 0, len(os.sched_getaffinity(0)),
                platform.machine()))


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Cold passes while the next one fits in the time; at least one.

    A traced run alternates untraced and traced passes and has at least
    one of each.  Returns the passes and the set-up times measured so
    far, the first of them from a worker that only sets up.
    """
    plain, traced = [], []
    warm, spawned = spawn(workload, seed, "setup")
    setups = [warm["setup_done"] - spawned]
    begin = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(plain)
        start = time.monotonic()
        result, spawned = spawn(workload, seed, "1" if want_traced else "0")
        result["setup_s"] = result["setup_done"] - spawned
        (traced if want_traced else plain).append(result)
        now = time.monotonic()
        if now - begin + (now - start) > seconds and (traced or not trace):
            return plain, traced, setups


def summarize(workload, seed, seconds, trace, plain, traced, setups=()):
    passes = plain + traced
    digests = sorted({p["digest"] for p in passes})
    records = [r for p in passes for r in p["items"]]
    failed = [r for r in records if r["error"] or r["problems"]]
    wrong = [r for r in records if r["problems"]]
    correct = not wrong and len(digests) == 1
    print(environment())
    print("run workload=%s seed=%d seconds=%g trace=%d passes=%d "
          "traced_passes=%d" % (workload, seed, seconds, trace,
                                len(plain), len(traced)))
    for r in failed:
        print("failed %s: %s" % (r["label"],
                                 r["error"] or "; ".join(r["problems"])))
    print("attempted=%d failed=%d failed_ratio=%.6f" % (
        len(records), len(failed), len(failed) / len(records)))
    print("digest %s%s" % (digests[0], "" if len(digests) == 1
                           else " MISMATCH across passes: %s" % digests))
    # the mean over passes covers the whole run, which averages out more
    # of the host's slow swings in speed than a median of a few passes
    wall_plain = statistics.fmean(p["pass_s"] for p in plain)
    if trace:
        metrics = {}
        for name in sorted(traced[0]["layers"]):
            metrics[name] = statistics.median(p["layers"][name]
                                              for p in traced)
        for name, why in sorted(traced[0]["absent"].items()):
            print("absent %s: %s" % (name, why))
        metrics["trace.overhead_s"] = (
            statistics.fmean(p["pass_s"] for p in traced) - wall_plain)
        units = {m.name: m.unit for m in layers.METRICS}
        units["trace.overhead_s"] = "s"
        print("trace overhead %.4f s on untraced wall_s %.4f s" % (
            metrics["trace.overhead_s"], wall_plain))
    else:
        done = [r["seconds"] for p in plain for r in p["items"]
                if not (r["error"] or r["problems"])]
        if not done:
            raise BenchError("no item completed")
        setups = list(setups) + [p["setup_s"] for p in plain]
        while len(setups) < SETUP_SAMPLES:
            probe, spawned = spawn(workload, seed, "setup")
            setups.append(probe["setup_done"] - spawned)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_plain,
            "items_per_s": len(done) / sum(p["pass_s"] for p in plain),
            "item_p50_s": percentile(done, 50),
            "item_p90_s": percentile(done, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                 "item_p50_s": "s", "item_p90_s": "s", "peak_rss_mb": "MB"}
        print("latency samples=%d (%d beyond p90); setup samples=%d" % (
            len(done), len(done) // 10, len(setups)))
        if workload == "classify":       # case_s.0_1, case_s.0_2, case_s.1_1
            by_case = {}
            for p in plain:
                for r in p["items"]:
                    by_case.setdefault(r["label"][len("case_"):],
                                       []).append(r["seconds"])
            for case, times in by_case.items():
                print("metric case_s.%s %.6f s"
                      % (case, statistics.median(times)))
    for name, value in metrics.items():
        print("metric %s %.6f %s" % (name, value, units[name]))
    return {"correct": correct, "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sft_lab" / "__init__.py").is_file():
        sys.stderr.write("bench: no program source under %s\n"
                         % (ROOT / "src"))
        return 2
    try:
        plain, traced, setups = run_passes(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
        result = summarize(args.workload, args.seed, args.seconds,
                           bool(args.trace), plain, traced, setups)
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
