"""Benchmark for the ``zigzag`` library, driven from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Each sample runs in a fresh interpreter (``child.py``), one child at a
time, so every sample pays the import and fills the package's caches
from cold, as ``zigzag verify`` does.  Within ``--seconds`` the run takes
as many samples as fit.  Every sample times the same units of work (a
check, an (n, k) count, an object, a command); the run keeps each unit's
fastest time over its samples, so a burst of slowdown on a shared host
has to hit a unit in every sample to show.  Each sample also times a
fixed piece of pure-Python work of the benchmark's own (see
``child.reference``), and the run scales every timing by how fast that
ran: on a shared host the same code runs up to 1.7 times slower for
minutes at a time, and the scaling takes most of that out.  Set-up is
timed once per sample, and the run keeps its fastest, scaled, too.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment.
``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
``--trace 1`` alternates untraced and traced samples and reports its
``per_layer`` metrics, including the tracing overhead.  A run that
cannot import ``zigzag`` exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spec
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
# children byte-compile once, as an installed package would, into a tree
# of the benchmark's own
PYCACHE = os.path.join(BENCH, "out", "pycache")
DEADLINE_S = 170  # a run must end within 180 s
# About the reference's fastest time on the 2-vCPU 2.0 GHz Xeon host the
# benchmark was tuned on; timings are reported as if the host ran the
# reference this fast.
REFERENCE_S = 0.007


class ProgramMissing(Exception):
    """The package cannot even be imported; there is nothing to measure."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, mode: str, traced: bool = False, timeout: float = 60):
    """Run one child; return its JSON result, or None if it failed."""
    cmd = [sys.executable, CHILD, "--mode", mode, "--workload", args.workload]
    cmd += ["--profile", args.profile, "--seed", str(args.seed)]
    cmd += ["--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd += ["--spawn", repr(_now())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} child exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def fastest(samples) -> dict[str, tuple[float, int]]:
    """Each unit's fastest time over the samples' unit lists.

    Returns name -> (seconds, items).
    """
    best: dict[str, tuple[float, int]] = {}
    for units in samples:
        for name, seconds, items in units:
            if name not in best or seconds < best[name][0]:
                best[name] = (seconds, items)
    return best


def weighted_quantile(units, q: float) -> float:
    """Per-item latency in ms at quantile q, each unit weighted by its items.

    A unit of s seconds that accounts for m items gives each item the
    latency s / m.  The result moves continuously with the unit times.
    """
    points = sorted((s / m * 1000, m) for s, m in units if m > 0)
    if not points:  # every unit failed before producing anything
        return 0.0
    total = sum(m for _, m in points)
    seen = 0
    for latency, m in points:
        seen += m
        if seen >= q * total:
            return latency
    return points[-1][0]


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "sizes": workloads.config(args.workload, args.profile),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, env: dict) -> tuple[dict, int, int]:
    """Run the samples; return (metrics, attempted, failed).

    Records the sample counts in ``env``.
    """
    started = _now()
    # scratch directories of children that were killed before cleaning up
    for stale in glob.glob(os.path.join(BENCH, "out", f"{args.workload}-*")):
        shutil.rmtree(stale, ignore_errors=True)
    if spawn(args, "setup") is None:  # warm-up: byte-compiles, fills the page cache
        raise ProgramMissing
    ops = workloads.operations(args.workload, args.profile)
    attempted = failed = 0
    setups, plain, traced, walls = [], [], [], []
    needed = 2 if args.trace else 1
    window = _now()
    while len(walls) < needed or _now() - window + max(walls) <= args.seconds:
        timeout = DEADLINE_S - (_now() - started)
        if timeout < 5:
            break
        begun = _now()
        is_traced = bool(args.trace) and len(walls) % 2 == 1
        child = spawn(args, "sample", is_traced, timeout)
        walls.append(_now() - begun)
        if child is None:
            attempted += ops
            failed += ops
            continue
        attempted += child["attempted"]
        failed += child["failed"]
        for err in child["errors"]:
            print(f"FAIL {args.workload}: {err}", file=sys.stderr)
        setups.append(child["setup_s"])
        (traced if is_traced else plain).append(child)
    env["samples"] = {"untraced": len(plain), "traced": len(traced)}
    if not plain or (args.trace and not traced):
        return {}, max(attempted, 1), max(failed, 1)

    # below 1 when the host ran the reference slower than REFERENCE_S
    reference = fastest(c["reference"] for c in plain + traced)
    scale = REFERENCE_S / sum(s for s, _ in reference.values())
    unscaled = fastest(c["units"] for c in plain)
    env["host_scale"] = scale
    env["unscaled_run_s"] = sum(s for s, _ in unscaled.values())
    best = {name: (s * scale, m) for name, (s, m) in unscaled.items()}
    run_s = sum(s for s, _ in best.values())
    if args.trace:
        metrics = {}
        for m in spec.benchmark()["per_layer"]:
            values = [c["layers"].get(m["name"], 0) for c in traced]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        traced_s = sum(s for s, _ in fastest(c["units"] for c in traced).values()) * scale
        metrics["trace.overhead_s"]["value"] = traced_s - run_s
        return metrics, attempted, failed
    values = {
        "setup_s": min(setups) * scale,
        "run_s": run_s,
        "items_per_s": sum(m for _, m in best.values()) / run_s,
        "obj_ms_p50": weighted_quantile(best.values(), 0.5),
        "obj_ms_p90": weighted_quantile(best.values(), 0.9),
        "peak_rss_mib": statistics.median(c["rss_mib"] for c in plain),
    }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec.benchmark()["end_to_end"]
    }
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec.benchmark()["workloads"]]
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--profile",
        choices=sorted(spec.PROFILES),
        default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment(args)
    try:
        metrics, attempted, failed = measure(args, env)
    except ProgramMissing:
        print("error: cannot import zigzag from src/; nothing to measure", file=sys.stderr)
        return 2
    env["fail_ratio"] = failed / attempted
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
