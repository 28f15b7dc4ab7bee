"""One sample of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The first thing it
does is ``import zigzag``, so the time from spawn (passed in as a
CLOCK_MONOTONIC reading, which every process on the host shares) to the
end of that import is the set-up cost a user pays on every CLI call.
It prints one JSON line with its timings, operation counts and, when
traced, its per-layer metrics.
"""

from __future__ import annotations

import itertools
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _checked(check) -> str | None:
    """A reference check's verdict; a check that raises is a failure too."""
    try:
        return check()
    except Exception as exc:
        return f"check raised {exc!r}"


def _down_up_ending(n: int, k: int) -> int:
    """Down-up permutations of [n] ending in k, by brute force."""
    count = 0
    for p in itertools.permutations(range(1, n + 1)):
        if p[-1] == k and all((p[i] > p[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
            count += 1
    return count


def reference() -> list[tuple[str, float, int]]:
    """Time the host-speed reference, as units like a workload's.

    Pure Python of the package's kind (permutations, tuple compares) that
    calls nothing in the package.  It runs in the sample's own process,
    after the import and before the workload, so it meets the same
    conditions as the sample but none of the workload's state.
    """
    units = []
    for k in range(1, 8):
        start = time.perf_counter()
        _down_up_ending(7, k)
        units.append((f"k={k}", time.perf_counter() - start, 1))
    return units


def main() -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import zigzag

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not zigzag.__file__.startswith(src + os.sep):
        sys.exit(f"zigzag imported from {zigzag.__file__}, not from {src}")

    import argparse
    import json
    import resource
    import shutil

    parser = argparse.ArgumentParser()
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "sample"], required=True)
    parser.add_argument("--workload")
    parser.add_argument("--profile", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    result = {"setup_s": imported - args.spawn}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import tracing
    import workloads
    from zigzag import cli  # noqa: F401  (the package does not import it)

    result["reference"] = reference()
    cfg = workloads.config(args.workload, args.profile)
    inputs = None
    if args.workload == "maps-random":
        inputs = workloads.maps_inputs(cfg, args.seed, zigzag.Tree)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install(zigzag)
    out_dir = os.path.join(BENCH, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = workloads.RUNNERS[args.workload][1]
        units, ops = runner(zigzag, cfg, tracer, inputs, out_dir)
        result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = [(label, _checked(check)) for label, check in ops]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    errors = [f"{label}: {p}" for label, p in problems if p]
    result.update(
        run_s=sum(s for _, s, _ in units),
        units=units,
        attempted=len(ops),
        failed=len(errors),
        errors=errors[:5],
    )
    if args.trace:
        bytes_written = sum(i for _, _, i in units) if args.workload == "cli-export" else 0
        result["layers"] = tracer.summary(bytes_written)
        tracer.dump(os.path.join(BENCH, "out", f"spans-{args.workload}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
