"""The workload process of the nashtoric benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this script; it is not meant to be run by hand.  It
imports the package from ``src/`` of the checkout it lives in, builds the
workload's inputs from the seed and prints ``ready``.  With --setup-only it
stops there.  Otherwise it runs passes and prints one JSON line with the
measured values and the outcome of the output checks.

Untraced (--trace 0), it runs passes until --seconds have passed, at least
one, and starts none that would likely end after 1.5 times --seconds.
Traced (--trace 1), it runs a traced, an untraced and a traced pass; the
per-layer metrics come from the first traced pass, and the call and item
counts of the two traced passes must be equal.

Every pass is timed between two runs of a fixed reference loop, on as many
threads as the workload uses.  The speed of a shared machine drifts by up
to a quarter over tens of seconds, so the reported times are scaled to a
fixed machine speed: a pass time is multiplied by n * REFERENCE_S over the
reference loop's time on n threads around the pass.  The median raw pass
time and scale factor are reported too.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Time of the reference loop on an idle core of the baseline machine (a
# 2-core x86-64 VM); on n threads the loop takes about n times as long.  Any
# constant would do; this one keeps scaled times close to the wall times of
# that machine when it is not contended.
REFERENCE_S = 0.025


def _reference_loop() -> int:
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return acc


def reference_seconds(threads: int = 1) -> float:
    """Fastest of three timings of a fixed pure-Python integer loop, run at
    once on `threads` threads, so that the loop contends for the interpreter
    lock as the workload's threads do."""
    best = float("inf")
    for _ in range(3):
        others = [threading.Thread(target=_reference_loop) for _ in range(threads - 1)]
        start = perf_counter()
        for t in others:
            t.start()
        _reference_loop()
        for t in others:
            t.join()
        best = min(best, perf_counter() - start)
    return best


def speed_factor(before: float, after: float, threads: int = 1) -> float:
    """Scale factor to the reference speed for work done between two
    reference timings on `threads` threads."""
    return 2 * REFERENCE_S * threads / (before + after)


def calibrated_pass(workload, inputs, expected, tmpdir, threads):
    """One pass and the scale factor of the machine speed around it."""
    before = reference_seconds(threads)
    result = workload(inputs, tmpdir, expected)
    return result, speed_factor(before, reference_seconds(threads), threads)


def import_package():
    """Import nashtoric from src/ of this checkout, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import nashtoric

    where = Path(nashtoric.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"nashtoric imported from {where}, not from {ROOT / 'src'}")


def run_untraced(workload, threads, inputs, expected, seconds, tmpdir):
    """Passes until `seconds` have passed.  A pass is not started when the
    previous one says it would end after 1.5 * `seconds`, which keeps runs
    of long passes on a slow machine within the run budget."""
    start = perf_counter()
    runs = [calibrated_pass(workload, inputs, expected, tmpdir, threads)]
    while (elapsed := perf_counter() - start) < seconds and (
        elapsed + runs[-1][0].wall_s <= 1.5 * seconds
    ):
        runs.append(calibrated_pass(workload, inputs, expected, tmpdir, threads))
    med = statistics.median
    passes = [p for p, _ in runs]
    return passes, {
        "wall_s": med([p.wall_s * f for p, f in runs]),
        "expansions_per_s": med([p.expansions / (p.wall_s * f) for p, f in runs]),
        "resume_s": med([t * f for p, f in runs for t in p.resume_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": med([p.wall_s for p in passes]),
        "speed_factor": med([f for _, f in runs]),
    }


def run_traced(workload, threads, inputs, expected, tmpdir):
    """Traced, untraced, traced: the overhead ratio compares the mean of the
    traced passes with the untraced pass between them, so drift cancels."""
    import tracer

    def traced_pass():
        with tracer.Tracer() as t:
            result, factor = calibrated_pass(workload, inputs, expected, tmpdir, threads)
        return result, factor, t

    first, f1, first_tracer = traced_pass()
    untraced, f0 = calibrated_pass(workload, inputs, expected, tmpdir, threads)
    second, f2, second_tracer = traced_pass()
    values = tracer.layer_values(first_tracer)
    values["trace.overhead_ratio"] = (first.wall_s * f1 + second.wall_s * f2) / (
        2 * untraced.wall_s * f0
    )
    a, b = tracer.repeatable_counts(first_tracer), tracer.repeatable_counts(second_tracer)
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    second.tally.attempted += 1
    second.tally.check("traced passes", not diff, f"call or item counts differ: {', '.join(diff)}")
    return [first, untraced, second], values, first_tracer.absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    build, workload, threads = workloads.WORKLOADS[args.workload]
    expected = workloads.EXPECTED[args.workload]
    inputs = build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.trace:
            passes, metrics, absent = run_traced(workload, threads, inputs, expected, tmpdir)
        else:
            passes, metrics = run_untraced(workload, threads, inputs, expected, args.seconds, tmpdir)
            absent = []
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    report = {
        "passes": len(passes),
        "attempted": sum(p.tally.attempted for p in passes),
        "failed": sum(len(p.tally.failed) for p in passes),
        "problems": [msg for p in passes for msg in p.tally.problems],
        "absent": absent,
        "metrics": metrics,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
