"""Run one workload of the nashtoric benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; the package is
imported from its ``src/``.  The workload runs in a fresh process
(``worker.py``).  Set-up time is measured separately, as the median over
eight fresh processes that each import the package, build the inputs and
stop; four run before the workload and four after it.  Like the pass times,
set-up times are scaled to a fixed machine speed with the reference loop of
``worker.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones of ``tracer.LAYER_METRICS``.  The lines above it list the same
metrics by name with their units; untraced, also ``resume_s``, the raw
median pass time, the median speed factor and the error rate, which the
JSON metrics leave out.  When the workload
process fails or does not finish, nothing is printed on standard output
and the exit code is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from worker import reference_seconds, speed_factor  # noqa: E402

WORKLOADS = ("normalized-step", "explore-loop4", "nash-sample")
SETUP_PROBES = 4  # before the workload process, and again after it
RUN_LIMIT_S = 170.0
# A fixed string-hash seed in the workload processes: sets of canonical keys
# then iterate in the same order in every run, so sorting them for a save
# costs the same from run to run.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END_UNITS = {"wall_s": "s", "expansions_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed with the end-to-end metrics but left out of the JSON ones.  A resume
# takes milliseconds at the end of each pass, so a run samples the speed of
# a shared machine at a few instants only, and its median does not repeat
# from run to run within any bound the benchmark may set.  The raw pass time
# and the scale factor show what the scaled times were made from.
REPORTED_UNITS = {"resume_s": "s", "raw_wall_s": "s", "speed_factor": "ratio"}


class BenchError(Exception):
    pass


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a workload process to its inputs being built."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=WORKER_ENV) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up of {workload} failed (exit code {code})")
    return elapsed


def probe_setups(workload: str, seed: int) -> list[float]:
    """SETUP_PROBES set-up times, scaled to the reference machine speed."""
    before = reference_seconds()
    times = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    factor = speed_factor(before, reference_seconds())
    return [t * factor for t in times]


def run_worker(args, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=WORKER_ENV)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} failed (exit code {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = monotonic()
    try:
        setup = [] if args.trace else probe_setups(args.workload, args.seed)
        report = run_worker(args, RUN_LIMIT_S - (monotonic() - began))
        if not args.trace:
            setup += probe_setups(args.workload, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units, shown_only = {name: unit for name, unit, _ in LAYER_METRICS}, {}
        values = report["metrics"]
    else:
        units, shown_only = END_TO_END_UNITS, REPORTED_UNITS
        values = dict(report["metrics"], setup_s=statistics.median(setup))

    def entries(names_units):
        return {name: {"value": values[name], "unit": unit} for name, unit in names_units.items()}

    metrics = entries(units)
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not report["problems"]

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={report['passes']}")
    for name, m in {**metrics, **entries(shown_only)}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    for name in report["absent"]:
        print(f"absent: {name} (its metrics read 0)")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
