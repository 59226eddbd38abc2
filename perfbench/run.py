#!/usr/bin/env python3
"""End-to-end benchmark of the eimm library.

    python3 perfbench/run.py --workload imm-ic-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench/driver.cpp against the
library sources into .bench_build/perfbench (first run only), runs one
workload in child processes with every EIMM_*/OpenMP variable removed
from their environment, checks the outputs, and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace to .bench_build/traces/). Exits non-zero when
any op failed or the build or run did not complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402

WORKLOADS = ("imm-ic-dense", "imm-lt-sparse", "serve-lt-mixed")
SCRUBBED_PREFIXES = ("EIMM_", "OMP_", "GOMP_", "KMP_")
BUILD_JOBS = "4"
# An untraced run is split over this many driver processes, each timing
# an equal share of --seconds after its own set-up. setup_s is then the
# median of set-ups made in fresh processes, as a user's would be, and
# its first run_imm (the slow one) is always the set-up's warm-up op.
PROCESSES = 3
# Every process of a run together must end within this many seconds.
RUN_TIMEOUT_S = 165


class BenchError(RuntimeError):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_driver(root):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"no eimm sources under {root}: run from a checkout")
    build_dir = root / ".bench_build" / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "eimm_perfbench", "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    return build_dir / "eimm_perfbench"


def scrubbed_environment():
    return {k: v for k, v in os.environ.items()
            if not k.startswith(SCRUBBED_PREFIXES)}


def run_driver(binary, root, args, seconds, timeout):
    run_dir = root / ".bench_build" / "runs" / f"{args.workload}-{os.getpid()}"
    trace_dir = root / ".bench_build" / "traces"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--out", "raw.json",
               "--trace-out", str(trace_file)]
    try:
        done = subprocess.run(command, cwd=run_dir, env=scrubbed_environment(),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
        if done.returncode != 0:
            raise BenchError(f"driver exited with {done.returncode}")
        with open(run_dir / "raw.json") as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver ran longer than {timeout:.0f} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        log(f"trace written to {trace_file}")
    return raw


def report(raw, trace):
    config = " ".join(f"{k}={v}" for k, v in sorted(raw["config"].items()))
    print(f"perfbench {raw['workload']} seed={raw['seed']} trace={trace}")
    print(f"config: {config}")
    if raw["scrubbed_env"]:
        print(f"scrubbed: {' '.join(raw['scrubbed_env'])}")
    for start, end in raw["loadavg"]:
        print(f"loadavg: start [{start}] end [{end}]")
    for note in raw["notes"]:
        print(f"note: {note}")

    attempted = raw["attempted"]
    failures = raw["failed"]
    frac = summary.fail_frac(attempted, failures)
    if trace:
        values = summary.per_layer(raw)
        units = summary.PER_LAYER
        for name, value in values.items():
            print(f"{name:28s} {value:14.6g} {units[name][0]}")
    else:
        values, notes = summary.end_to_end(raw)
        units = summary.END_TO_END
        for name, value in values.items():
            print(f"{name:14s} {value:14.6g} {units[name][0]:9s} "
                  f"({notes[name]})")
    detail = ", ".join(f"{k} {v}" for k, v in failures.items())
    print(f"{'fail_frac':14s} {frac:14.6g} ratio     "
          f"({sum(failures.values())} of {attempted} ops: {detail})")
    print(json.dumps(summary.result_line(values, units, attempted, failures)))
    return frac


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    try:
        binary = build_driver(root)
        processes = 1 if args.trace else PROCESSES
        raw = summary.merge([
            run_driver(binary, root, args, args.seconds / processes,
                       RUN_TIMEOUT_S / processes)
            for _ in range(processes)])
        frac = report(raw, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    return 1 if frac > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
