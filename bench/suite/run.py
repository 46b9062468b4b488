#!/usr/bin/env python3
"""Builds powai_bench, runs one workload and prints its result as JSON.

Usage, from the repository root:

    python3 bench/suite/run.py --workload closed_mix --seed 1 --seconds 10 --trace 0

The first call configures a Release build of bench/suite (which compiles
the library from src/) in .bench_build; later calls rebuild incrementally.
powai_bench's report goes to standard output, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where the metrics are
BENCHMARK.json's end-to-end metrics with --trace 0 and its per-layer metrics
with --trace 1. If the build or the run fails, or a metric is missing or
has another unit than BENCHMARK.json gives, the script exits non-zero and
prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build() -> None:
    out = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=out, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "powai_bench",
                    "-j", jobs], stdout=out, stderr=out, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    result_path = BUILD / f"result-{args.workload}.json"
    result_path.unlink(missing_ok=True)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [str(BUILD / "powai_bench"), f"workload={args.workload}",
             f"seed={args.seed}", f"seconds={args.seconds}",
             f"trace={args.trace}", f"json={result_path}"],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: powai_bench timed out", file=sys.stderr)
        return 2
    # Exit code 1 means a correctness check failed; that is reported as
    # "correct": false. Anything else without a result file is an error.
    if proc.returncode not in (0, 1) or not result_path.exists():
        print(f"run.py: powai_bench exited {proc.returncode}", file=sys.stderr)
        return 2

    report = json.loads(result_path.read_text())
    (workload,) = [w for w in report["workloads"] if w["name"] == args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = workload["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": proc.returncode == 0 and workload["correct"],
        "attempted": workload["ops"],
        "failed": workload["failed_ops"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
