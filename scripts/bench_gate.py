#!/usr/bin/env python3
"""Paired benchmark gate: fails when a change's powai_bench regresses.

Usage, from the repository root:

    python3 scripts/bench_gate.py PARENT_POWAI_BENCH CHANGE_POWAI_BENCH

Both arguments are powai_bench binaries, one built from the parent commit
and one from the change. The gate runs PAIRS pairs. Each run is
`powai_bench workload=all seconds=<BENCHMARK.json run_seconds>`; both
runs of a pair get the same seed, and the side that runs first alternates
from pair to pair, so drift in host speed falls on both sides alike.

The gate fails (exit 1) when
- any run reports `correct: false`;
- on any workload, the change's share of failed operations is higher
  than the parent's;
- on any workload, an end-to-end metric's median over the change's runs
  is worse than the parent's median by more than the metric's `bound`
  (a share of the parent's median), where "worse" follows the metric's
  `better` direction in BENCHMARK.json.

An improvement of any size passes: unlike bench/suite/agree.py, which
checks that two result sets agree, the gate is one-sided. It exits 2
when a run cannot be made or leaves no result.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/suite
sys.path.insert(0, str(ROOT / "bench" / "suite"))
from agree import medians  # noqa: E402  (bench/suite is not a package)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 6  # even, so each side runs first equally often
RUN_TIMEOUT_S = 900


def run(binary, seed, out):
    """One powai_bench run of every workload, reported to the file out."""
    cmd = [str(binary), "workload=all", f"seed={seed}",
           f"seconds={SPEC['run_seconds']}", f"json={out}"]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=RUN_TIMEOUT_S)
    # 1 means a correctness check failed; the report says which.
    if proc.returncode not in (0, 1) or not Path(out).exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")


def worse_by(parent, change, better):
    """How much worse change is than parent, as a share of parent;
    negative when it is better."""
    if parent == change:
        return 0.0
    if parent == 0:
        gain = float("inf") if change > 0 else float("-inf")
    else:
        gain = (change - parent) / abs(parent)
    return -gain if better == "higher" else gain


def failed_share(paths):
    """{workload: failed_ops / ops summed over the runs}."""
    ops, failed = {}, {}
    for path in paths:
        for w in json.loads(Path(path).read_text())["workloads"]:
            ops[w["name"]] = ops.get(w["name"], 0) + w["ops"]
            failed[w["name"]] = failed.get(w["name"], 0) + w["failed_ops"]
    return {w: failed[w] / ops[w] if ops[w] else 0.0 for w in ops}


def verdict(parent_paths, change_paths, metrics=SPEC["end_to_end"]):
    """(report lines, failures) for two sets of powai_bench JSON reports."""
    failures = []
    for path in list(parent_paths) + list(change_paths):
        report = json.loads(Path(path).read_text())
        bad = [w["name"] for w in report["workloads"] if not w["correct"]]
        if not report["correct"] or bad:
            failures.append(f"{Path(path).stem}: correct: false "
                            f"({', '.join(bad)})")

    parent_failed, change_failed = (failed_share(parent_paths),
                                    failed_share(change_paths))
    parent, change = medians(parent_paths), medians(change_paths)
    lines = []
    for workload, parent_values in parent.items():
        if change_failed.get(workload, 1.0) > parent_failed[workload]:
            failures.append(f"{workload}: failed share rose from "
                            f"{parent_failed[workload]:.3g} to "
                            f"{change_failed.get(workload, 1.0):.3g}")
        cells = []
        for m in metrics:
            name = m["name"]
            p = parent_values.get(name)
            c = change.get(workload, {}).get(name)
            if p is None or c is None:
                cells.append(f"{name}=missing")
                failures.append(f"{workload} {name}: missing")
                continue
            worse = worse_by(p, c, m["better"])
            cells.append(f"{name}={0.0 - worse:+.1%}")  # no "-0.0%"
            if worse > m["bound"]:
                failures.append(
                    f"{workload} {name}: {p:.6g} -> {c:.6g} is {worse:.1%} "
                    f"worse (bound {m['bound']:.0%})")
        lines.append(f"{workload:15s} {' '.join(cells)}")
    return lines, failures


def main(argv):
    if len(argv) != 3:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    binaries = {"parent": Path(argv[1]).resolve(),
                "change": Path(argv[2]).resolve()}
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="bench_gate.") as tmp:
        paths = {"parent": [], "change": []}
        try:
            for pair in range(PAIRS):
                seed = pair + 1
                order = ["parent", "change"]
                if pair % 2:
                    order.reverse()
                for side in order:
                    out = Path(tmp) / f"{side}-{seed}.json"
                    print(f"pair {pair + 1}/{PAIRS}: {side} seed={seed}",
                          flush=True)
                    run(binaries[side], seed, out)
                    paths[side].append(out)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"bench_gate: {e}", file=sys.stderr)
            return 2
        lines, failures = verdict(paths["parent"], paths["change"])

    print("\nchange vs parent, median over "
          f"{PAIRS} runs each (+ = better):")
    for line in lines:
        print(line)
    for f in failures:
        print(f"FAIL {f}")
    print(f"\n{'FAILED' if failures else 'passed'} "
          f"({time.monotonic() - start:.0f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
