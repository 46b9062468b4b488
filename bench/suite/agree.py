#!/usr/bin/env python3
"""Checks that two sets of powai_bench results agree within BENCHMARK.json.

Usage, from the repository root:

    python3 bench/suite/agree.py --a run1.json [more.json ...] --b run2.json [...]

Each file is what `powai_bench json=...` writes (any workloads, any
repeat=). For every workload present on both sides and every end-to-end
metric, each side's value is the median over its files, and the two
medians must differ by at most the metric's bound, as a share of side A.
Prints one row per workload and exits 1 if any metric is out of bounds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def medians(paths):
    """{workload: {metric: median value over the files}}."""
    values = {}
    for path in paths:
        for w in json.loads(Path(path).read_text())["workloads"]:
            for name, m in w["metrics"].items():
                values.setdefault(w["name"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: statistics.median(v) for k, v in ms.items()}
            for w, ms in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--b", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"]
              for m in json.loads(SPEC.read_text())["end_to_end"]}
    a, b = medians(args.a), medians(args.b)
    ok = True
    for workload in [w for w in a if w in b]:
        cells, bad = [], []
        for name, bound in bounds.items():
            va, vb = a[workload].get(name), b[workload].get(name)
            if va is None or vb is None:
                cells.append(f"{name}=missing")
                bad.append(name)
                continue
            diff = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
            cells.append(f"{name}={diff:+.1%}")
            if abs(diff) > bound:
                bad.append(name)
        ok = ok and not bad
        verdict = "agree" if not bad else "DISAGREE: " + ", ".join(bad)
        print(f"{workload:15s} {verdict:40s} {' '.join(cells)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
