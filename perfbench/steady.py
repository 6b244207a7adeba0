#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload gateway_rw --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (``first-seed`` .. ``first-seed +
runs - 1``) with ``run_seconds`` from ``BENCHMARK.json`` (or
``--seconds``), then prints,
for every end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, next to the metric's bound and a third of it, and
the same for the host's slowdown (how much slower than the reference
speed the host ran; every timed metric is divided by it).
Exits non-zero when a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def spread(values) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = spec["end_to_end"]
    values: dict[str, list[float]] = {row["name"]: [] for row in rows}
    slowdowns = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]),
            "--trace", "0",
        ]  # fmt: skip
        done = subprocess.run(command, cwd=REPO, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-4000:], file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        *_, provenance, final = done.stdout.strip().splitlines()
        final = json.loads(final)
        slowdowns.append(json.loads(provenance)["host_slowdown"])
        for name, metric in final["metrics"].items():
            values[name].append(metric["value"])
        figures = " ".join(f"{m['value']:.4g}" for m in final["metrics"].values())
        print(
            f"seed {seed}: {final['attempted']} ops, slowdown "
            f"{slowdowns[-1]:.3f}, {figures}",
            flush=True,
        )
    failed = False
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'bound/3':>7s}")
    for row in rows:
        median, q1, q3, rel = spread(values[row["name"]])
        bound = row["bound"]
        over = rel > bound
        failed |= over
        print(
            f"{row['name']:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} "
            f"{bound:6.3f} {bound / 3:7.4f}" + (" OVER" if over else "")
        )
    median, q1, q3, rel = spread(slowdowns)
    print(f"{'(host slowdown)':34s} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
