#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lib_batch --seed 1 --seconds 45 --trace 0

Workloads: ``lib_batch`` (in-process fleet, string batches) and
``gateway_rw`` (the ``repro-fsm serve`` subprocess over HTTP); see
``perfbench/README.md``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the separate traced run and prints the per-layer
metrics; the names and units are those of ``BENCHMARK.json``.

Every run checks the fleet's outputs against the standalone reference
interpreter.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when the run completed and every output matched.  Spans (traced
runs) and a full record of each run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("lib_batch", "gateway_rw")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run(args):
    if args.workload == "gateway_rw":
        import gateway_workload

        return gateway_workload.run_workload(
            REPO, OUT, args.seed, args.seconds, bool(args.trace)
        )
    import fleet_workloads

    return fleet_workloads.run_workload(args.seed, args.seconds, bool(args.trace))


def _exit_on_sigterm(signum, frame):
    # Unwind through the workloads' ``finally`` blocks, which stop every
    # server process the run started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {REPO}; run from a checkout of the "
            "repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    OUT.mkdir(exist_ok=True)
    declared = declared_metrics(bool(args.trace))

    from repro.serve import HAS_NUMPY

    result = run(args)
    produced = {name: unit for name, (_, unit) in result.metrics.items()}
    missing = sorted(set(declared) - set(produced))
    if any(declared.get(name) != unit for name, unit in produced.items()) or (
        missing and not args.trace
    ):
        raise SystemExit(
            f"perfbench: metrics {produced} do not match BENCHMARK.json {declared}"
        )
    # A traced run reports the layers its workload does not exercise as 0.
    metrics = {
        name: result.metrics.get(name, (0.0, unit)) for name, unit in declared.items()
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": HAS_NUMPY,
        **result.provenance,
        "mismatches": result.mismatches,
    }
    if args.trace:
        provenance["not_on_path"] = missing
    if result.tracer is not None:
        spans = OUT / f"{stem}-spans.jsonl"
        result.tracer.write(spans)
        provenance["spans"] = str(spans.relative_to(REPO))
    final = {
        "correct": not result.mismatches,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": provenance, "result": final}, indent=2) + "\n"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for problem in result.mismatches:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(json.dumps(provenance))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
