"""Serving benchmark of the integer GNN serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-gcn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload (``perfbench/workloads.json``) builds its graph and int8
artifact from source, serves a deterministic trace through the public
``AsyncServingEngine`` API — an open-loop Poisson phase, then a one-client
closed-loop phase — checks every response bitwise against a fresh
reference session, and prints its metrics by name and unit.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with span wrappers around every layer and reports the per-layer
metrics instead.  ``--workload all`` runs every workload, each in its own
fresh process.  The exit status is non-zero when a response mismatches
the reference, when the load generator lagged its schedule beyond the
table's bound, or when the serving package is missing.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the table's default)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    from servebench.spec import load_table

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in load_table().workloads:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        finished = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(finished.stdout)
        sys.stderr.write(finished.stderr)
        status = status or finished.returncode
        lines = finished.stdout.strip().splitlines()
        if finished.returncode != 0 and not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1]) if lines else {}
        if "metrics" not in result:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the serving package is missing ({SRC_DIR / 'repro'}); "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.workload == "all":
        return _run_all(args)

    from servebench.runner import run_workload
    from servebench.spec import OUT_DIR, load_table

    table = load_table()
    if args.workload not in table.workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table.workloads)} or 'all'", file=sys.stderr)
        return 2
    seed = table.default_seed if args.seed is None else args.seed
    outcome = run_workload(args.workload, seed, args.seconds,
                           bool(args.trace), _STARTED)

    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:>10}  {name:<28} {value:>14.6g} {unit}")
    print("meta " + json.dumps(outcome.meta, sort_keys=True))
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in outcome.metrics.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{seed}-trace{args.trace}.json") \
        .write_text(json.dumps({**result, "meta": outcome.meta}, indent=2))
    if not outcome.valid:
        print(f"error: invalid run: the load generator lagged its schedule "
              f"(p99 {outcome.meta['send_lag_p99_ms']:.1f} ms > "
              f"{table.max_send_lag_ms} ms)", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
