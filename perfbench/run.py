#!/usr/bin/env python3
"""The clir benchmark.

    python3 perfbench/run.py --workload {search,search2,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/`` next to this
directory, and scratch files go under ``.perfbench/`` at the checkout root.
The seed alone decides the generated inputs. The run prints a readable report,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and every metric.
"""

import argparse
import json
import logging
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1


def _import_program():
    package = SRC / "clir" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: program source not found: {package}")
    sys.path.insert(0, str(SRC))
    import clir

    if Path(clir.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported clir from {clir.__file__}, not from {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark clir on one seeded workload.")
    parser.add_argument("--workload", required=True, choices=("search", "search2", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed passes run (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        import bench

        run = bench.Bench(args, work)
        metrics, attempted, failed, units = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in run.lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name:36} {value:>16.6g} {units[name]}")
    print(f"run: {time.perf_counter() - started:.1f} s in total")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
