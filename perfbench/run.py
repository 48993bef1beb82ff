#!/usr/bin/env python3
"""The ginvlab benchmark.

    python3 perfbench/run.py --workload suite-exhaustive --seed 1 --seconds 30 --trace 0

Workloads are suite-exhaustive, suite-sampled and inv-queries (see
BENCHMARK.json and perfbench/README.md), plus smoke, which runs the same
code paths on Z/30 and M_2(GF(3)) for the benchmark's own tests.  Every
output is checked; failures go to stderr and count in `failed`.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1 it holds the per-layer metrics of one
untraced and one traced pass of the workload, and the traced pass's spans
are written to perfbench/out/.  The lines before it give every metric,
and a few more, by name and unit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_ginvlab():
    """Import ginvlab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ginvlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ginvlab from {SRC}: {exc}")
    if Path(ginvlab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: ginvlab came from {ginvlab.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_ginvlab()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    bench = harness.Bench(workload, args.seed)
    if args.trace:
        metrics, extra = harness.per_layer(bench, workload, args.seed), {}
    else:
        metrics, extra = harness.end_to_end(bench, workload, args.seconds)
    # failed_frac is 0 on a correct run, so it cannot be an end-to-end metric
    (metrics if args.trace else extra)["failed_frac"] = \
        bench.failed / max(1, bench.attempted)

    for name, value in {**metrics, **extra}.items():
        print(f"{name} = {value} {harness.unit_of(name)}")
    result = {"correct": bench.failed == 0 and bench.attempted > 0,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": value, "unit": harness.unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
