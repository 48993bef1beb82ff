"""Measurement of one benchmark run: operations, timings, checks, metrics.

Import this only after run.import_ginvlab() has put the checkout's src/
first on sys.path.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from ginvlab import cli, fixture, theoremlab

import tracing
import verify
from workloads import query_block, spec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Each set-up is a fresh interpreter; the median of these many is reported.
SETUP_REPEATS = 5
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from ginvlab import cli
for spec in sys.argv[2:]:
    cli.load_ring(spec).idx_mul(0, 0)  # builds op tables up to TABLE_CAP
"""
SUITE_RINGS = ("example10", "m2gf5", "z1155", "z5005", "gf2t13")


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_frac", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Bench:
    """The operations of one run, their timings, and the failures found."""

    def __init__(self, workload, seed: int):
        self.expected = verify.load_expected()
        # reference rings for the checks and for drawing query elements
        self.rings = {r: cli.load_ring(spec(r)) for r in workload.rings()}
        for ring in self.rings.values():
            fixture.is_example_ring(ring)  # fills its one-off canonical copy
        self.ops = ([("suite", r) for r in workload.suite]
                    + [("query", q) for q in query_block(workload, seed, self.rings)])
        self.times = [[] for _ in self.ops]
        self.first_output = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, i: int):
        """Run operation i; its time goes to self.times[i].  None on error."""
        kind, item = self.ops[i]
        try:
            if kind == "suite":
                ring = cli.load_ring(spec(item))
                ring.idx_mul(0, 0)  # op tables are set-up, not suite time
                start = time.perf_counter()
                out = theoremlab.run_suite(ring)
                elapsed = time.perf_counter() - start
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    rc = cli.main(list(item.argv))
                    elapsed = time.perf_counter() - start
                out = (rc, buf.getvalue())
        except Exception:
            traceback.print_exc()
            self._count(i, ["raised"])
            return None
        self.times[i].append(elapsed)
        return out

    def check(self, i: int, out):
        kind, item = self.ops[i]
        try:
            if kind == "suite":
                problems = verify.check_suite(item, out, self.expected)
            elif i in self.first_output:
                problems = ([] if out == self.first_output[i]
                            else ["output differs from its first run"])
            else:
                problems = verify.check_query(item, *out, self.rings, self.expected)
                self.first_output[i] = out
        except Exception:
            traceback.print_exc()
            problems = ["check raised"]
        self._count(i, problems)

    def _count(self, i: int, problems: list):
        """A suite counts each of its checks; a query counts once."""
        kind, item = self.ops[i]
        label = item if kind == "suite" else item.label
        for problem in problems:
            print(f"FAILED {label}: {problem}", file=sys.stderr)
        if kind == "suite":
            self.attempted += len(theoremlab.CHECK_NAMES)
            self.failed += min(len(problems), len(theoremlab.CHECK_NAMES))
        else:
            self.attempted += 1
            self.failed += bool(problems)

    def one_pass(self) -> list:
        """Each operation once, checked; returns this pass's times."""
        for i in range(len(self.ops)):
            out = self.execute(i)
            if out is not None:
                self.check(i, out)
        return [t[-1] if t else math.nan for t in self.times]

    def measure(self, seconds: float):
        """Round-robin over the operations: one full pass, then more while
        the next operation is expected to finish before `seconds` is up."""
        deadline = time.perf_counter() + seconds
        cost = [0.0] * len(self.ops)
        k = 0
        while k < len(self.ops) or time.perf_counter() + cost[k % len(self.ops)] <= deadline:
            i = k % len(self.ops)
            start = time.perf_counter()
            out = self.execute(i)
            if out is not None:
                self.check(i, out)
            cost[i] = time.perf_counter() - start
            k += 1

    def medians(self) -> list:
        """Each operation's median time; NaN for one that never completed."""
        return [statistics.median(t) if t else math.nan for t in self.times]

    def named_times(self, times) -> dict:
        """suite.<ring>_s and query percentiles from one time per operation."""
        out, queries = {}, []
        for (kind, item), t in zip(self.ops, times):
            if kind == "suite":
                out[f"suite.{item}_s"] = t
            else:
                queries.append(t * 1000.0)
        if queries:
            out["query_p50_ms"] = nearest_rank(queries, 0.5)
            out["query_p90_ms"] = nearest_rank(queries, 0.9)
        return out


def measure_setup(workload) -> float:
    """Median wall time of fresh interpreters that import ginvlab, load
    every ring of the workload and build its op tables."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC),
            *(spec(r) for r in workload.rings())]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def end_to_end(bench: Bench, workload, seconds: float) -> dict:
    setup_s = measure_setup(workload)
    bench.measure(seconds)
    medians = bench.medians()
    done = [t for t in medians if not math.isnan(t)]
    metrics = {
        "setup_s": setup_s,
        "run_s": sum(done),
        "op_p50_ms": nearest_rank(done, 0.5) * 1000.0,
        "op_p90_ms": nearest_rank(done, 0.9) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = bench.named_times(medians)
    extra["samples"] = sum(len(t) for t in bench.times)
    return metrics, extra


def per_layer(bench: Bench, workload, seed: int) -> dict:
    untraced = bench.one_pass()
    # rings and queries a workload does not run read 0
    metrics = {f"suite.{r}_s": 0.0 for r in SUITE_RINGS}
    metrics.update(query_p50_ms=0.0, query_p90_ms=0.0)
    metrics.update(bench.named_times(untraced))

    # each check alone, on a ring whose op tables are already built
    isolated = dict.fromkeys(theoremlab.CHECK_NAMES, 0.0)
    for ring_name in workload.suite:
        for name in theoremlab.CHECK_NAMES:
            ring = cli.load_ring(spec(ring_name))
            ring.idx_mul(0, 0)
            start = time.perf_counter()
            verdict = getattr(theoremlab, f"check_{name}")(ring)
            isolated[name] += time.perf_counter() - start
            problems = verify.check_verdict(ring_name, verdict, bench.expected)
            for problem in problems:
                print(f"FAILED alone: {problem}", file=sys.stderr)
            bench.attempted += 1
            bench.failed += bool(problems)
    for name, t in isolated.items():
        metrics[f"theoremlab.check.{name}_s"] = t
    suite_total = sum(t for (kind, _), t in zip(bench.ops, untraced) if kind == "suite")
    metrics["theoremlab.cache_saving_s"] = sum(isolated.values()) - suite_total

    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = [bench.execute(i) for i in range(len(bench.ops))]
    finally:
        tracer.uninstall()
    for i, out in enumerate(outs):
        if out is not None:
            bench.check(i, out)
    traced = sum(t[-1] for t in bench.times if t)
    metrics["trace.overhead_frac"] = traced / sum(untraced) - 1.0
    metrics.update(tracing.layer_metrics(tracer))
    tracer.save(OUT / f"trace-{workload.name}-seed{seed}.npz")
    return metrics
