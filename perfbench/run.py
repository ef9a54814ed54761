#!/usr/bin/env python3
"""Run one fedsched benchmark workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload family --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Set-up (a cold import of fedsched plus writing the workload's
inputs) is repeated ``SETUP_REPEATS`` times.  Then whole passes run, one
process and one thread, each operation starting after the previous one
returns, until the next pass would end past ``--seconds``.

``--trace 0`` runs plain passes and reports the end-to-end metrics;
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics, including the tracing overhead against the plain passes.  Plain
passes also read a host-speed gauge (see ``Gauge``), and ``wall_ref`` is
their pass time in units of it.  The
metric names and units are the ones BENCHMARK.json lists.  Every line but
the last is a human-readable report; the last is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status: 0 when every
output check passed, 1 when any failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# seconds between two readings of the host-speed gauge
GAUGE_INTERVAL_S = 0.1
# end-to-end figures printed in the report beside BENCHMARK.json's metrics;
# each exists on some workloads only, or is zero on a correct program
REPORT_ONLY = {
    "wall_s": "s", "sweep_s": "s", "analyze_s": "s", "federate_s": "s", "simulate_s": "s",
    "decisions_per_s": "1/s", "cpu_s": "s", "failed_frac": "ratio",
}


class PassResult(NamedTuple):
    traced: bool
    wall: float  # summed time of the pass's operations
    cpu: float
    by_kind: dict
    attempted: int
    failed: int
    problems: list
    layers: dict | None
    gauges: list  # host-speed gauge readings (plain passes only)


class Gauge:
    """Host-speed readings taken all through a pass.

    Shared hosts swing in speed by over 1.5x for seconds at a time.  While
    the gauge runs, a wall-clock interval timer interrupts the pass every
    ``GAUGE_INTERVAL_S`` and times one fixed pure-Python computation that
    shares no code with fedsched (exact rationals, a dict, a sort).  It
    slows and speeds up with the host, so pass time over gauge time does
    not.  ``spent`` is the time the readings took, which the caller takes
    out of the operation they interrupted.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0

    def _read(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 300):
            f = Fraction(i, 7) + Fraction(3, i)
            if f > acc:
                acc = f - acc
            table[i % 97] = f
        sorted(table.values())
        taken = time.perf_counter() - t0
        self.readings.append(taken)
        self.spent += taken

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(ops: list, tracer: tracing.Tracer | None) -> PassResult:
    """Run every operation once, timing each call and checking its result.

    A failed check or an exception marks the operation failed; the pass
    carries on.  A plain pass runs the gauge; a traced one does not, so
    no reading lands inside a span.
    """
    gc.collect()
    by_kind: dict = defaultdict(float)
    wall = cpu = 0.0
    attempted = failed = 0
    problems: list = []
    gauge = Gauge()
    with gauge if tracer is None else contextlib.nullcontext():
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            error = None
            spent0, cpu0, t0 = gauge.spent, time.process_time(), time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation, reported below
                error = exc
            t1, cpu1 = time.perf_counter(), time.process_time()
            spent = gauge.spent - spent0
            wall += t1 - t0 - spent
            cpu += cpu1 - cpu0 - spent
            by_kind[op.kind] += t1 - t0 - spent
            attempted += op.size
            if error is not None:
                failed += op.size
                problems.append(f"{op.kind}: raised {error!r}")
                continue
            try:
                found = op.check(result)
            except Exception as exc:  # an unreadable result fails its check
                found = [f"check raised {exc!r}"]
            failed += min(op.size, len(found))
            problems.extend(f"{op.kind}: {msg}" for msg in found)
    layers = tracer.metrics() if tracer is not None else None
    return PassResult(tracer is not None, wall, cpu, dict(by_kind), attempted,
                      failed, problems, layers, gauge.readings)


def run_passes(ops: list, fs, seconds: float, trace: bool) -> tuple[list, tracing.Tracer]:
    """Run whole passes until the next one would end past ``seconds``.

    With ``trace`` the passes alternate plain and traced, at least one of
    each.  A plain pass refuses to start while any wrapper is installed.
    """
    tracer = tracing.Tracer()
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace and len(passes) % 2 == 1:
            tracer.reset()
            tracer.install(fs)
            try:
                passes.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
        else:
            if not tracing.is_untraced():
                raise workloads.BenchError("a tracing wrapper is still installed")
            passes.append(run_pass(ops, None))
        now = time.perf_counter()
        enough = not trace or len(passes) >= 2
        if enough and (now - start) + (now - t0) > seconds:
            return passes, tracer


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(passes: list, setup: list) -> dict:
    plain = [p for p in passes if not p.traced]
    med = statistics.median
    gauges = [g for p in plain for g in p.gauges]
    out = {
        "setup_s": med(setup),
        # a ratio of means: both sample the same mix of fast and slow host time
        "wall_ref": statistics.mean(p.wall for p in plain) / statistics.mean(gauges),
        "wall_s": med(p.wall for p in plain),
        "cpu_s": med(p.cpu for p in plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for kind in ("sweep", "analyze", "federate", "simulate"):
        if kind in plain[0].by_kind:
            out[f"{kind}_s"] = med(p.by_kind[kind] for p in plain)
    if "decisions" in plain[0].by_kind:
        out["decisions_per_s"] = med(p.attempted / p.by_kind["decisions"] for p in plain)
    attempted = sum(p.attempted for p in passes)
    out["failed_frac"] = sum(p.failed for p in passes) / attempted
    return out


def per_layer(passes: list) -> dict:
    traced = [p.layers for p in passes if p.traced]
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    plain = statistics.median(p.wall for p in passes if not p.traced)
    out["trace.overhead_frac"] = statistics.median(p.wall for p in passes if p.traced) / plain - 1
    return out


def report(args, setup: list, passes: list, figures: dict, spec: list, loads: tuple) -> None:
    print(f"fedsched benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    start, end = (" ".join(f"{x:.2f}" for x in load) for load in loads)
    print(f"python {platform.python_version()} on {platform.machine()}, "
          f"nproc {os.cpu_count()}, load average {start} at start and {end} "
          f"at end, commit {git_commit(ROOT)}")
    print("setup_s runs: " + " ".join(f"{s:.4f}" for s in setup))
    for i, p in enumerate(passes):
        kinds = " ".join(f"{k}={v:.4f}" for k, v in p.by_kind.items())
        reading = f"{1000 * statistics.mean(p.gauges):.4f}" if p.gauges else "-"
        print(f"pass {i} {'traced' if p.traced else 'plain '} wall_s={p.wall:.4f} "
              f"cpu_s={p.cpu:.4f} gauge_ms={reading} {kinds} "
              f"failed={p.failed}/{p.attempted}")
    for p in passes:
        for msg in p.problems[:10]:
            print(f"FAILED {msg}")
    units = {m["name"]: m["unit"] for m in spec}
    if not args.trace:
        units.update(REPORT_ONLY)
    for name, unit in units.items():
        value = figures.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one fedsched benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        spec = bench["per_layer" if args.trace else "end_to_end"]
        load_start = os.getloadavg()
        # private to this process, so concurrent runs cannot clobber it
        inputs = WORKDIR / f"inputs-{os.getpid()}"
        try:
            setup, ops, fs = [], [], None
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(inputs, ignore_errors=True)
                inputs.mkdir(parents=True)
                t0 = time.perf_counter()
                fs = workloads.import_fedsched(ROOT)
                ops = workloads.WORKLOADS[args.workload](fs, inputs, args.seed)
                setup.append(time.perf_counter() - t0)
            passes, tracer = run_passes(ops, fs, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        if args.trace:
            figures = per_layer(passes)
            tracer.write_spans(WORKDIR / f"spans-{args.workload}.csv")
        else:
            figures = end_to_end(passes, setup)
        missing = [m["name"] for m in spec if m["name"] not in figures]
        if missing:
            raise workloads.BenchError(f"metrics not measured: {missing}")
    except (workloads.BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, setup, passes, figures, spec, (load_start, os.getloadavg()))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
