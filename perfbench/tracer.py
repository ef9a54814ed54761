"""Per-layer tracing from outside the program.

Each layer's public functions are wrapped in every fedsched module that
binds them (the defining module and each ``from ... import`` site), so a
call is seen whichever module makes it.  A wrapper records one span: the
metric it counts towards, its parent span, the operation it belongs to,
and its start and end.  A span's self time is its duration minus that of
its child spans, so the self times of a pass add up to the time spent
inside its root spans.  Counters are taken from return values at the same
boundaries.  Nothing under ``src/`` is touched; ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter
from pathlib import Path

# (defining module, function, the per-layer metric its self time counts towards)
TARGETS = (
    ("cli", "main", "cli.self"),
    ("taskio", "read_task_set", "taskio.load"),
    ("taskio", "load_task_set", "taskio.load"),
    ("model", "validate_task_set", "model.validate"),
    ("model", "work", "model.work"),
    ("model", "span", "model.span"),
    ("generate", "build_counterexample", "generate.build"),
    ("feasibility", "demand_profile", "feasibility.profile"),
    ("feasibility", "uniprocessor_edf_feasible", "feasibility.edf_test"),
    ("feasibility", "partitioned_feasible", "feasibility.partitioned"),
    ("feasibility", "partition_by_subtask_index", "feasibility.partitioned"),
    ("feasibility", "processor_items", "feasibility.partitioned"),
    ("federated", "allocate_federated", "federated.allocate"),
    ("explore", "speedup_sweep", "explore.threshold"),
    ("explore", "min_feasible_speed_federated", "explore.threshold"),
    ("explore", "brute_force_federated_oracle", "explore.oracle"),
    ("simulate", "simulate_partitioned_edf", "simulate.edf"),
    ("simulate", "simulate_list_schedule", "simulate.list"),
)
SELF_TIMES = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))
CALL_COUNTS = (
    "model.work", "model.span", "feasibility.profile", "feasibility.edf_test",
    "federated.allocate", "explore.oracle", "simulate.edf", "simulate.list",
)
MARK = "_perfbench_traced"


def _count_points(counts: Counter, profile) -> None:
    counts["feasibility.profile.points"] += len(profile.breakpoints)


def _count_intervals(counts: Counter, trace) -> None:
    counts["simulate.edf.intervals"] += len(trace.intervals)


def _count_first_fit(counts: Counter, accepted: bool) -> None:
    counts["federated.firstfit.tests"] += 1
    counts["federated.firstfit.accepted"] += bool(accepted)


def _count_probe(counts: Counter, _result) -> None:
    counts["explore.threshold.probes"] += 1


# (binding module, function) -> counter fed from the return value there:
# first-fit tests are the demand tests the allocator runs, threshold
# probes the allocator calls the threshold search makes
SITE_COUNTERS = {
    ("federated", "uniprocessor_edf_feasible"): _count_first_fit,
    ("explore", "allocate_federated"): _count_probe,
}
RESULT_COUNTERS = {
    "demand_profile": _count_points,
    "simulate_partitioned_edf": _count_intervals,
}


def fedsched_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == "fedsched" or name.startswith("fedsched.")
    ]


def is_untraced() -> bool:
    """True when no fedsched module holds a tracing wrapper."""
    return not any(
        getattr(value, MARK, False)
        for mod in fedsched_modules() for value in vars(mod).values()
    )


class Tracer:
    """Spans and counters of the passes run between install and uninstall."""

    def __init__(self) -> None:
        # span: (op, parent index or -1, metric, start ns, end ns)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._patched: list[tuple] = []

    def install(self, fs) -> None:
        modules = fedsched_modules()
        for home, name, metric in TARGETS:
            fn = getattr(getattr(fs, home), name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        site = mod.__name__.rpartition(".")[2]
                        hooks = [h for h in (RESULT_COUNTERS.get(name),
                                             SITE_COUNTERS.get((site, name))) if h]
                        setattr(mod, attr, self._wrap(fn, metric, hooks))
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def _wrap(self, fn, metric: str, hooks: list):
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.op, parent, metric, start, end)
            for hook in hooks:
                hook(tracer.counts, result)
            return result

        setattr(traced, MARK, True)
        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset."""
        self_ns = [end - start for _, _, _, start, end in self.spans]
        for op, parent, metric, start, end in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        per_metric: Counter = Counter()
        calls: Counter = Counter()
        for span, own in zip(self.spans, self_ns):
            per_metric[span[2]] += own
            calls[span[2]] += 1
        out = {f"{metric}_s": per_metric[metric] / 1e9 for metric in SELF_TIMES}
        out.update({f"{metric}.calls": calls[metric] for metric in CALL_COUNTS})
        c = self.counts
        out["feasibility.profile.points"] = c["feasibility.profile.points"]
        out["simulate.edf.intervals"] = c["simulate.edf.intervals"]
        out["explore.threshold.probes"] = c["explore.threshold.probes"]
        tests = c["federated.firstfit.tests"]
        out["federated.firstfit.accept_ratio"] = (
            c["federated.firstfit.accepted"] / tests if tests else 0.0
        )
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as CSV; ``id`` is the span's index."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "op", "parent", "name", "start_ns", "end_ns"])
            for index, (op, parent, metric, start, end) in enumerate(self.spans):
                out.writerow([index, op, parent, metric, start, end])
