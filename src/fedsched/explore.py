"""Speed-threshold experiments.

How much faster must the processors be before a federated allocator can
fit a task set that an unrestricted scheduler handles at unit speed?
This module searches that threshold for the adversarial family, sweeps it
across parameter grids against the analytic bound, and provides a
brute-force oracle that decides small instances exactly by enumerating
every federated configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .feasibility import (
    Item,
    partition_by_subtask_index,
    partitioned_feasible,
    uniprocessor_edf_feasible,
)
from .federated import (
    Infeasible,
    allocate_federated,
    speedup_lower_bound,
    total_demand_lower_bound,
)
from .generate import CounterexampleParams, build_counterexample
from .model import DagTask, Platform, TaskSet
from .simulate import simulate_list_schedule, simulate_partitioned_edf


@dataclass(frozen=True)
class SpeedupRow:
    """One sweep result.

    min_speed_lo / min_speed_hi bracket the federated allocator's
    threshold speed: the allocator was verified infeasible at a point
    within the bracket width below min_speed_hi and feasible at
    min_speed_hi itself.  demand_at_probe is the processor demand lower
    bound sampled at 999/1000 of the analytic bound (every task is heavy
    there).  optimal_feasible_at_1 records that the instance really is
    schedulable on its platform at unit speed, by analysis and by
    simulation.
    """

    processors: int
    n_tasks: int
    ratio: Fraction
    speedup_bound: Fraction
    min_speed_lo: Fraction
    min_speed_hi: Fraction
    demand_at_probe: int
    optimal_feasible_at_1: bool

    @property
    def min_feasible_speed(self) -> Fraction:
        """The certified-feasible end of the bracket."""
        return self.min_speed_hi


def _federated_feasible(ts: TaskSet, processors: int, speed: Fraction) -> bool:
    return not isinstance(
        allocate_federated(ts, Platform(processors, speed)), Infeasible
    )


def min_feasible_speed_federated(
    ts: TaskSet,
    processors: int,
    lo: Fraction,
    hi: Fraction,
    precision: Fraction,
) -> Fraction:
    """Binary-search the least speed at which the federated allocator fits
    ``ts`` on ``processors`` processors.

    Requires a valid bracket: infeasible at ``lo``, feasible at ``hi``
    (both are checked).  Halves the interval until it is no wider than
    ``precision`` and returns the feasible end; the returned value is
    certified feasible, and some speed less than ``precision`` below it
    is certified infeasible.
    """
    lo, hi, precision = Fraction(lo), Fraction(hi), Fraction(precision)
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if lo >= hi:
        raise ValueError(f"bracket is empty: lo={lo} >= hi={hi}")
    if _federated_feasible(ts, processors, lo):
        raise ValueError(f"bracket invalid: allocation already feasible at lo={lo}")
    if not _federated_feasible(ts, processors, hi):
        raise ValueError(f"bracket invalid: allocation still infeasible at hi={hi}")
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if _federated_feasible(ts, processors, mid):
            hi = mid
        else:
            lo = mid
    return hi


def speedup_sweep(
    grid: list[CounterexampleParams], precision: Fraction
) -> list[SpeedupRow]:
    """Evaluate the adversarial family across a parameter grid.

    For each instance: confirm unit-speed feasibility on its own platform
    (demand analysis plus a simulated schedule with zero misses), compute
    the analytic bound, and bracket the allocator's threshold speed by
    binary search between 1 (always infeasible: the first task's critical
    path fills its whole deadline) and the platform size (always feasible:
    every task is light and they pack onto one shared processor).

    Raises RuntimeError if any bracket lands below the analytic bound:
    the bound is proven, so that would mean a bug in this package.
    """
    precision = Fraction(precision)
    rows: list[SpeedupRow] = []
    for params in grid:
        ts = build_counterexample(params)
        m = params.processors
        pa = partition_by_subtask_index(ts, m)
        unit = Platform(m, Fraction(1))
        feasible_at_1 = partitioned_feasible(ts, pa, unit)
        if feasible_at_1:
            trace = simulate_partitioned_edf(ts, pa, unit)
            feasible_at_1 = not trace.misses
        bound = speedup_lower_bound(m, params.n_tasks, params.ratio)
        probe = bound * Fraction(999, 1000)
        demand = total_demand_lower_bound(ts, probe)
        threshold = min_feasible_speed_federated(
            ts, m, Fraction(1), Fraction(m), precision
        )
        if threshold < bound - precision:
            raise RuntimeError(
                f"sweep self-check failed on (M={m}, N={params.n_tasks}, "
                f"K={params.ratio}): threshold {threshold} fell below the "
                f"proven bound {bound}"
            )
        rows.append(
            SpeedupRow(
                processors=m,
                n_tasks=params.n_tasks,
                ratio=params.ratio,
                speedup_bound=bound,
                min_speed_lo=threshold - precision,
                min_speed_hi=threshold,
                demand_at_probe=demand,
                optimal_feasible_at_1=feasible_at_1,
            )
        )
    return rows


def brute_force_federated_oracle(ts: TaskSet, plat: Platform) -> bool:
    """Decide exactly whether ANY federated configuration fits ``ts`` on
    the platform, by exhaustive enumeration.

    Every task either receives an exclusive cluster of some size (judged
    by greedy-schedule makespan against its deadline, the same scheduling
    model the allocator's sizing rule guarantees for) or runs sequentially
    on a shared processor; shared processors are judged by the exact
    demand test over all partitions of the shared tasks.  Exponential, so
    capped at 5 tasks and 4 processors.
    """
    if len(ts) > 5:
        raise ValueError(f"oracle is capped at 5 tasks, got {len(ts)}")
    if plat.processors > 4:
        raise ValueError(f"oracle is capped at 4 processors, got {plat.processors}")
    speed = plat.speed
    tasks = list(ts.tasks)
    total = plat.processors
    by_id = {t.id: t for t in tasks}

    cluster_cache: dict[tuple[int, int], bool] = {}

    def cluster_ok(task: DagTask, size: int) -> bool:
        key = (task.id, size)
        if key not in cluster_cache:
            trace = simulate_list_schedule(task, size, speed)
            cluster_cache[key] = trace.makespan <= task.deadline
        return cluster_cache[key]

    group_cache: dict[frozenset[int], bool] = {}

    def group_ok(ids: frozenset[int]) -> bool:
        if ids not in group_cache:
            items = [Item.of_task(by_id[i]) for i in sorted(ids)]
            group_cache[ids] = uniprocessor_edf_feasible(items, speed)
        return group_cache[ids]

    def pack(shared: list[int], groups: list[set[int]], budget: int) -> bool:
        # place each shared task into an existing group or open a new one;
        # this walks every partition of the shared tasks into <= budget parts
        if not shared:
            return True
        head, rest = shared[0], shared[1:]
        for group in groups:
            if group_ok(frozenset(group | {head})):
                group.add(head)
                if pack(rest, groups, budget):
                    return True
                group.discard(head)
        if len(groups) < budget and group_ok(frozenset({head})):
            groups.append({head})
            if pack(rest, groups, budget):
                return True
            groups.pop()
        return False

    def choose(idx: int, used: int, shared: list[int]) -> bool:
        if idx == len(tasks):
            if not shared:
                return True
            return pack(shared, [], total - used)
        task = tasks[idx]
        if choose(idx + 1, used, shared + [task.id]):
            return True
        for size in range(1, total - used + 1):
            if cluster_ok(task, size):
                if choose(idx + 1, used + size, shared):
                    return True
                # a larger cluster only spends more budget on the same task,
                # so once the smallest workable size fails downstream, stop
                break
        return False

    return choose(0, 0, [])
