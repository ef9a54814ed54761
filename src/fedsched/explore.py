"""Speed-threshold experiments.

How much faster must the processors be before a federated allocator can
fit a task set that an unrestricted scheduler handles at unit speed?
This module computes that threshold exactly, sweeps it for the
adversarial family against the analytic bound, and provides a
brute-force oracle that decides small instances exactly by enumerating
every federated configuration.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .feasibility import (
    _first_violation,
    partition_by_subtask_index,
    partitioned_feasible,
)
from .federated import (
    Infeasible,
    _cluster_size,
    _size_ratio,
    allocate_federated,
    speedup_lower_bound,
    total_demand_lower_bound,
)
from .generate import CounterexampleParams, build_counterexample
from .model import Platform, TaskSet, validate_task_set
from .simulate import _simulate_ticks, _unit_makespan


@dataclass(frozen=True)
class SpeedupRow:
    """One sweep result.

    min_speed is the federated allocator's exact threshold: the least
    speed at which it fits the instance on its platform.
    demand_at_probe is the processor demand lower bound sampled at
    999/1000 of the analytic bound (every task is heavy there).
    optimal_feasible_at_1 records that the instance really is schedulable
    on its platform at unit speed, by analysis and by simulation.
    """

    processors: int
    n_tasks: int
    ratio: Fraction
    speedup_bound: Fraction
    min_speed: Fraction
    demand_at_probe: int
    optimal_feasible_at_1: bool


def min_feasible_speed_federated(ts: TaskSet, processors: int) -> Fraction:
    """The least speed at which the federated allocator fits ``ts`` on
    ``processors`` processors, exactly.

    The allocator is not monotone in speed (first-fit can fail above a
    speed where it fits), but each Infeasible verdict certifies that no
    speed from the tried one up to its retry_speed fits.  The walk starts
    at the least speed at which the heavy clusters alone fit (their summed
    sizes only fall as the speed rises) and follows retry_speed until a
    call succeeds.  Raises ValueError for an empty or invalid task set.
    """
    if not ts.tasks or processors < 1 or validate_task_set(ts):
        raise ValueError("needs a valid, nonempty task set and a processor")

    # (work, span, deadline) of each task in ticks; heavy at p/q iff q*w > p*d
    times = list(zip(ts._ticks.work, ts._ticks.span, ts._ticks.deadline))

    def clusters_fit(speed: Fraction) -> bool:
        p, q = speed.numerator, speed.denominator
        sizes = [_cluster_size(w, s, d, p, q) for w, s, d in times if q * w > p * d]
        return None not in sizes and sum(sizes) <= processors

    # below `low` some task alone overfills the platform; above it a cluster
    # drops to k at the ratio _size_ratio gives for k, to none at k = 1
    # (work/deadline)
    low = max(Fraction(*_size_ratio(w, s, d, processors)) for w, s, d in times)
    p, q = low.numerator, low.denominator
    drops = {low}
    drops.update(
        Fraction(*_size_ratio(w, s, d, k))
        for w, s, d in times
        if q * w > p * d
        for k in range(1, _cluster_size(w, s, d, p, q))
    )
    drops = sorted(drops)
    speed = drops[bisect_left(drops, True, key=clusters_fit)]
    while True:
        result = allocate_federated(ts, Platform(processors, speed))
        if not isinstance(result, Infeasible):
            return speed
        if result.retry_speed is None:
            raise ValueError(f"no speed from {speed} on fits: {result.reason}")
        speed = result.retry_speed


def speedup_sweep(grid: list[CounterexampleParams]) -> list[SpeedupRow]:
    """Evaluate the adversarial family across a parameter grid.

    For each instance: confirm unit-speed feasibility on its own platform
    (demand analysis plus a simulated schedule with zero misses), compute
    the analytic bound, and find the allocator's exact threshold speed.

    Raises RuntimeError if a threshold lies below the analytic bound:
    the bound is proven, so that would mean a bug in this package.
    """
    rows: list[SpeedupRow] = []
    for params in grid:
        ts = build_counterexample(params)
        m = params.processors
        pa = partition_by_subtask_index(ts, m)
        unit = Platform(m, Fraction(1))
        feasible_at_1 = partitioned_feasible(ts, pa, unit)
        if feasible_at_1:
            _, _, _, missed = _simulate_ticks(ts, pa, unit, None)
            feasible_at_1 = not missed
        bound = speedup_lower_bound(m, params.n_tasks, params.ratio)
        probe = bound * Fraction(999, 1000)
        demand = total_demand_lower_bound(ts, probe)
        threshold = min_feasible_speed_federated(ts, m)
        if threshold < bound:
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
                min_speed=threshold,
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
    p, q = plat.speed.numerator, plat.speed.denominator
    ticks = ts._ticks
    n, total = len(ts.tasks), plat.processors

    def cluster_ok(index: int, size: int) -> bool:
        # the list schedule at speed p/q is the unit-speed one with every
        # instant times q/p
        return q * _unit_makespan(ts, index, size) <= p * ticks.deadline[index]

    # a group of shared tasks is a bitmask of their indices; its items are
    # listed in index order
    group_cache: dict[int, bool] = {}

    def group_ok(mask: int) -> bool:
        ok = group_cache.get(mask)
        if ok is None:
            items = [item for i, item in enumerate(ticks.items) if mask >> i & 1]
            ok = group_cache[mask] = _first_violation(items, p, q, ticks.scale) is None
        return ok

    shared: list[int] = []  # indices of the tasks choose puts on shared processors
    groups: list[int] = []  # the groups pack has opened, in creation order

    def pack(k: int, budget: int) -> bool:
        # place each shared task into an existing group or open a new one;
        # this walks every partition of the shared tasks into <= budget parts
        if k == len(shared):
            return True
        bit = 1 << shared[k]
        for g, mask in enumerate(groups):
            if group_ok(mask | bit):
                groups[g] = mask | bit
                if pack(k + 1, budget):
                    return True
                groups[g] = mask
        if len(groups) < budget and group_ok(bit):
            groups.append(bit)
            if pack(k + 1, budget):
                return True
            groups.pop()
        return False

    def choose(idx: int, used: int) -> bool:
        if idx == n:
            return pack(0, total - used)
        shared.append(idx)
        if choose(idx + 1, used):
            return True
        shared.pop()
        for size in range(1, total - used + 1):
            if cluster_ok(idx, size):
                if choose(idx + 1, used + size):
                    return True
                # a larger cluster only spends more budget on the same task,
                # so once the smallest workable size fails downstream, stop
                break
        return False

    return choose(0, 0)
