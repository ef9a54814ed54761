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
    _demand_table,
    _first_violation,
    _groups_feasible,
    _partition,
    partition_by_subtask_index,
)
from .federated import (
    Infeasible,
    _cluster_size,
    _demand_bound,
    _size_ratio,
    allocate_federated,
    speedup_lower_bound,
)
from .generate import CounterexampleParams, build_counterexample
from .model import Platform, TaskSet, _is_int, validate_task_set
from .simulate import _list_schedule, _simulate_ticks

# the brute-force oracle's caps; a need of _OVER_CAP stands for any above
_MAX_TASKS = 5
_MAX_PROCESSORS = 4
_OVER_CAP = _MAX_PROCESSORS + 1


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
    call succeeds.  Raises ValueError for an empty or invalid task set,
    and for a processor count that is not a positive integer.
    """
    if not _is_int(processors) or processors < 1:
        raise ValueError(f"processors must be a positive integer, got {processors!r}")
    if not ts.tasks or validate_task_set(ts):
        raise ValueError("needs a valid, nonempty task set")

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

    ``demand_at_probe`` certifies that no federated configuration fits
    at the probe s = 999/1000 of the bound: every task is heavy there, so
    the summed demand bound is at least sum of w_i/(D_i*s) = M*(N - (N-1)/K)/s,
    which exceeds M because s < bound <= N - (N-1)/K.

    Raises RuntimeError if a threshold lies below the analytic bound, or
    a task is light at the probe, or the demand there is at most M: each
    is proven not to happen, so it would mean a bug in this package.
    """
    rows: list[SpeedupRow] = []
    for params in grid:
        ts = build_counterexample(params)
        m = params.processors
        unit = Platform(m, Fraction(1))
        groups = _partition(ts, partition_by_subtask_index(ts, m), unit)
        feasible_at_1 = _groups_feasible(ts, groups, unit)
        if feasible_at_1:
            _, _, _, missed = _simulate_ticks(ts, groups, unit, None)
            feasible_at_1 = not missed
        bound = speedup_lower_bound(m, params.n_tasks, params.ratio)
        probe = bound * Fraction(999, 1000)
        p, q = probe.numerator, probe.denominator
        times = list(zip(ts._ticks.work, ts._ticks.deadline))
        if not all(0 < d and p * d < q * w for w, d in times):
            raise RuntimeError(
                f"sweep self-check failed on (M={m}, N={params.n_tasks}, "
                f"K={params.ratio}): a task is not heavy at the probe {probe}"
            )
        demand = sum(_demand_bound(w, d, p, q) for w, d in times)
        if demand <= m:
            raise RuntimeError(
                f"sweep self-check failed on (M={m}, N={params.n_tasks}, "
                f"K={params.ratio}): demand {demand} at the probe {probe} "
                f"does not exceed {m} processors"
            )
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

    The answer is need <= processors, where ``need`` is the fewest
    processors any configuration needs at the speed (see
    :func:`_fewest_processors`).  That is exact only on the oracle's
    domain, the constrained-deadline sets; any other set is refused with
    a ValueError that names its first task outside the domain and why
    (see :func:`_refusal`).

    The tick view's oracle fields, which only this module writes, keep
    what each call learns: ``refusal`` on the first call; ``needs``, each
    (p, q, need) of an all one-shot set, so that a kept speed <= this one
    whose need fits, or one >= it whose need does not, decides the call
    (``need`` never rises with the speed; a recurring group's scan may
    reach the step limit at one speed and not another, so a set with a
    recurring task keeps none); ``groups`` and ``makespans``, see
    :func:`_group_passes` and :func:`_unit_makespan`.
    """
    p, q, m = plat.speed.numerator, plat.speed.denominator, plat.processors
    if len(ts) > _MAX_TASKS:
        raise ValueError(f"oracle is capped at {_MAX_TASKS} tasks, got {len(ts)}")
    if m > _MAX_PROCESSORS:
        raise ValueError(f"oracle is capped at {_MAX_PROCESSORS} processors, got {m}")
    ticks = ts._ticks
    if ticks.refusal is None:  # the first call decides the domain, once per set
        ticks.refusal = _refusal(ts)
    if ticks.refusal:
        raise ValueError(ticks.refusal)
    for a, b, need in ticks.needs:  # need at the speed a/b
        if need <= m and q * a <= p * b:
            return True
        if need > m and q * a >= p * b:
            return False
    need = _fewest_processors(ts, p, q)
    if ticks.period.count(None) == len(ts):
        ticks.needs.append((p, q, need))
    return need <= m


def _refusal(ts: TaskSet) -> str:
    """Why ``ts`` lies outside the oracle's domain, naming its first task
    that does, or "" when it lies inside: every deadline > 0 and, for a
    recurring task, at most its period; every task acyclic, every wcet
    >= 0 and the subtask ids of each task distinct ints."""
    ticks = ts._ticks
    for task, deadline, period, span, wcets in zip(
        ts, ticks.deadline, ticks.period, ticks.span, ticks.wcets
    ):
        tag = f"oracle refuses task {task.id}"
        if deadline <= 0:
            return f"{tag}: nonpositive deadline {task.deadline}"
        if period is not None and deadline > period:
            return f"{tag}: deadline {task.deadline} exceeds period {task.period}"
        if span is None:
            return f"{tag}: dependency cycle among subtasks"
        for st, wcet in zip(task.subtasks, wcets):
            if wcet < 0:
                return f"{tag}: negative wcet {st.wcet} on subtask {st.id}"
        ids = [st.id for st in task.subtasks]
        for sid in ids:
            if not _is_int(sid):
                return f"{tag}: subtask id {sid!r} is not an integer"
        if len(set(ids)) < len(ids):
            return f"{tag}: duplicate subtask ids: {ids}"
    return ""


def _group_passes(ts: TaskSet, mask: int, p: int, q: int) -> bool:
    """Does the group of tasks in ``mask`` (a bitmask of task indices)
    pass the demand test on one processor at speed p/q?

    A group of one-shot tasks keeps its least passing speed in the tick
    view's ``groups``: the largest demand/t over its step instants, or 0
    if none is positive, as (a, b) for a/b.  Every deadline is > 0 on the
    oracle's domain, so the demand test at p/q is q*demand <= p*t at each
    instant t > 0, and it passes iff q*a <= p*b.  A group with a recurring
    task is scanned at each call and keeps nothing.
    """
    ticks = ts._ticks
    least = ticks.groups.get(mask)
    if least is None:
        # the group's items, listed in index order
        items = [item for i, item in enumerate(ticks.items) if mask >> i & 1]
        deadlines = [d for _, d, per in items if per is None]
        if len(deadlines) < len(items):
            return _first_violation(items, p, q, ticks.scale) is None
        a, b = 0, 1
        for t, demand in _demand_table(items, max(deadlines), ticks.scale):
            if demand * b > a * t:
                a, b = demand, t
        least = ticks.groups[mask] = a, b
    return q * least[0] <= p * least[1]


def _unit_makespan(ts: TaskSet, index: int, m: int) -> int:
    """:func:`fedsched.simulate._list_schedule`'s makespan for task ``index``
    on ``m`` processors, in the set's ticks, kept in ``makespans``."""
    makespans = ts._ticks.makespans
    key = (index, m)
    if key not in makespans:
        runs = _list_schedule(ts.tasks[index], ts._ticks.wcets[index], m)
        makespans[key] = max((run[3] for run in runs), default=0)
    return makespans[key]


def _fewest_processors(ts: TaskSet, p: int, q: int) -> int:
    """The fewest processors any configuration of the oracle's model uses
    for ``ts`` at speed p/q, or ``_OVER_CAP`` when over ``_MAX_PROCESSORS``.

    It applies to a set in the oracle's domain (see :func:`_refusal`):
    every deadline D > 0 and, for a recurring task, D <= its period T;
    every task acyclic, every wcet >= 0 and the subtask ids of each task
    distinct ints.  ``need`` is the summed cluster sizes of the heavy
    tasks (q*work > p*deadline) plus the fewest passing groups that
    partition the light ones.  This is exact there:

    1. A heavy task fits no group: every work is >= 0, so the group's
       demand at the task's own deadline D is at least its work w > s*D.
    2. A light task's solo group passes, and it spends one processor, no
       more than any cluster for the task; so every light task may be
       grouped.  A one-shot task's one step instant is D; a recurring
       task has U = w/T <= w/D <= s and, at each step instant D + k*T,
       demand (k+1)*w <= (k+1)*s*D <= s*(D + k*T).
    3. One processor never idles in the list schedule of an acyclic job
       whose subtask ids are distinct, so a 1-cluster's makespan is the
       task's work, and a heavy task's smallest cluster has c >= 2.  A
       job that meets D <= T is done before the next one is released, so
       one job's makespan decides a cluster of a recurring task too.
    4. The smallest passing cluster size does not depend on how many
       processors are left, and a group whose tasks pass keeps passing
       when a task leaves it (the demand only falls), so some
       configuration fits m processors iff need <= m.
    5. Every cluster and group test is a set of comparisons q*x <= p*y
       for fixed x, y >= 0, so whatever passes at one speed passes at
       every higher one: need never rises with the speed.

    The oracle refuses every other set, because there its model or this
    proof does not hold: with D > T consecutive jobs overlap, so one
    job's makespan no longer bounds a cluster's load, and the task may
    fail its solo group yet pass a 1-cluster; a negative wcet breaks 1
    and 4, a deadline <= 0 breaks 2, a repeated subtask id breaks 3 (the
    list schedule keeps one wcet per id), and a cycle or an id that is
    not an int can make a cluster raise.
    """
    ticks = ts._ticks
    used, light = 0, []
    for i, (work, deadline, _) in enumerate(ticks.items):
        if q * work <= p * deadline:
            light.append(1 << i)
            continue
        size, room = 2, _MAX_PROCESSORS - used
        while size <= room and q * _unit_makespan(ts, i, size) > p * deadline:
            size += 1
        used += size
        if used > _MAX_PROCESSORS:
            return _OVER_CAP
    # the light tasks packed from no group up; _OVER_CAP - used groups
    # would be over the cap
    return used + _fewest_groups(ts, light, 0, [], min(len(light), _OVER_CAP - used), p, q)


def _fewest_groups(
    ts: TaskSet, light: list[int], k: int, groups: list[int], best: int, p: int, q: int
) -> int:
    """Branch and bound over the light tasks from ``light[k]`` on (each a
    bit of a task index, in index order), the earlier ones packed in
    ``groups``: each joins an open group that still passes or opens one,
    while fewer groups are open than ``best``, the fewest found.  Returns
    the fewest found, and stops at 1, when one group holds every light
    task.  ``groups`` is as it was when this returns.  The arguments are
    explicit, so no closure refers to itself and a set this decides is
    freed as soon as it is dropped."""
    if len(groups) >= best:
        return best
    if k == len(light):
        return len(groups)
    bit = light[k]
    for g, mask in enumerate(groups):
        if _group_passes(ts, mask | bit, p, q):
            groups[g] = mask | bit
            best = _fewest_groups(ts, light, k + 1, groups, best, p, q)
            groups[g] = mask
            if best == 1:
                return best
    groups.append(bit)
    best = _fewest_groups(ts, light, k + 1, groups, best, p, q)
    groups.pop()
    return best
