"""Federated allocation of processors to DAG tasks.

A federated scheduler gives every *heavy* task (one that cannot finish
sequentially by its deadline: work > speed * deadline, so a task at
equality, which finishes exactly on time, is light) a cluster of
processors for its exclusive use, and runs each *light* task sequentially
on a shared processor.  This module provides the rules that size a heavy
task's cluster and bound from below how many processors it forces, the
analytic speedup penalty of the whole approach on the adversarial family,
and a concrete allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .feasibility import _first_violation
from .model import Platform, TaskSet, _is_int


# The rules below take a task's times as numbers on one scale (ints in
# ticks from the engines, rationals in the tests) and a speed p/q as two
# ints; they only multiply and floor-divide, so ints stay ints.  Each
# applies to a task already classified heavy.


def _demand_bound(work, deadline, p: int, q: int) -> int:
    """Fewest processors that could possibly meet a heavy task's deadline:
    ceil(work / (deadline * speed)), for a positive deadline.

    Within a window of length deadline, m speed-``speed`` processors supply
    at most m * speed * deadline execution, so m >= work/(deadline * speed).
    For a light task the ratio degenerates to 1 and says nothing."""
    return -(-q * work // (p * deadline))


def speedup_lower_bound(processors: int, n_tasks: int, ratio: Fraction) -> Fraction:
    """Speed below which *no* federated allocation of the adversarial
    family can fit on its platform: min((1 - 1/K)*M, N - (N-1)/K) for
    M = processors, N = n_tasks, K = ratio.

    Below (1 - 1/K)*M every task in the family is heavy, and the per-task
    demand bounds then sum past M; the second term caps the argument when
    there are few tasks.  Since the family is feasible on M unit-speed
    processors, this is a lower bound on the speedup any federated
    scheduler needs.
    """
    ratio = Fraction(ratio)
    counts = _is_int(processors) and _is_int(n_tasks)
    if not counts or processors < 2 or n_tasks < 2 or ratio < 2:
        raise ValueError(
            "requires processors >= 2, n_tasks >= 2 and ratio >= 2, got "
            f"({processors}, {n_tasks}, {ratio})"
        )
    return min(
        (1 - Fraction(1) / ratio) * processors,
        n_tasks - Fraction(n_tasks - 1) / ratio,
    )


def _cluster_size(work, span, deadline, p: int, q: int) -> int | None:
    """Cluster size granted to a heavy task: the smallest m whose greedy
    list-schedule guarantee, span + (work - span)/m, fits in speed *
    deadline.  That is ceil((work - span) / (speed * deadline - span)), at
    least 1, or None when speed * deadline <= span: the critical path alone
    overruns the budget and no cluster size can help."""
    budget = p * deadline - q * span  # (speed * deadline - span) * q
    if budget <= 0:
        return None
    return max(1, -(-q * (work - span) // budget))


def _size_ratio(work, span, deadline, k: int) -> tuple:
    """The inverse of :func:`_cluster_size` as a pair (a, b): the least
    speed a/b at which a heavy task's cluster size is at most ``k``, where
    span + (work - span)/k fits in speed * deadline."""
    return k * span + work - span, k * deadline


@dataclass(frozen=True)
class FederatedAllocation:
    """A successful allocation.

    heavy_grants maps each heavy task id to its exclusive cluster size;
    light_partition maps each light task id to a shared processor index
    (1-based, numbered separately from the heavy clusters).
    total_processors_used is the cluster sizes summed plus the number of
    shared processors.
    """

    heavy_grants: Mapping[int, int]
    light_partition: Mapping[int, int]
    total_processors_used: int

    def __post_init__(self) -> None:
        for name in ("heavy_grants", "light_partition"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


@dataclass(frozen=True)
class Infeasible:
    """A negative allocation verdict and the certificate behind it.

    demand_lower_bound is the summed heavy-task demand bound (None when
    no task is heavy, or when a heavy task's deadline is not positive and
    no count of processors suffices); processors_needed is how many
    processors the allocator would have required to continue (None when
    no finite count helps).  retry_speed is a certificate: the allocator
    is infeasible at every speed in [platform speed, retry_speed), or at
    every higher speed when it is None.
    """

    reason: str
    processors_needed: int | None = None
    demand_lower_bound: int | None = None
    retry_speed: Fraction | None = None


def allocate_federated(
    ts: TaskSet, plat: Platform
) -> FederatedAllocation | Infeasible:
    """Allocate the platform: exclusive clusters for heavy tasks, then
    first-fit packing of light tasks onto shared processors.

    Light tasks are considered in order of nondecreasing deadline (ties by
    task id) and each runs sequentially as a single item, which is legal
    since any topological order of its subtasks respects the DAG.  A task
    is admitted to a shared processor only if the processor's item set,
    with the newcomer added, still passes the exact demand test at the
    platform speed.  Infeasible is a verdict, not an error.

    Every shared processor's items pass that test (a light one-shot item
    passes alone, and each later one was admitted by it), and newcomers
    arrive in nondecreasing deadline order.  So while a processor and its
    newcomer are all one-shot, the newcomer adds only the step at its own
    deadline, where the demand is the processor's summed work plus its
    own: admission is one comparison, and a failure is that (demand,
    deadline) pair, as the full scan would report it.  A recurring item,
    on the processor or arriving, takes the full scan.

    Each decision holds from some speed r up: light iff speed >=
    work/deadline, a cluster of at most k iff speed >= the ratio
    :func:`_size_ratio` gives for k, a demand test passes iff speed >=
    demand/t at each instant t.  So the run stays the same up to the
    least r of the decisions that failed, which Infeasible reports as
    retry_speed.

    The processor count enters only where first-fit stops, so one run
    per speed, with no limit on processors, decides every count (see
    :func:`_first_fit`).  The clusters are sized before any shared
    processor is opened, and each newcomer tries the open processors in
    order before it opens one; none of that reads the count.  So the run
    on ``m`` processors makes the run's choices, failed tests and flips
    included, until it needs more than ``m``: the clusters alone when
    ``used > m``, else the light task that opens shared processor
    ``m - used + 1``, with the flips recorded before that opening.  A run
    that opens at most ``m - used`` fits, with the run's allocation.  A
    scan that raises is reached exactly by the counts with room for every
    opening before it, and raises only for them.
    """
    speed, m = plat.speed, plat.processors
    p, q = speed.numerator, speed.denominator
    ticks = ts._ticks
    run = ticks.firstfit.get((p, q)) or _first_fit(ts, p, q, m)
    demand, stuck, used, least, opened, allocation = run
    if stuck is None and allocation is None and used + len(opened) <= m:
        # the run was cut by a scan that this count reaches
        demand, stuck, used, least, opened, allocation = _first_fit(ts, p, q, m)
    if stuck is not None:
        task, work, deadline = ts.tasks[stuck], ticks.work[stuck], ticks.deadline[stuck]
        # below this retry speed the task alone needs the whole platform
        return Infeasible(
            reason=(
                f"task {task.id}: critical path {task.span} is not shorter than "
                f"the deadline budget {speed * task.deadline}; "
                "no cluster size suffices"
            ),
            processors_needed=None,
            demand_lower_bound=demand,
            retry_speed=(
                Fraction(*_size_ratio(work, ticks.span[stuck], deadline, m))
                if deadline > 0
                else None
            ),
        )
    if used > m:
        return Infeasible(
            reason=f"heavy clusters alone need {used} processors, platform has {m}",
            processors_needed=used,
            demand_lower_bound=demand,
            retry_speed=None if least is None else Fraction(*least),
        )
    if m - used < len(opened):
        tid, least = opened[m - used]
        return Infeasible(
            reason=(
                f"light task {tid} does not fit: {used} processors "
                f"granted exclusively, {m - used} shared processors "
                f"full, platform has {m}"
            ),
            processors_needed=m + 1,
            demand_lower_bound=demand,
            retry_speed=None if least is None else Fraction(*least),
        )
    return allocation


def _first_fit(ts: TaskSet, p: int, q: int, m: int) -> tuple:
    """First-fit at speed p/q with no processor limit, kept in the tick
    view's ``firstfit`` as (demand, stuck, used, least, opened,
    allocation): only ints, pairs and the one allocation every fitting
    count shares.  ``stuck`` is the index of the first heavy task no
    cluster size suffices for, if any; ``least`` is the least flip of the
    heavy tasks, a pair (a, b) for a/b, or None; ``opened`` lists, for
    each shared processor in the order first-fit opens them, the id of
    the light task that opened it and the least flip up to that opening.

    A cycle in a heavy task raises and keeps nothing.  When a light
    task's scan raises, the run on ``m`` processors reaches the scan only
    with room for every opening before it: then it raises too, and
    otherwise the run is kept cut there, with no allocation."""
    ticks = ts._ticks
    # the heavy rule, work > speed * deadline, on the set's ticks
    heavy = [i for i, (w, d, _) in enumerate(ticks.items) if q * w > p * d]
    light = [i for i, (w, d, _) in enumerate(ticks.items) if q * w <= p * d]
    demand = None
    # a heavy task with a nonpositive deadline fits on no count of processors
    if heavy and all(ticks.deadline[i] > 0 for i in heavy):
        demand = sum(_demand_bound(ticks.work[i], ticks.deadline[i], p, q) for i in heavy)
    # each decision that failed is the pair (a, b) of the speed a/b from
    # which it holds, and ``least`` the least of them so far.  Every b is
    # positive (a granted cluster's deadline is, and a light task's flip is
    # kept only at an instant > 0): c/d < a/b iff c*b < a*d
    least = None
    grants: dict[int, int] = {}
    for i in heavy:
        task, work, deadline = ts.tasks[i], ticks.work[i], ticks.deadline[i]
        span_ticks = ticks.span[i]
        if span_ticks is None:
            task.span  # raises: the task has a dependency cycle
        size = _cluster_size(work, span_ticks, deadline, p, q)
        if size is None:
            run = ticks.firstfit[p, q] = (demand, i, 0, None, (), None)
            return run
        grants[task.id] = size
        # the cluster (size >= 2) first shrinks here, by work/deadline at latest
        c, d = _size_ratio(work, span_ticks, deadline, size - 1)
        if least is None or c * least[1] < least[0] * d:
            least = c, d
    used, heavy_least = sum(grants.values()), least

    shared: list[list[tuple[int, int, int | None]]] = []
    # each shared processor's summed work while all its items are one-shot,
    # None once a recurring item lands on it
    loads: list[int | None] = []
    placement: dict[int, int] = {}
    opened: list[tuple[int, tuple[int, int] | None]] = []
    try:
        for i in sorted(light, key=lambda i: (ticks.deadline[i], ts.tasks[i].id)):
            task, item = ts.tasks[i], ticks.items[i]
            work, deadline, period = item
            # a one-shot refusal's flip (load, deadline) is below ``least``
            # = (a, b) iff load*b < a*deadline, that is load < bar for this
            # ceiling: one int comparison per refusal
            bar = None if least is None else -(-least[0] * deadline // least[1])
            for idx, items in enumerate(shared):
                load = loads[idx]
                if load is not None and period is None:
                    load += work
                    if q * load <= p * deadline:
                        break
                    if deadline > 0 and (bar is None or load < bar):
                        least, bar = (load, deadline), load
                    continue
                load = None
                violation = _first_violation(items + [item], p, q, ticks.scale)
                if violation is None:
                    break
                c, d = violation
                if d > 0 and (least is None or c * least[1] < least[0] * d):
                    least, bar = violation, -(-c * deadline // d)
            else:
                opened.append((task.id, least))
                shared.append([item])
                loads.append(work if period is None else None)
                placement[task.id] = len(shared)
                continue
            items.append(item)
            loads[idx] = load
            placement[task.id] = idx + 1
    except Exception:
        # any exception: the run on m processors meets it only with room
        # for every opening before it, and a smaller count gets its verdict
        if used + len(opened) <= m:
            raise
        allocation = None
    else:
        allocation = FederatedAllocation(
            heavy_grants=grants,
            light_partition=placement,
            total_processors_used=used + len(opened),
        )
    run = ticks.firstfit[p, q] = (demand, None, used, heavy_least, tuple(opened), allocation)
    return run

