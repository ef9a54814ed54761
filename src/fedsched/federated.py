"""Federated allocation of processors to DAG tasks.

A federated scheduler gives every *heavy* task (one that cannot finish
sequentially by its deadline) a cluster of processors for its exclusive
use, and runs each *light* task sequentially on a shared processor.  This
module provides the classification, the information-theoretic lower bounds
on how many processors heavy tasks force, the analytic speedup penalty of
the whole approach on the adversarial family, and a concrete allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .feasibility import _first_violation
from .model import DagTask, Platform, TaskSet


class TaskClass(Enum):
    HEAVY = "heavy"
    LIGHT = "light"


def classify(task: DagTask, speed: Fraction) -> TaskClass:
    """Heavy iff the task cannot run sequentially: work > speed * deadline.

    The boundary work == speed * deadline is Light (it finishes exactly on
    time on one processor).  The strictness matters: several identities in
    this package sit exactly on it.
    """
    if type(speed) is not Fraction:  # the allocator calls this per task
        speed = Fraction(speed)
    w, d = task.work, task.deadline
    # in ints: both sides times speed.denominator * w.denominator * d.denominator
    if (
        speed.denominator * w.numerator * d.denominator
        > speed.numerator * d.numerator * w.denominator
    ):
        return TaskClass.HEAVY
    return TaskClass.LIGHT


def heavy_demand_lower_bound(task: DagTask, speed: Fraction) -> int:
    """Fewest processors that could possibly meet a heavy task's deadline.

    Within a window of length deadline, m speed-``speed`` processors supply
    at most m * speed * deadline execution, so m >= work/(deadline * speed);
    the bound is the exact ceiling of that ratio.  Light tasks are rejected:
    for them the ratio degenerates to 1 and says nothing.
    """
    speed = Fraction(speed)
    if classify(task, speed) is TaskClass.LIGHT:
        raise ValueError(
            f"task {task.id} is light at speed {speed}; "
            "the demand bound applies to heavy tasks only"
        )
    return _demand_bound(task.work, task.deadline, speed.numerator, speed.denominator)


# The rules below take a task's times as numbers on one scale (ints in
# ticks from the allocator, rationals from the public forms) and a speed
# p/q as two ints; they only multiply and floor-divide, so ints stay ints.


def _demand_bound(work, deadline, p: int, q: int) -> int:
    """ceil(work / (deadline * speed)): heavy_demand_lower_bound for a
    task already classified heavy."""
    return -(-q * work // (p * deadline))


def total_demand_lower_bound(ts: TaskSet, speed: Fraction) -> int:
    """Sum of per-task demand lower bounds over an all-heavy task set.

    Because clusters are exclusive, the per-task bounds add up.  Rejects
    task sets containing any light task (the summation is meaningless once
    a task could share a processor).
    """
    return sum(heavy_demand_lower_bound(task, speed) for task in ts)


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
    if processors < 2 or n_tasks < 2 or ratio < 2:
        raise ValueError(
            "requires processors >= 2, n_tasks >= 2 and ratio >= 2, got "
            f"({processors}, {n_tasks}, {ratio})"
        )
    return min(
        (1 - Fraction(1) / ratio) * processors,
        n_tasks - Fraction(n_tasks - 1) / ratio,
    )


def heavy_processor_allocation(task: DagTask, speed: Fraction) -> int | None:
    """Cluster size granted to a heavy task: the smallest m whose greedy
    list-schedule guarantee meets the deadline.

    Greedy execution on m processors finishes within
    span + (work - span)/m time, so m = ceil((work - span)/(s*D - span))
    with s*D the deadline budget.  Returns None when the critical path
    alone overruns the budget (s*D <= span): no cluster size can help.
    Rejects light tasks; they are never granted clusters.
    """
    speed = Fraction(speed)
    if classify(task, speed) is TaskClass.LIGHT:
        raise ValueError(
            f"task {task.id} is light at speed {speed}; clusters are for heavy tasks"
        )
    return _cluster_size(
        task.work, task.span, task.deadline, speed.numerator, speed.denominator
    )


def _cluster_size(work, span, deadline, p: int, q: int) -> int | None:
    """ceil((work - span) / (speed * deadline - span)), at least 1, or None
    when speed * deadline <= span: heavy_processor_allocation for a task
    already classified heavy."""
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
        object.__setattr__(
            self, "heavy_grants", MappingProxyType(dict(self.heavy_grants))
        )
        object.__setattr__(
            self, "light_partition", MappingProxyType(dict(self.light_partition))
        )


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
    """
    speed, ticks = plat.speed, ts._ticks
    p, q = speed.numerator, speed.denominator
    classes = [classify(task, speed) for task in ts]
    heavy = [i for i, c in enumerate(classes) if c is TaskClass.HEAVY]
    light = [i for i, c in enumerate(classes) if c is TaskClass.LIGHT]
    demand = None
    # a heavy task with a nonpositive deadline fits on no count of processors
    if heavy and all(ticks.deadline[i] > 0 for i in heavy):
        demand = sum(_demand_bound(ticks.work[i], ticks.deadline[i], p, q) for i in heavy)
    # each decision that failed, as the pair (a, b) of the speed a/b from
    # which it holds; retry_speed is the least of them
    flips: list[tuple[int, int]] = []

    def retry_speed() -> Fraction | None:
        return min((Fraction(a, b) for a, b in flips), default=None)

    grants: dict[int, int] = {}
    for i in heavy:
        task, work, deadline = ts.tasks[i], ticks.work[i], ticks.deadline[i]
        span_ticks = ticks.span[i]
        if span_ticks is None:
            task.span  # raises: the task has a dependency cycle
        size = _cluster_size(work, span_ticks, deadline, p, q)
        if size is None:
            # below this retry speed the task alone needs the whole platform
            return Infeasible(
                reason=(
                    f"task {task.id}: critical path {task.span} needs more than "
                    f"the deadline budget {speed * task.deadline}; "
                    "no cluster size suffices"
                ),
                processors_needed=None,
                demand_lower_bound=demand,
                retry_speed=(
                    Fraction(*_size_ratio(work, span_ticks, deadline, plat.processors))
                    if deadline > 0
                    else None
                ),
            )
        grants[task.id] = size
        # the cluster (size >= 2) first shrinks here, by work/deadline at latest
        flips.append(_size_ratio(work, span_ticks, deadline, size - 1))
    used = sum(grants.values())
    if used > plat.processors:
        return Infeasible(
            reason=(
                f"heavy clusters alone need {used} processors, "
                f"platform has {plat.processors}"
            ),
            processors_needed=used,
            demand_lower_bound=demand,
            retry_speed=retry_speed(),
        )

    shared: list[list[tuple[int, int, int | None]]] = []
    # each shared processor's summed work while all its items are one-shot,
    # None once a recurring item lands on it
    loads: list[int | None] = []
    placement: dict[int, int] = {}
    for i in sorted(light, key=lambda i: (ticks.deadline[i], ts.tasks[i].id)):
        task, item = ts.tasks[i], ticks.items[i]
        work, deadline, period = item
        for idx, items in enumerate(shared):
            load = loads[idx]
            if load is not None and period is None:
                load += work
                violation = (load, deadline) if q * load > p * deadline else None
            else:
                load = None
                violation = _first_violation(items + [item], p, q, ticks.scale)
            if violation is None:
                items.append(item)
                loads[idx] = load
                placement[task.id] = idx + 1
                break
            if violation[1] > 0:
                flips.append(violation)
        else:
            if used + len(shared) + 1 > plat.processors:
                return Infeasible(
                    reason=(
                        f"light task {task.id} does not fit: {used} processors "
                        f"granted exclusively, {len(shared)} shared processors "
                        f"full, platform has {plat.processors}"
                    ),
                    processors_needed=used + len(shared) + 1,
                    demand_lower_bound=demand,
                    retry_speed=retry_speed(),
                )
            shared.append([item])
            loads.append(work if period is None else None)
            placement[task.id] = len(shared)
    return FederatedAllocation(
        heavy_grants=grants,
        light_partition=placement,
        total_processors_used=used + len(shared),
    )
