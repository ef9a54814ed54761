"""Demand-bound feasibility analysis for sequential items on one processor,
and the static subtask-per-processor partitioned test built on it.

An *item* is a sequential workload: ``work`` units due within ``deadline``
of each release, re-released at most every ``period`` (None = released
once, at time 0).  Preemptive earliest-deadline-first on one processor of
speed s meets all deadlines iff cumulative demand never outruns supply:

    for every t:  sum over items of dbf(item, t)  <=  s * t

and because each item's demand is a right-continuous step function, only
the finitely many step instants need checking.  The scan runs on int
ticks (see :class:`fedsched.model._Ticks`), with a speed p/q entering as
``q * demand <= p * t``; the public functions take rationals and scale
them per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import Platform, TaskSet, _in_ticks, _tick
from .rational import format_rational

# Most step instants one demand scan may enumerate, and most subtask jobs
# one simulation may release; a larger run (periods whose lcm dwarfs them)
# ends with ValueError instead of running for hours.
MAX_DEMAND_STEPS = 10**6


class Item(NamedTuple):
    """A sequential workload with a deadline and an optional period."""

    work: Fraction
    deadline: Fraction
    period: Fraction | None = None


def _as_item(spec: Item | Sequence) -> Item:
    """Accept an Item, a (work, deadline) pair, or a (work, deadline, period) triple."""
    if isinstance(spec, Item):
        return spec
    work, deadline, *rest = spec
    period = rest[0] if rest else None
    return Item(
        Fraction(work),
        Fraction(deadline),
        None if period is None else Fraction(period),
    )


def _scaled(
    specs: Iterable[Item | Sequence],
) -> tuple[int, list[tuple[int, int, int | None]]]:
    """The tick of some items and each as (work, deadline, period) in ints
    of that tick: how the public demand functions enter the engine."""
    items = [_as_item(spec) for spec in specs]
    scale = _tick(v for it in items for v in it)
    return scale, [tuple(_in_ticks(v, scale) for v in it) for it in items]


def _horizon(items: list[tuple[int, int, int | None]]) -> int:
    """:func:`default_horizon` of int items, in their ticks: the lcm of
    ticks is the tick count of the rationals' lcm."""
    horizon = max([d for _, d, _ in items], default=0)
    periods = [per for _, _, per in items if per is not None]
    if periods:
        horizon += 2 * lcm(*periods)
    return horizon


def default_horizon(items: Iterable[Item | Sequence]) -> Fraction:
    """How far a demand scan must look: the largest deadline, plus two
    hyperperiods when any item recurs.

    Beyond one hyperperiod past every deadline, the demand pattern repeats
    with a fixed increment per hyperperiod, so (given the utilization
    check in :func:`uniprocessor_edf_feasible`) no new violation can
    first appear there.  Two hyperperiods keep the margin obvious.
    :func:`demand_profile` tabulates this far; the verdict of
    :func:`uniprocessor_edf_feasible` usually needs far less, since when
    utilization stays below the speed it stops at the sooner of this
    horizon and the L_a bound.
    """
    scale, ticks = _scaled(items)
    return Fraction(_horizon(ticks), scale)


def _check_step_count(total: int, horizon: int | Fraction, scale: int) -> None:
    """Raise ValueError when a scan to ``horizon`` (in ticks of
    ``1/scale``) would enumerate ``total`` step instants, more than
    ``MAX_DEMAND_STEPS``."""
    if total > MAX_DEMAND_STEPS:
        raise ValueError(
            f"demand scan to horizon {format_rational(Fraction(horizon) / scale)} "
            f"needs {total} step instants, more than the limit of "
            f"{MAX_DEMAND_STEPS}"
        )


def _demand_steps(
    items: list[tuple[int, int, int | None]], horizon: int | Fraction, scale: int
) -> list[tuple[int, int]]:
    """Every instant up to ``horizon`` where the summed dbf of ``items``
    steps, with the height of the step there, in increasing time order.

    Items are (work, deadline, period) and every value, the horizon too,
    is in ticks of ``1/scale``; ``scale`` is read only for messages.
    Each item's step instants (its deadline, then every ``period`` after
    it while within the horizon) are enumerated once and its work is
    added to the step at each.  Raises ValueError, before enumerating,
    when that takes more than ``MAX_DEMAND_STEPS`` step instants.
    """
    last = horizon // 1  # the last whole tick within the horizon
    total = 0
    for _, deadline, period in items:
        if period is None:
            total += 1
        elif period <= 0:
            raise ValueError(f"period must be positive, got {Fraction(period, scale)}")
        else:
            total += (last - deadline) // period + 1
    _check_step_count(total, horizon, scale)
    steps: dict[int, int] = {}
    get = steps.get
    for work, deadline, period in items:
        if period is None:
            steps[deadline] = get(deadline, 0) + work
        else:
            for t in range(deadline, last + 1, period):
                steps[t] = get(t, 0) + work
    return sorted(steps.items())


@dataclass(frozen=True)
class DemandProfile:
    """Total demand of an item set tabulated at each step instant.

    Breakpoints are (t, demand) pairs, strictly increasing in t with
    nondecreasing demand; demand before the first breakpoint is 0.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        # exact type checks, as in format_rational: keep the engine's tuple
        if type(self.breakpoints) is not tuple or any(
            type(t) is not Fraction or type(d) is not Fraction
            for t, d in self.breakpoints
        ):
            object.__setattr__(
                self,
                "breakpoints",
                tuple((Fraction(t), Fraction(d)) for t, d in self.breakpoints),
            )


def _demand_table(
    items: list[tuple[int, int, int | None]], scale: int
) -> list[tuple[int, int]]:
    """The (t, demand) pairs of :func:`demand_profile` for int items in
    ticks of ``1/scale``, as ints of the same ticks: the running sum of
    the steps out to the items' default horizon."""
    table = []
    total = 0
    for t, step in _demand_steps(items, _horizon(items), scale):
        total += step
        table.append((t, total))
    return table


def demand_profile(items: Iterable[Item | Sequence]) -> DemandProfile:
    """Tabulate the summed dbf of ``items`` at every step instant up to
    :func:`default_horizon`, in one sorted sweep: the running sum of the
    steps is the total demand at each instant.  Raises ValueError when
    the scan needs more than ``MAX_DEMAND_STEPS`` step instants.
    """
    scale, ticks = _scaled(items)
    return DemandProfile(
        tuple(
            (Fraction(t, scale), Fraction(demand, scale))
            for t, demand in _demand_table(ticks, scale)
        )
    )


def uniprocessor_edf_feasible(
    items: Iterable[Item | Sequence], speed: Fraction
) -> bool:
    """Would preemptive EDF on one speed-``speed`` processor meet every
    deadline of ``items``?

    True iff demand never exceeds supply at any step instant.  For
    one-shot items this is exact (necessary and sufficient).  Recurring
    items must additionally keep total utilization U (work/period) within
    ``speed``: long-run demand grows at that rate, and bounding it is
    what makes the finite scan horizon sufficient.

    The scan walks the step instants in increasing order, keeps a running
    sum, and stops at the first violation; no profile is built.  When
    U < speed and no work is negative, it ends at the sooner of
    :func:`default_horizon` and the L_a bound (George, Rivierre and Spuri
    1996)

        L = max(largest deadline, N / (speed - U)),
        N = sum over recurring items of max(0, period - deadline) * work/period
            + sum over one-shot items of work.

    For t >= 0 a recurring item's dbf is at most t*work/period +
    max(0, period - deadline)*work/period and a one-shot item's at most
    its work, so total demand is at most U*t + N, which stays within
    speed*t from L on: no violation can first appear at or after L.
    When U == speed, or some work is negative (the bound then fails),
    the scan runs to :func:`default_horizon`.
    """
    speed = Fraction(speed)
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    scale, ticks = _scaled(items)
    return _first_violation(ticks, speed.numerator, speed.denominator, scale) is None


def _first_violation(
    items: list[tuple[int, int, int | None]], p: int, q: int, scale: int
) -> tuple[int, int] | None:
    """The scan of :func:`uniprocessor_edf_feasible` on int items in ticks
    of ``1/scale`` at speed ``p/q``: None if the test passes, else a pair
    (a, b) such that it fails at every speed below a/b.  That is (demand,
    t) at the first instant where q*demand > p*t, or U as a pair when
    U > p/q (U is a ratio of ticks, so the scale cancels in both).

    One-shot items step once each, at their deadlines, so with no
    recurring item the scan is a running sum over the items in deadline
    order, compared once every item due at an instant is summed."""
    periods = [per for _, _, per in items if per is not None]
    if not periods:
        ordered = sorted(items, key=itemgetter(1))
        _check_step_count(len(ordered), ordered[-1][1] if ordered else 0, scale)
        demand = 0
        for k, (work, t, _) in enumerate(ordered, 1):
            demand += work
            if (k == len(ordered) or ordered[k][1] != t) and q * demand > p * t:
                return demand, t
        return None
    horizon = _horizon(items)
    for per in periods:
        if per <= 0:
            raise ValueError(f"period must be positive, got {Fraction(per, scale)}")
    hyper = lcm(*periods)
    # U = used / hyper: each recurring item's work per hyperperiod
    used = sum(w * (hyper // per) for w, _, per in items if per is not None)
    if q * used > p * hyper:
        return used, hyper
    slack = p * hyper - q * used  # (speed - U) * q * hyper
    if slack > 0 and all(w >= 0 for w, _, _ in items):
        offset = sum(  # N * hyper
            w * hyper if per is None else max(0, per - d) * w * (hyper // per)
            for w, d, per in items
        )
        bound = Fraction(offset * q, slack)  # L, in ticks
        if bound < horizon:
            horizon = max(max(d for _, d, _ in items), bound)
    demand = 0
    for t, step in _demand_steps(items, horizon, scale):
        demand += step
        if q * demand > p * t:
            return demand, t
    return None


@dataclass(frozen=True)
class PartitionedAssignment:
    """A static placement: (task id, subtask id) -> processor index (1-based)."""

    mapping: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        entries = {
            (int(t), int(s)): int(p) for (t, s), p in dict(self.mapping).items()
        }
        object.__setattr__(self, "mapping", MappingProxyType(entries))

    def processor_of(self, task_id: int, subtask_id: int) -> int:
        return self.mapping[(task_id, subtask_id)]


def partition_by_subtask_index(ts: TaskSet, processors: int) -> PartitionedAssignment:
    """Place the k-th smallest subtask id of every task on processor k.

    Requires every task to have exactly ``processors`` subtasks (the
    shape :func:`fedsched.generate.build_counterexample` produces, where
    the placement gives each processor one equal share of every task).
    """
    for task in ts:
        if len(task.subtasks) != processors:
            raise ValueError(
                f"task {task.id} has {len(task.subtasks)} subtasks, "
                f"expected exactly {processors}"
            )
    mapping: dict[tuple[int, int], int] = {}
    for task in ts:
        ordered = sorted(task.subtasks, key=lambda st: st.id)
        for k, st in enumerate(ordered, start=1):
            mapping[(task.id, st.id)] = k
    return PartitionedAssignment(mapping)


def _assigned(
    ts: TaskSet, pa: PartitionedAssignment
) -> dict[int, list[tuple[int, int]]]:
    """Per processor, (task index, subtask index) of each subtask assigned
    to it, in task order and then subtask order.  Raises if the assignment
    misses any subtask."""
    by_proc: dict[int, list[tuple[int, int]]] = {}
    for i, task in enumerate(ts):
        for k, st in enumerate(task.subtasks):
            proc = pa.mapping.get((task.id, st.id))
            if proc is None:
                raise ValueError(
                    f"assignment does not cover task {task.id} subtask {st.id}"
                )
            by_proc.setdefault(proc, []).append((i, k))
    return by_proc


def processor_items(
    ts: TaskSet, pa: PartitionedAssignment
) -> dict[int, list[Item]]:
    """Group the assigned subtasks into per-processor item lists.

    Each subtask becomes one item carrying its own wcet and its task's
    deadline and period.  Raises if the assignment misses any subtask.
    """
    tasks = ts.tasks
    return {
        proc: [
            Item(tasks[i].subtasks[k].wcet, tasks[i].deadline, tasks[i].period)
            for i, k in placed
        ]
        for proc, placed in _assigned(ts, pa).items()
    }


def _partition(
    ts: TaskSet, pa: PartitionedAssignment, plat: Platform
) -> dict[int, list[tuple[int, int]]]:
    """:func:`_assigned`, after checking that a partitioned analysis or
    simulation applies: every task edge-free (subtasks are placed as
    independent items), and every processor within the platform."""
    for task in ts:
        if task.edges:
            raise ValueError(
                f"task {task.id} has precedence edges; "
                "the partitioned test handles edge-free tasks only"
            )
    by_proc = _assigned(ts, pa)
    for proc in by_proc:
        if not 1 <= proc <= plat.processors:
            raise ValueError(
                f"assignment uses processor {proc}, "
                f"platform has 1..{plat.processors}"
            )
    return by_proc


def _tick_items(
    ts: TaskSet, placed: list[tuple[int, int]]
) -> list[tuple[int, int, int | None]]:
    """The items of the subtasks ``placed`` (from :func:`_assigned`) as
    (wcet, deadline, period) in ints of the set's tick."""
    ticks = ts._ticks
    return [(ticks.wcets[i][k], ticks.deadline[i], ticks.period[i]) for i, k in placed]


def partitioned_feasible(
    ts: TaskSet, pa: PartitionedAssignment, plat: Platform
) -> bool:
    """Does every processor pass the demand test for its assigned subtasks?

    Subtasks are treated as independent sequential items, which is only
    faithful when tasks have no precedence edges; tasks with edges are
    rejected rather than analyzed optimistically.  Each processor runs the
    scan of :func:`uniprocessor_edf_feasible` on the set's ticks.
    """
    p, q = plat.speed.numerator, plat.speed.denominator
    return all(
        _first_violation(_tick_items(ts, placed), p, q, ts._ticks.scale) is None
        for placed in _partition(ts, pa, plat).values()
    )
