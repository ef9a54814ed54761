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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .model import (
    Platform,
    TaskSet,
    _in_ticks,
    _is_int,
    _positive_speed,
    _require_keyed_ids,
    _tick,
)
from .rational import format_rational

# Most step instants one demand scan may enumerate, and most subtask jobs
# one simulation may release; a larger run (periods whose lcm dwarfs them)
# ends with ValueError instead of running for hours.
MAX_DEMAND_STEPS = 10**6


def _scaled(
    specs: Iterable[Sequence],
) -> tuple[int, list[tuple[int, int, int | None]]]:
    """The tick of some items and each as (work, deadline, period) in ints
    of that tick: how the public demand functions enter the engine.  Each
    spec is a (work, deadline) pair or a (work, deadline, period) triple;
    any other length is a TypeError."""
    items = []
    for spec in specs:
        spec = tuple(spec)
        if len(spec) not in (2, 3):
            raise TypeError(
                f"an item is (work, deadline) or (work, deadline, period), got {spec!r}"
            )
        work, deadline, period = (*spec, None)[:3]
        period = None if period is None else Fraction(period)
        items.append((Fraction(work), Fraction(deadline), period))
    scale = _tick(v for it in items for v in it)
    return scale, [tuple(_in_ticks(v, scale) for v in it) for it in items]


def _hyperperiod(items: Sequence[tuple[int, int, int | None]], scale: int) -> int:
    """The lcm of the periods of the recurring int items, in their ticks
    (the lcm of ticks is the tick count of the rationals' lcm); 1 when none
    recurs.  Raises ValueError for a nonpositive period; ``scale`` is read
    only for that message."""
    periods = [per for _, _, per in items if per is not None]
    for per in periods:
        if per <= 0:
            raise ValueError(f"period must be positive, got {Fraction(per, scale)}")
    return lcm(*periods)


def _horizon(items: Sequence[tuple[int, int, int | None]], scale: int) -> int:
    """How far ``analyze``'s demand tables and the default simulation run,
    in ticks of ``1/scale``: the largest deadline, plus two hyperperiods
    (see :func:`_hyperperiod`) when any item recurs.

    Past the largest deadline the demand repeats every hyperperiod, raised
    by one hyperperiod's work (see :func:`_demand_table`), so the verdict
    of :func:`uniprocessor_edf_feasible` needs only one hyperperiod past
    it (see :func:`_first_violation`); the second keeps the printed tables
    as they were.  Raises ValueError for a nonpositive period.
    """
    horizon = max([d for _, d, _ in items], default=0)
    if any(per is not None for _, _, per in items):
        horizon += 2 * _hyperperiod(items, scale)
    return horizon


@dataclass(frozen=True)
class DemandProfile:
    """Total demand of an item set tabulated at each step instant.

    Breakpoints are (t, demand) pairs, strictly increasing in t with
    nondecreasing demand; demand before the first breakpoint is 0.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        points = tuple((Fraction(t), Fraction(d)) for t, d in self.breakpoints)
        object.__setattr__(self, "breakpoints", points)


def _demand_table(
    items: Sequence[tuple[int, int, int | None]], horizon: int | Fraction, scale: int
) -> Iterable[tuple[int, int]]:
    """The total demand of int items at each instant up to ``horizon``
    where it steps, as (t, demand) pairs in increasing time order.

    Items are (work, deadline, period) and every value, the horizon too,
    is in ticks of ``1/scale``; ``scale`` is read only for messages.  An
    item steps by its work at its deadline and, when it recurs, every
    ``period`` after it while within the horizon.  The steps are summed in
    time order and the last sum at each instant is kept.  Raises
    ValueError, before enumerating, when that takes more than
    ``MAX_DEMAND_STEPS`` step instants.

    Only the steps up to the largest deadline ``top`` plus one
    hyperperiod ``H`` are enumerated; each later hyperperiod repeats the
    last one enumerated.  For every t >= ``top`` the instants t and t + H
    step together and demand(t + H) = demand(t) + W, where W is the work
    the recurring items release per hyperperiod (Baruah, Rosier and Howell
    1990): a one-shot item steps at most at ``top``, and a recurring one
    steps at t iff it steps at t + H, with H/period more steps of its work
    up to there.  So the table over (top + kH, top + (k+1)H] is the one
    over (top, top + H], shifted by kH and raised by kW.
    """
    last = horizon // 1  # the last whole tick within the horizon
    steps = [(d, w) for w, d, per in items if per is None]
    recurring = [item for item in items if item[2] is not None]
    total = len(steps)
    for _, d, per in recurring:
        total += (last - d) // per + 1
    if total > MAX_DEMAND_STEPS:
        raise ValueError(
            f"demand scan to horizon {format_rational(Fraction(horizon) / scale)} "
            f"needs {total} step instants, more than the limit of "
            f"{MAX_DEMAND_STEPS}"
        )
    end = last
    if recurring:
        top = max(d for _, d, _ in items)
        hyper = lcm(*(per for _, _, per in recurring))
        end = min(last, top + hyper)
    for w, d, per in recurring:
        steps += zip(range(d, end + 1, per), repeat(w))
    steps.sort()
    demand, table = 0, {}
    for t, w in steps:
        demand += w
        table[t] = demand
    if end < last:
        work = sum(w * (hyper // per) for w, _, per in recurring)
        keys = list(table)
        cut = bisect_right(keys, top)
        keys, demands = keys[cut:], list(table.values())[cut:]
        for k in range(1, (last - keys[0]) // hyper + 1):
            # only the last copy is cut short by the horizon; zip stops with its keys
            shown = keys[: bisect_right(keys, last - k * hyper)]
            table.update(
                zip(map(add, shown, repeat(k * hyper)), map(add, demands, repeat(k * work)))
            )
    return table.items()


def demand_profile(items: Iterable[Sequence]) -> DemandProfile:
    """Tabulate the summed dbf of ``items`` at every step instant up to
    the largest deadline, plus two hyperperiods when any item recurs, in
    one sorted sweep: the running sum of the steps is the total demand at
    each instant.  Raises ValueError when the scan needs more than
    ``MAX_DEMAND_STEPS`` step instants.
    """
    scale, ticks = _scaled(items)
    return DemandProfile(
        tuple(
            (Fraction(t, scale), Fraction(demand, scale))
            for t, demand in _demand_table(ticks, _horizon(ticks, scale), scale)
        )
    )


def uniprocessor_edf_feasible(items: Iterable[Sequence], speed: Fraction) -> bool:
    """Would preemptive EDF on one speed-``speed`` processor meet every
    deadline of ``items``, each a (work, deadline) pair or a (work,
    deadline, period) triple?

    True iff demand never exceeds supply at any step instant.  For
    one-shot items this is exact (necessary and sufficient).  Recurring
    items must additionally keep total utilization U (work/period) within
    ``speed``: long-run demand grows at that rate, and bounding it is
    what makes the finite scan horizon sufficient.

    The scan reads the running demand at the step instants in increasing
    order (see :func:`_demand_table`) and stops at the first violation.  When
    U < speed and no work is negative, it ends at the sooner of the
    largest deadline plus one hyperperiod (see :func:`_first_violation`)
    and the L_a bound (George, Rivierre and Spuri 1996)

        L = max(largest deadline, N / (speed - U)),
        N = sum over recurring items of max(0, period - deadline) * work/period
            + sum over one-shot items of work.

    For t >= 0 a recurring item's dbf is at most t*work/period +
    max(0, period - deadline)*work/period and a one-shot item's at most
    its work, so total demand is at most U*t + N, which stays within
    speed*t from L on: no violation can first appear at or after L.
    When N == 0 as well, and no deadline is negative, demand never
    exceeds U*t <= speed*t, so the test passes with no scan, even at U ==
    speed (Liu and Layland 1973 for deadlines equal to periods; a
    negative deadline is a step at some t < 0, where it always fails).
    Otherwise, when U == speed, or some work is negative (the bound then
    fails), the scan runs to that horizon.
    """
    speed = _positive_speed(speed)
    scale, ticks = _scaled(items)
    return _first_violation(ticks, speed.numerator, speed.denominator, scale) is None


def _first_violation(
    items: Sequence[tuple[int, int, int | None]], p: int, q: int, scale: int
) -> tuple[int, int] | None:
    """The scan of :func:`uniprocessor_edf_feasible` on int items in ticks
    of ``1/scale`` at speed ``p/q``: None if the test passes, else a pair
    (a, b) such that it fails at every speed below a/b.  That is (demand,
    t) at the first instant where q*demand > p*t, or U as a pair when
    U > p/q (U is a ratio of ticks, so the scale cancels in both).

    Unless the L_a bound cuts it sooner, the scan ends one hyperperiod H
    past the largest deadline ``last``, which finds the first violation
    whenever U <= p/q, negative works and deadlines included.  For t >=
    ``last``, demand(t + H) = demand(t) + W with W = U*H (see
    :func:`_demand_table`), so q*demand - p*t changes by q*W - p*H <= 0
    from t to t + H.  A violation at some t > last + H is thus one at
    t - H as well, and, repeating, at some instant in [last, last + H):
    the first violation, if any, lies within the scan, and so does the
    pair it returns."""
    hyper = _hyperperiod(items, scale)
    recurring = [item for item in items if item[2] is not None]
    # U = used / hyper: each recurring item's work per hyperperiod
    used = sum(w * (hyper // per) for w, _, per in recurring)
    if q * used > p * hyper:
        return used, hyper
    last = max([d for _, d, _ in items], default=0)
    horizon = last + hyper if recurring else last
    slack = p * hyper - q * used  # (speed - U) * q * hyper
    # with no item recurring, L_a is never below the largest deadline
    if recurring and min(w for w, _, _ in items) >= 0:
        # N * hyper: all work, less min(deadline, period) * work/period per
        # recurring item (which leaves max(0, period - deadline) * work/period)
        offset = hyper * sum(w for w, _, _ in items) - sum(
            min(d, per) * w * (hyper // per) for w, d, per in recurring
        )
        if offset == 0 and min(d for _, d, _ in items) >= 0:
            return None  # demand <= U*t <= speed*t at every t >= 0
        # L_a = N / (speed - U) is nearer
        if slack > 0 and offset * q < horizon * slack:
            horizon = max(last, Fraction(offset * q, slack))
    for t, demand in _demand_table(items, horizon, scale):
        if q * demand > p * t:
            return demand, t
    return None


@dataclass(frozen=True)
class PartitionedAssignment:
    """A static placement: (task id, subtask id) -> processor index (1-based)."""

    mapping: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        entries = dict(self.mapping)
        for (task, subtask), proc in entries.items():
            if not (
                type(task) is type(subtask) is type(proc) is int
                or all(map(_is_int, (task, subtask, proc)))
            ):
                raise ValueError(
                    f"assignment entry ({task!r}, {subtask!r}) -> {proc!r}: "
                    "ids and processors must be integers"
                )
        object.__setattr__(self, "mapping", MappingProxyType(entries))


def partition_by_subtask_index(ts: TaskSet, processors: int) -> PartitionedAssignment:
    """Place the k-th smallest subtask id of every task on processor k.

    Requires every task to have exactly ``processors`` subtasks (the
    shape :func:`fedsched.generate.build_counterexample` produces, where
    the placement gives each processor one equal share of every task).
    Raises ValueError for a processor count that is not an integer.
    """
    if not _is_int(processors):
        raise ValueError(f"processors must be an integer, got {processors!r}")
    for task in ts:
        if len(task.subtasks) != processors:
            raise ValueError(
                f"task {task.id} has {len(task.subtasks)} subtasks, "
                f"expected exactly {processors}"
            )
    mapping: dict[tuple[int, int], int] = {}
    for task in ts:
        for k, sid in enumerate(sorted(st.id for st in task.subtasks), start=1):
            mapping[task.id, sid] = k
    return PartitionedAssignment(mapping)


def _assigned(
    ts: TaskSet, pa: PartitionedAssignment
) -> dict[int, list[tuple[int, int]]]:
    """Per processor, (task index, subtask index) of each subtask assigned
    to it, in task order and then subtask order.  Raises ValueError if the
    assignment misses any subtask, or, in the validator's words, if a task
    or subtask id cannot key it."""
    mapping = pa.mapping
    by_proc: dict[int, list[tuple[int, int]]] = {}
    for i, task in enumerate(ts):
        for k, st in enumerate(task.subtasks):
            try:
                proc = mapping[task.id, st.id]
            except KeyError:
                raise ValueError(
                    f"assignment does not cover task {task.id} subtask {st.id}"
                ) from None
            except TypeError:  # an id that cannot key the mapping
                _require_keyed_ids(task, ts.name)
                raise
            by_proc.setdefault(proc, []).append((i, k))
    return by_proc


def processor_items(
    ts: TaskSet, pa: PartitionedAssignment
) -> dict[int, list[tuple[Fraction, Fraction, Fraction | None]]]:
    """Group the assigned subtasks into per-processor item lists.

    Each subtask becomes one (wcet, deadline, period) item: its own wcet
    and its task's deadline and period.  Raises if the assignment misses
    any subtask.
    """
    tasks = ts.tasks
    return {
        proc: [
            (tasks[i].subtasks[k].wcet, tasks[i].deadline, tasks[i].period)
            for i, k in placed
        ]
        for proc, placed in _assigned(ts, pa).items()
    }


# shape -> [(processor, placed), ...]: see :func:`_partition`
_Groups = dict[tuple[tuple[int, int], ...] | int, list[tuple[int, list[tuple[int, int]]]]]


def _partition(ts: TaskSet, pa: PartitionedAssignment, plat: Platform) -> _Groups:
    """The processors of :func:`_assigned` grouped by job shape, shapes and
    processors in the order the assignment first reaches them, after
    checking that a partitioned analysis or simulation applies: every task
    edge-free (subtasks are placed as independent items), every subtask
    assigned, and every processor within the platform.  The checks run in
    that order, and the set's ticks are read only after them.

    A processor's job shape is the task index and wcet in ticks of each
    of its placed subtasks, in placed order; or the processor itself, so
    that it stands alone, where one task id holds two or more of them.
    Processors of one shape carry one item list (see :func:`_tick_items`),
    kept in placed order, unsorted, so that a scan of it raises as a scan
    of each of them would: the demand test and table read only the list
    and the tick.

    They also give the same EDF runs but for their processor and subtask
    ids.  Their job lists, built per placed subtask from its task's
    releases, deadline and id and its own wcet, then stably sorted by
    release, differ only in subtask ids.
    :func:`fedsched.simulate._edf_on_one_processor` decides by comparing
    (deadline, task id, subtask id, position), and a subtask id decides a
    comparison only between two jobs of one task id and one absolute
    deadline.  One task id is one task here, so they share a
    relative deadline and hence a release, and as a period is positive a
    subtask has one job per release: the two are one job.  So every choice
    is the same; the stitching of back-to-back runs, which compares task
    and subtask ids, matches too, since each task id stands for one
    subtask; and ``late``, keyed by absolute deadline and task id, gets
    entries a second run would only repeat.
    """
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
    tasks, wcets = ts.tasks, ts._ticks.wcets
    groups: _Groups = {}
    for proc, placed in by_proc.items():
        shape = proc
        if len({tasks[i].id for i, _ in placed}) == len(placed):
            shape = tuple((i, wcets[i][k]) for i, k in placed)
        groups.setdefault(shape, []).append((proc, placed))
    return groups


def _tick_items(
    ts: TaskSet, placed: list[tuple[int, int]]
) -> list[tuple[int, int, int | None]]:
    """The items of the subtasks ``placed`` (from :func:`_assigned`) as
    (wcet, deadline, period) in ints of the set's tick."""
    wcets, deadline, period = ts._ticks.wcets, ts._ticks.deadline, ts._ticks.period
    return [(wcets[i][k], deadline[i], period[i]) for i, k in placed]


def _groups_feasible(ts: TaskSet, groups: _Groups, plat: Platform) -> bool:
    """:func:`partitioned_feasible` on the groups of :func:`_partition`:
    one scan per shape, of its first processor's items, in the order the
    shapes are placed, so the first that fails or raises is the one a
    scan of every processor would stop at."""
    p, q = plat.speed.numerator, plat.speed.denominator
    return all(
        _first_violation(_tick_items(ts, procs[0][1]), p, q, ts._ticks.scale) is None
        for procs in groups.values()
    )


def partitioned_feasible(
    ts: TaskSet, pa: PartitionedAssignment, plat: Platform
) -> bool:
    """Does every processor pass the demand test for its assigned subtasks?

    Subtasks are treated as independent sequential items, which is only
    faithful when tasks have no precedence edges; tasks with edges are
    rejected rather than analyzed optimistically.  Processors of one job
    shape share one scan (see :func:`_groups_feasible`), so the verdict
    and any error are those of a scan of every processor.
    """
    return _groups_feasible(ts, _partition(ts, pa, plat), plat)
