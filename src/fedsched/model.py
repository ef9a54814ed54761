"""Sporadic DAG task model: subtasks, tasks, task sets and platforms.

A task releases jobs separated by at least its period; each job is a DAG of
subtasks.  A ``None`` period marks a one-shot task (a single job, released
at time 0).  Construction is deliberately permissive: structural problems
are data, reported by :func:`validate_task_set`, not construction errors.
All quantities are exact rationals; all types are immutable values and all
operations are pure functions.  Inside, the decision layers read a task
set's times as ints on one tick (see :class:`_Ticks`); ``Fraction`` is
built only where values enter and leave the package.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, NamedTuple


@dataclass(frozen=True)
class Subtask:
    """One unit of sequential execution inside a task's job.

    Attributes:
        id: index of the subtask within its task.
        wcet: worst-case execution time at unit speed (must be positive
            for the task to validate).
    """

    id: int
    wcet: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "wcet", Fraction(self.wcet))


@dataclass(frozen=True)
class DagTask:
    """A sporadic task whose job decomposes into a DAG of subtasks.

    Attributes:
        id: 1-based index within the task set.
        wcet_total: declared total work; valid tasks have it equal to the
            sum of subtask wcets.
        deadline: relative deadline, > 0.
        period: minimum inter-arrival time (>= deadline for a valid
            constrained-deadline task), or None for a one-shot task.
        subtasks: the job's subtasks.
        edges: precedence pairs (predecessor subtask id, successor
            subtask id); must be acyclic for a valid task.  A pair
            listed twice is valid and means the same as once: it repeats
            in ``successors``, and every reader (span, the topological
            order, the list scheduler) counts it consistently.
    """

    id: int
    wcet_total: Fraction
    deadline: Fraction
    period: Fraction | None
    subtasks: tuple[Subtask, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "wcet_total", Fraction(self.wcet_total))
        object.__setattr__(self, "deadline", Fraction(self.deadline))
        if self.period is not None:
            object.__setattr__(self, "period", Fraction(self.period))
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(
            self, "edges", tuple((int(a), int(b)) for a, b in self.edges)
        )

    # Derived values, computed on first use and kept in the instance
    # __dict__: they take no part in equality, hashing, repr or the
    # JSON encoding, and dataclasses.replace starts afresh.

    @cached_property
    def work(self) -> Fraction:
        """Total work of a job: the sum of its subtask wcets."""
        scale, wcets = self._own_ticks()
        return Fraction(sum(wcets), scale)

    @cached_property
    def successors(self) -> Mapping[int, tuple[int, ...]]:
        """Subtask id -> ids of its successors, over the edges whose
        endpoints are both known subtasks (a duplicate edge repeats)."""
        succ: dict[int, list[int]] = {st.id: [] for st in self.subtasks}
        for a, b in self.edges:
            if a in succ and b in succ:
                succ[a].append(b)
        return {sid: tuple(nxt) for sid, nxt in succ.items()}

    @cached_property
    def topological_order(self) -> tuple[int, ...] | None:
        """The distinct subtask ids in a precedence-respecting order (Kahn's
        algorithm), or None when the known-id edges contain a cycle."""
        indegree = Counter(b for nexts in self.successors.values() for b in nexts)
        queue = deque(sid for sid in self.successors if indegree[sid] == 0)
        order: list[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in self.successors[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        return tuple(order) if len(order) == len(self.successors) else None

    @cached_property
    def span(self) -> Fraction:
        """Longest precedence path; raises ValueError (uncached) on a cycle."""
        scale, wcets = self._own_ticks()
        return Fraction(self._span_in(wcets), scale)

    def _own_ticks(self) -> tuple[int, list[int]]:
        """The task's own tick and its subtask wcets in it, in subtask order."""
        scale = _tick(st.wcet for st in self.subtasks)
        return scale, [_in_ticks(st.wcet, scale) for st in self.subtasks]

    def _span_in(self, wcets: Iterable[int]) -> int:
        """The longest precedence path over ``wcets``, the subtask wcets as
        ints of one tick in subtask order; raises ValueError on a cycle."""
        order = self.topological_order
        if order is None:
            raise ValueError(f"task {self.id}: dependency cycle among subtasks")
        wcet = dict(zip((st.id for st in self.subtasks), wcets))
        # reach[b]: the longest path ending at some predecessor of b
        reach: dict[int, int] = {}
        best = 0
        for sid in order:
            end = reach.get(sid, 0) + wcet[sid]
            if end > best:
                best = end
            for nxt in self.successors[sid]:
                if nxt not in reach or end > reach[nxt]:
                    reach[nxt] = end
        return best


@dataclass(frozen=True)
class TaskSet:
    """An ordered collection of tasks with a text label."""

    name: str
    tasks: tuple[DagTask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))

    def __iter__(self):
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    @cached_property
    def _ticks(self) -> _Ticks:
        """The set's times in ticks, built on first use and kept like
        ``DagTask``'s derived values."""
        return _Ticks.of(self.tasks)


def _tick(values: Iterable[Fraction | int | None]) -> int:
    """The tick of a set of rationals: the lcm of their denominators (None
    skipped), so that each is a whole number of ticks of 1/tick."""
    return lcm(*(v.denominator for v in values if v is not None))


def _in_ticks(value: Fraction | int | None, scale: int) -> int | None:
    """``value * scale`` for a ``scale`` that ``value``'s denominator
    divides; None stays None."""
    return None if value is None else value.numerator * (scale // value.denominator)


class _Ticks(NamedTuple):
    """Every time of some tasks as an int count of ticks of ``1/scale``.

    ``scale`` is the :func:`_tick` of every subtask wcet, deadline and
    period, so work, span, deadlines, periods and wcets are all ints; the
    tuples run in task order, ``wcets`` in each task's subtask order, and
    ``span`` is None for a task with a dependency cycle.  A speed ``p/q``
    enters the decisions only as ``q * x <= p * y`` between tick counts.
    ``makespans`` caches the unit-speed list-schedule makespan, in ticks,
    of each (task index, cluster size) pair that has been asked for.
    """

    scale: int
    work: tuple[int, ...]
    span: tuple[int | None, ...]
    deadline: tuple[int, ...]
    period: tuple[int | None, ...]
    wcets: tuple[tuple[int, ...], ...]
    items: tuple[tuple[int, int, int | None], ...]  # (work, deadline, period)
    makespans: dict[tuple[int, int], int]

    @classmethod
    def of(cls, tasks: Iterable[DagTask]) -> _Ticks:
        tasks = tuple(tasks)
        scale = _tick(
            v
            for task in tasks
            for v in (task.deadline, task.period, *(st.wcet for st in task.subtasks))
        )

        def each(values):
            return tuple(_in_ticks(v, scale) for v in values)

        wcets = tuple(each(st.wcet for st in task.subtasks) for task in tasks)
        work = tuple(map(sum, wcets))
        deadline = each(task.deadline for task in tasks)
        period = each(task.period for task in tasks)
        span = tuple(
            None if task.topological_order is None else task._span_in(w)
            for task, w in zip(tasks, wcets)
        )
        items = tuple(zip(work, deadline, period))
        return cls(scale, work, span, deadline, period, wcets, items, {})


@dataclass(frozen=True)
class Platform:
    """An identical-multiprocessor platform: processor count and speed."""

    processors: int
    speed: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.processors, int) or self.processors < 1:
            raise ValueError(f"processors must be a positive integer, got {self.processors}")
        object.__setattr__(self, "speed", Fraction(self.speed))
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")


# DagTask.work and DagTask.span as functions.  Nothing in the package calls
# them and they are not exported; they stay only because the benchmark's
# tracer hooks them by name (perfbench/tracer.py, tests/test_api.py::TRACED).


def work(task: DagTask) -> Fraction:
    """Total work of a job: the sum of its subtask wcets."""
    return task.work


def span(task: DagTask) -> Fraction:
    """Length of the longest precedence path, by topological longest-path.

    This is the minimum completion time of the job on unboundedly many
    unit-speed processors.  Raises ValueError if the edges are cyclic.
    """
    return task.span


def validate_task_set(ts: TaskSet) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the task set is valid.  Violations are data, not
    failures: building an invalid task set never raises.
    """
    violations: list[str] = []
    ids = [task.id for task in ts.tasks]
    if sorted(ids) != list(range(1, len(ids) + 1)):
        violations.append(
            f"task set {ts.name!r}: task ids not unique and contiguous from 1: {ids}"
        )
    for task in ts.tasks:
        violations.extend(_validate_task(task))
    return violations


def _validate_task(task: DagTask) -> list[str]:
    v: list[str] = []
    tag = f"task {task.id}"
    sids = [st.id for st in task.subtasks]
    if len(set(sids)) != len(sids):
        v.append(f"{tag}: duplicate subtask ids: {sids}")
    for st in task.subtasks:
        if st.wcet <= 0:
            v.append(f"{tag}: nonpositive wcet {st.wcet} on subtask {st.id}")
    total = task.work
    if total != task.wcet_total:
        v.append(
            f"{tag}: work mismatch: subtasks sum to {total}, "
            f"declared total is {task.wcet_total}"
        )
    if task.deadline <= 0:
        v.append(f"{tag}: nonpositive deadline {task.deadline}")
    if task.period is not None:
        if task.period <= 0:
            v.append(f"{tag}: nonpositive period {task.period}")
        elif task.deadline > task.period:
            v.append(f"{tag}: deadline {task.deadline} exceeds period {task.period}")
    known = task.successors
    for a, b in dict.fromkeys(task.edges):  # each distinct edge once, in order
        if a not in known or b not in known:
            v.append(f"{tag}: edge ({a}, {b}) references an unknown subtask")
    if task.topological_order is None:
        v.append(f"{tag}: dependency cycle among subtasks")
    return v
