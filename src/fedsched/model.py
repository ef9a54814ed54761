"""Sporadic DAG task model: subtasks, tasks, task sets and platforms.

A task releases jobs separated by at least its period; each job is a DAG of
subtasks.  A ``None`` period marks a one-shot task (a single job, released
at time 0).  Construction is deliberately permissive: structural problems
are data, reported by :func:`validate_task_set`, not construction errors.
It refuses only what it cannot store: a time that ``Fraction`` cannot
read as a rational (TypeError, ValueError or OverflowError), an edge that
is not a pair (TypeError or ValueError from unpacking it), and subtasks,
edges or tasks that are not iterable (TypeError).
All quantities are exact rationals; all types are immutable values and all
operations are pure functions.  Inside, the decision layers read a task
set's times as ints on one tick (see :class:`_Ticks`); ``Fraction`` is
built only where values enter and leave the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Collection, Iterable, Mapping, Sequence


def _exact(value) -> Fraction:
    """``value`` as an exact Fraction: a Fraction itself as it is (the
    loader and the generators already built it), anything else coerced."""
    return value if type(value) is Fraction else Fraction(value)


def _positive_speed(value) -> Fraction:
    """``value`` as an exact Fraction; ValueError unless it is positive."""
    speed = _exact(value)
    if speed.numerator <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    return speed


@dataclass(frozen=True, init=False)
class Subtask:
    """One unit of sequential execution inside a task's job.

    Attributes:
        id: index of the subtask within its task.
        wcet: worst-case execution time at unit speed (must be positive
            for the task to validate).
    """

    id: int
    wcet: Fraction

    def __init__(self, id: int, wcet: Fraction) -> None:
        # each field set once (a __post_init__ would set wcet twice): the
        # loader builds one per subtask
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "wcet", _exact(wcet))


def work(task: DagTask) -> Fraction:
    """Total work of a job: the sum of its subtask wcets."""
    scale, wcets = task._own_ticks()
    return Fraction(sum(wcets), scale)


def span(task: DagTask) -> Fraction:
    """Length of the longest precedence path, by topological longest-path.

    This is the minimum completion time of the job on unboundedly many
    unit-speed processors.  Raises ValueError (uncached) if the edges are
    cyclic.
    """
    scale, wcets = task._own_ticks()
    return Fraction(task._span_in(wcets), scale)


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
        object.__setattr__(self, "wcet_total", _exact(self.wcet_total))
        object.__setattr__(self, "deadline", _exact(self.deadline))
        if self.period is not None:
            object.__setattr__(self, "period", _exact(self.period))
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))

    # Derived values, computed on first use and kept in the instance
    # __dict__: they take no part in equality, hashing, repr or the
    # JSON encoding, and dataclasses.replace starts afresh.  work and span
    # are the module functions of those names.

    work = cached_property(work)
    span = cached_property(span)

    @cached_property
    def successors(self) -> Mapping[int, tuple[int, ...]]:
        """Subtask id -> ids of its successors, over the edges whose
        endpoints are both known subtasks (a duplicate edge repeats; an id
        that cannot key a dict is not known)."""
        try:
            if not self.edges:
                return dict.fromkeys((st.id for st in self.subtasks), ())
            succ: dict[int, list[int]] = {st.id: [] for st in self.subtasks}
        except TypeError:  # an unhashable id among them
            succ = {st.id: [] for st in self.subtasks if _can_key(st.id)}
        for a, b in self.edges:
            try:
                if a in succ and b in succ:
                    succ[a].append(b)
            except TypeError:  # an unhashable endpoint is no subtask id
                pass
        return {sid: tuple(nxt) for sid, nxt in succ.items()}

    @cached_property
    def topological_order(self) -> tuple[int, ...] | None:
        """The distinct subtask ids in a precedence-respecting order (Kahn's
        algorithm), or None when the known-id edges contain a cycle."""
        if not self.edges:  # nothing to order: the ids as they come
            return tuple(self.successors)
        succ = self.successors
        indegree = dict.fromkeys(succ, 0)
        for nexts in succ.values():
            for b in nexts:
                indegree[b] += 1
        # the queue: read while it grows, it is the order itself
        order = [sid for sid, n in indegree.items() if n == 0]
        for sid in order:
            for nxt in succ[sid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    order.append(nxt)
        return tuple(order) if len(order) == len(succ) else None

    def _own_ticks(self) -> tuple[int, list[int]]:
        """The task's own tick and its subtask wcets in it, in subtask order."""
        scale = _tick(st.wcet for st in self.subtasks)
        return scale, [_in_ticks(st.wcet, scale) for st in self.subtasks]

    def _span_in(self, wcets: Sequence[int]) -> int:
        """The longest precedence path over ``wcets``, the subtask wcets as
        ints of one tick in subtask order; raises ValueError on a cycle."""
        order = self.topological_order
        if order is None:
            raise ValueError(f"task {self.id}: dependency cycle among subtasks")
        ids = [st.id for st in self.subtasks]
        try:
            wcet, best = dict(zip(ids, wcets)), 0
        except TypeError:  # a subtask no edge can name is a path alone
            wcet = {sid: w for sid, w in zip(ids, wcets) if _can_key(sid)}
            best = max(0, *(w for sid, w in zip(ids, wcets) if not _can_key(sid)))
        if not self.edges:  # the longest path is one subtask (or none)
            return max(best, max(wcet.values(), default=0))
        # reach[b]: the longest path ending at some predecessor of b
        reach: dict[int, int] = {}
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
        return _Ticks(self.tasks)


# Most bits a tick view's values may take together, counted as the tick's
# bit length times the number of values.  Rescaling costs time in proportion
# to that, and distinct large denominators grow the tick with every value,
# so a larger view ends with ValueError instead of running for minutes.
MAX_TICK_BITS = 2**27


def _tick(values: Iterable[Fraction | int | None]) -> int:
    """The tick of a set of rationals: the lcm of their denominators (None
    skipped), so that each is a whole number of ticks of 1/tick.  Raises
    ValueError when the values on that tick would take more than
    ``MAX_TICK_BITS``."""
    denominators = [v.denominator for v in values if v is not None]
    tick = 1
    for d in set(denominators):
        tick = lcm(tick, d)
        if tick.bit_length() * len(denominators) > MAX_TICK_BITS:
            raise ValueError(
                f"the lcm of the times' denominators reaches {tick.bit_length()} "
                f"bits; {len(denominators)} times on that tick exceed the limit "
                f"of {MAX_TICK_BITS} bits"
            )
    return tick


def _in_ticks(value: Fraction | int | None, scale: int) -> int | None:
    """``value * scale`` for a ``scale`` that ``value``'s denominator
    divides; None stays None."""
    return None if value is None else value.numerator * (scale // value.denominator)


class _Ticks:
    """Every time of some tasks as an int count of ticks of ``1/scale``.

    ``scale`` is the :func:`_tick` of every subtask wcet, deadline and
    period, so work, span, deadlines, periods and wcets are all ints; the
    tuples run in task order, ``wcets`` in each task's subtask order, and
    ``span`` is None for a task with a dependency cycle.  A speed ``p/q``
    enters the decisions only as ``q * x <= p * y`` between tick counts.
    ``firstfit`` keeps the allocator's first-fit run at each speed (p, q);
    only :mod:`fedsched.federated` writes it (see
    :func:`fedsched.federated.allocate_federated`).  The last four fields
    are what the brute-force oracle keeps on the set, empty until its
    first call; only :mod:`fedsched.explore` writes them (see
    :func:`fedsched.explore.brute_force_federated_oracle`).
    """

    __slots__ = ("scale", "work", "span", "deadline", "period", "wcets", "items",
                 "firstfit", "refusal", "needs", "groups", "makespans")

    def __init__(self, tasks: tuple[DagTask, ...]) -> None:
        self.scale = scale = _tick(
            v
            for task in tasks
            for v in (task.deadline, task.period, *(st.wcet for st in task.subtasks))
        )

        # the loader shares one Fraction per distinct rational-string, so
        # each object is scaled once; the tasks keep every id alive
        memo: dict[int, int | None] = {}

        def each(values):
            out = []
            for v in values:
                key = id(v)
                if key not in memo:
                    memo[key] = _in_ticks(v, scale)
                out.append(memo[key])
            return tuple(out)

        self.wcets = wcets = tuple(each(st.wcet for st in task.subtasks) for task in tasks)
        self.work = work = tuple(map(sum, wcets))
        self.deadline = deadline = each(task.deadline for task in tasks)
        self.period = period = each(task.period for task in tasks)
        self.span = tuple(
            None if task.topological_order is None else task._span_in(w)
            for task, w in zip(tasks, wcets)
        )
        self.items = tuple(zip(work, deadline, period))
        self.firstfit: dict = {}  # (p, q): federated._FirstFit
        self.refusal: str | None = None  # "" when the set is in the oracle's domain
        self.needs: list[tuple[int, int, int]] = []  # (p, q, need)
        self.groups: dict[int, tuple[int, int]] = {}  # mask: (a, b)
        self.makespans: dict[tuple[int, int], int] = {}  # (index, m): ticks


@dataclass(frozen=True)
class Platform:
    """An identical-multiprocessor platform: processor count and speed."""

    processors: int
    speed: Fraction

    def __post_init__(self) -> None:
        if not _is_int(self.processors) or self.processors < 1:
            raise ValueError(f"processors must be a positive integer, got {self.processors}")
        object.__setattr__(self, "speed", _positive_speed(self.speed))


def validate_task_set(ts: TaskSet) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the task set is valid.  Violations are data, not
    failures: a set that was built (its times rationals, its edges pairs;
    see the module docstring) is reported on, never refused.  The times are
    compared on the set's tick view, which the engines then reuse; building
    it raises ValueError when its values would take more than
    ``MAX_TICK_BITS`` (see :func:`_tick`).
    """
    ids = [task.id for task in ts.tasks]
    violations = [
        f"task set {ts.name!r}: task id {tid!r} is not an integer"
        for tid in ids if not _is_int(tid)
    ]
    if not violations and sorted(ids) != list(range(1, len(ids) + 1)):
        violations.append(
            f"task set {ts.name!r}: task ids not unique and contiguous from 1: {ids}"
        )
    t = ts._ticks
    for task, *times in zip(ts.tasks, t.wcets, t.work, t.deadline, t.period):
        violations.extend(_validate_task(task, t.scale, *times))
    return violations


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON's true is not an id)."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def _can_key(value) -> bool:
    """True when ``value`` can key a dict (a list, say, cannot)."""
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _require_keyed_ids(task: DagTask, set_name: str | None = None) -> None:
    """Refuse, in :func:`validate_task_set`'s words, an id that cannot key
    a dict: each subtask id of ``task``, and with the name of its set
    given, the task's own id.  The partition, the list scheduler and
    :func:`fedsched.simulate.check_trace` keep their work per id."""
    if set_name is not None and not _can_key(task.id):
        raise ValueError(f"task set {set_name!r}: task id {task.id!r} is not an integer")
    for st in task.subtasks:
        if not _can_key(st.id):
            raise ValueError(f"task {task.id}: subtask id {st.id!r} is not an integer")


def _distinct(values: Sequence) -> Collection:
    """Each distinct value once, in order: by hash, or by equality alone
    when one cannot be hashed."""
    try:
        return dict.fromkeys(values)
    except TypeError:
        return [v for i, v in enumerate(values) if v not in values[:i]]


def _validate_task(task: DagTask, scale: int, wcets, work, deadline, period) -> list[str]:
    """``task``'s violations, its times given as ints of ``1/scale`` (see
    :class:`_Ticks`); a Fraction is built only to word a work mismatch."""
    v: list[str] = []
    tag = f"task {task.id}"
    sids = [st.id for st in task.subtasks]
    for sid in sids:
        if not _is_int(sid):
            v.append(f"{tag}: subtask id {sid!r} is not an integer")
    if len(_distinct(sids)) != len(sids):
        v.append(f"{tag}: duplicate subtask ids: {sids}")
    for st, wcet in zip(task.subtasks, wcets):
        if wcet <= 0:
            v.append(f"{tag}: nonpositive wcet {st.wcet} on subtask {st.id}")
    total = task.wcet_total
    if work * total.denominator != total.numerator * scale:
        v.append(
            f"{tag}: work mismatch: subtasks sum to {Fraction(work, scale)}, "
            f"declared total is {total}"
        )
    if deadline <= 0:
        v.append(f"{tag}: nonpositive deadline {task.deadline}")
    if period is not None:
        if period <= 0:
            v.append(f"{tag}: nonpositive period {task.period}")
        elif deadline > period:
            v.append(f"{tag}: deadline {task.deadline} exceeds period {task.period}")
    known = task.successors
    for a, b in _distinct(task.edges):
        if not (_is_int(a) and _is_int(b)):
            v.append(f"{tag}: edge ({a!r}, {b!r}) has an endpoint that is not an integer")
        elif a not in known or b not in known:
            v.append(f"{tag}: edge ({a}, {b}) references an unknown subtask")
    if task.topological_order is None:
        v.append(f"{tag}: dependency cycle among subtasks")
    return v
