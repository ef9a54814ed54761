"""Task-set generators.

The central generator builds a parameterized family of one-shot task sets
that is feasible on M unit-speed processors yet forces any scheduler that
grants each parallel task a dedicated processor cluster to waste nearly
a factor of min(M, N) in speed.  A second generator produces random valid
task sets for property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .model import DagTask, Subtask, TaskSet, _is_int


@dataclass(frozen=True)
class CounterexampleParams:
    """Shape of one member of the adversarial family.

    Attributes:
        processors: the platform size the family is built for.
        n_tasks: how many tasks the set contains.
        ratio: the geometric growth factor between deadlines; may be any
            rational, not just an integer.

    All three must be at least 2.
    """

    processors: int
    n_tasks: int
    ratio: Fraction

    def __post_init__(self) -> None:
        for field in ("processors", "n_tasks"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 2:
                raise ValueError(f"{field} must be an integer >= 2, got {value}")
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.ratio < 2:
            raise ValueError(f"ratio must be at least 2, got {self.ratio}")


def build_counterexample(params: CounterexampleParams) -> TaskSet:
    """Build the adversarial task set for (M, N, K).

    Task 1 has work M and deadline 1; task i >= 2 has work
    K^(i-2) * (K-1) * M and deadline K^(i-1).  Every task is one-shot
    (period None) and splits into M independent subtasks of equal wcet,
    so its span is work / M.  The family satisfies, for every j,

        work(1) + ... + work(j) == M * deadline(j)

    which is why the whole set fits exactly on M unit-speed processors:
    run the tasks to completion in index order, spread evenly.
    """
    m, n, k = params.processors, params.n_tasks, params.ratio
    tasks = []
    for i in range(1, n + 1):
        if i == 1:
            total = Fraction(m)
            deadline = Fraction(1)
        else:
            total = Fraction(k ** (i - 2) * (k - 1) * m)
            deadline = Fraction(k ** (i - 1))
        per_subtask = total / m
        subtasks = tuple(Subtask(id=j, wcet=per_subtask) for j in range(1, m + 1))
        tasks.append(
            DagTask(
                id=i,
                wcet_total=total,
                deadline=deadline,
                period=None,
                subtasks=subtasks,
                edges=(),
            )
        )
    name = f"hard-M{m}-N{n}-K{k}"
    return TaskSet(name=name, tasks=tuple(tasks))


def random_task_set(seed: int, n_tasks: int | None = None) -> TaskSet:
    """Generate a random valid task set, deterministically from ``seed``.

    Fuzz input for property tests.  Each task has 1..6 subtasks; edges
    are sampled only from lower to higher subtask id (so the graph is
    acyclic by construction), subtask wcets are integers in 1..8, and
    deadlines always exceed the critical-path length, so every generated
    set passes validation.  Roughly half the tasks are one-shot; the rest
    get a period at or above the deadline.
    """
    if n_tasks is not None and (not _is_int(n_tasks) or n_tasks < 1):
        raise ValueError(f"n_tasks must be an integer >= 1, got {n_tasks!r}")
    rng = random.Random(seed)
    if n_tasks is None:
        n_tasks = rng.randint(1, 5)
    tasks = []
    for tid in range(1, n_tasks + 1):
        n_sub = rng.randint(1, 6)
        subtasks = tuple(
            Subtask(id=j, wcet=Fraction(rng.randint(1, 8)))
            for j in range(1, n_sub + 1)
        )
        edges = []
        for a in range(1, n_sub + 1):
            for b in range(a + 1, n_sub + 1):
                if rng.random() < 0.3:
                    edges.append((a, b))
        task = DagTask(
            id=tid,
            wcet_total=sum((st.wcet for st in subtasks), Fraction(0)),
            deadline=Fraction(1),  # placeholder, fixed below
            period=None,
            subtasks=subtasks,
            edges=tuple(edges),
        )
        # deadline must cover the critical path or no schedule can exist
        deadline = task.span + Fraction(rng.randint(1, 10))
        period = None
        if rng.random() < 0.5:
            period = deadline + Fraction(rng.randint(0, 10))
        tasks.append(replace(task, deadline=deadline, period=period))
    return TaskSet(name=f"random-{seed}", tasks=tuple(tasks))
