"""Exact discrete-event simulation.

Two engines: preemptive earliest-deadline-first independently on each
processor of a static partition, and non-preemptive greedy execution of
one DAG job on a dedicated cluster.  Both advance from event to event on
exact int ticks of the task set (see :class:`fedsched.model._Ticks`) and
build ``Fraction`` timestamps only for the trace, so a completion that
analytically lands exactly on a deadline lands exactly on it in the trace
too.  Both are deterministic: identical inputs produce identical traces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .feasibility import (
    MAX_DEMAND_STEPS,
    PartitionedAssignment,
    _Groups,
    _horizon,
    _partition,
)
from .model import DagTask, Platform, TaskSet, _is_int, _positive_speed, _require_keyed_ids
from .rational import format_rational


class Interval(NamedTuple):
    """One contiguous stretch of execution on one processor."""

    processor: int
    task: int
    subtask: int
    start: Fraction
    end: Fraction


class DeadlineMiss(NamedTuple):
    """A job that finished after its absolute deadline.

    completion None means the job never finished within the trace.
    """

    task: int
    deadline: Fraction
    completion: Fraction | None


@dataclass(frozen=True)
class ScheduleTrace:
    """Everything one simulation run produced.

    horizon is the release cutoff that was in effect (None for a
    single-job run); execution itself is never truncated: every released
    job runs to completion, so misses are always observable.
    """

    speed: Fraction
    horizon: Fraction | None
    intervals: tuple[Interval, ...]
    misses: tuple[DeadlineMiss, ...]

    @property
    def makespan(self) -> Fraction:
        return max((iv.end for iv in self.intervals), default=Fraction(0))


def _job_count(task: DagTask, horizon: Fraction | None) -> int:
    """Jobs ``task`` releases up to and including ``horizon`` in the
    synchronous pattern: one for a one-shot task or a single-job run
    (horizon None), otherwise one at every multiple of the period."""
    if task.period is None or horizon is None:
        return 1
    return max(0, int(horizon // task.period) + 1)


def _edf_on_one_processor(
    proc: int,
    jobs: list[tuple[int, int, int, int, int]],
    late: dict[tuple[int, int], int],
) -> list[tuple[int, int, int, int, int]]:
    """Preemptive EDF of ``jobs`` on processor ``proc``, in integer ticks.

    Each job is (release, absolute deadline, task id, subtask id, ticks of
    execution), sorted by release.  Ties are broken by (absolute deadline,
    task id, subtask id, position in ``jobs``), and the position orders
    jobs as their release does; all jobs run to completion.  Returns the
    runs as (proc, task id, subtask id, start, end), back-to-back runs of
    one subtask merged, and records in ``late``, per (absolute deadline,
    task id), the latest tick at which one of its subtask jobs finished
    after that deadline.  A job released onto an idle processor that is
    done by the next release, strictly later, is compared with no other
    job, so it runs without entering the heap.
    """
    heap: list[tuple[int, int, int, int]] = []
    left = [job[4] for job in jobs]
    out: list[tuple[int, int, int, int, int]] = []
    run = None  # the open run: [proc, task, subtask, start, end]
    time = 0
    next_idx = 0
    n = len(jobs)
    while next_idx < n or heap:
        if not heap:
            # idle until the next release
            time = max(time, jobs[next_idx][0])
        if not heap and (
            next_idx + 1 == n or time + left[next_idx] <= jobs[next_idx + 1][0] > time
        ):
            # done by the next, strictly later, release, the job meets no
            # other one: it runs alone, off the heap
            _, deadline, task, subtask, _ = jobs[next_idx]
            idx = next_idx
            next_idx += 1
            run_until = time + left[idx]
        else:
            while next_idx < n and jobs[next_idx][0] <= time:
                _, deadline, task, subtask, _ = jobs[next_idx]
                heapq.heappush(heap, (deadline, task, subtask, next_idx))
                next_idx += 1
            deadline, task, subtask, idx = heap[0]
            run_until = time + left[idx]
            if next_idx < n and jobs[next_idx][0] < run_until:
                run_until = jobs[next_idx][0]  # re-evaluate priorities there
        if run_until > time:
            # a preemption check that turned out not to preempt splits a
            # run in two; stitch back-to-back runs of one subtask together
            if run is not None and run[4] == time and run[1] == task and run[2] == subtask:
                run[4] = run_until
            else:
                if run is not None:
                    out.append(tuple(run))
                run = [proc, task, subtask, time, run_until]
            left[idx] -= run_until - time
        time = run_until
        if left[idx] == 0:
            if heap:  # empty when the job ran alone
                heapq.heappop(heap)
            if time > deadline:
                key = (deadline, task)
                if time > late.get(key, deadline):
                    late[key] = time
    if run is not None:
        out.append(tuple(run))
    return out


def _replay(
    proc: int,
    jobs: list[tuple[int, int, int, int, int]],
    hyper: int,
    copies: int,
    cut: int,
    late: dict[tuple[int, int], int],
) -> list[tuple[list, int]]:
    """:func:`_edf_on_one_processor` over ``copies`` copies of ``jobs``,
    all released before ``hyper`` and none of them pending there, the
    k-th shifted by ``k*hyper``, then over those released by ``cut``,
    shifted by ``copies*hyper``: one run of ``jobs`` and one of the cut,
    handed out as blocks (runs, shift), each a nonempty list of kernel
    runs whose times are to be shifted by ``shift``, with the copies'
    runs shared (see :func:`_simulate_ticks`).  With no copies, that is
    the one run over ``jobs``."""
    seg, seg_late, tail_late = [], {}, {}
    if copies:
        seg = _edf_on_one_processor(proc, jobs, seg_late)
        jobs = [job for job in jobs if job[0] <= cut]
    tail = _edf_on_one_processor(proc, jobs, tail_late)
    blocks = []
    for k in range(copies + 1):
        shift = k * hyper
        part, part_late = (seg, seg_late) if k < copies else (tail, tail_late)
        for (deadline, task), done in part_late.items():
            key, done = (deadline + shift, task), done + shift
            late[key] = max(late.get(key, done), done)
        if blocks and part:
            runs, at = blocks[-1]
            _, task, subtask, start, end = runs[-1]
            if end + at == part[0][3] + shift and (task, subtask) == part[0][1:3]:
                # the kernel's own stitch of back-to-back runs of one
                # subtask: the two runs leave their blocks as one run
                blocks.pop()
                if len(runs) > 1:
                    blocks.append((runs[:-1], at))
                blocks.append(([(proc, task, subtask, start + at, part[0][4] + shift)], 0))
                part = part[1:]
        if part:
            blocks.append((part, shift))
    return blocks


def _simulate_ticks(
    ts: TaskSet,
    groups: _Groups,
    plat: Platform,
    horizon: Fraction | None,
) -> tuple[
    int,
    Fraction,
    list[tuple],
    list[tuple[int, int, int]],
]:
    """:func:`simulate_partitioned_edf` on int ticks, on the groups of
    :func:`fedsched.feasibility._partition`: the tick scale, the horizon in
    effect, the runs as blocks in processor order and the misses as
    (deadline, task id, completion) in (deadline, task id) order, every
    time in ticks of ``1/scale``.  EDF runs once per job shape, on its
    first processor, and the others of that shape take its blocks
    relabelled.

    A block (processor, runs, shift, relabel) stands for the runs
    (processor, task id, subtask id, start + shift, end + shift), one per
    kernel run (_, task id, subtask id, start, end) in the nonempty list
    ``runs``, with the subtask id ``relabel[task id]`` when ``relabel``
    is not None.  Lists of runs are shared between blocks, and nothing is
    built per run until the output is.

    A first processor whose placed tasks all recur, with hyperperiod ``H``
    (the lcm of their periods, in these ticks) up to the last release,
    runs EDF only over the jobs released before ``H`` when none of them
    is left pending at ``H``; that run is copied, shifted by ``k*H``, for
    each whole hyperperiod, and one more run of those jobs up to the
    leftover cut, shifted into place, ends the trace: a block per copy,
    all sharing the one run (see :func:`_replay`).  That is the run over
    every job:

    - EDF compares only instants and (deadline, task id, subtask id,
      position), positions follow releases, and a shift by ``H`` keeps
      every comparison;
    - every period divides ``H``, so the jobs released in
      ``[k*H, (k+1)*H)`` are the first ones shifted, in the same order;
    - before ``H``, only the jobs released before ``H`` matter;
    - with no backlog at ``H``, the state at ``H`` is the state at 0.

    Whether a job is pending at ``H`` is known before any run from the
    work ``W`` of the jobs released before ``H``.  EDF idles only on an
    empty heap, and every period divides ``H``, so the work released in
    ``[t, H)`` is at most ``(H - t)*W/H``.  For ``W < H`` the last run
    thus ends before ``H``; for ``W == H`` it ends at ``H``, where a job
    of no work may still wait behind the next copy's jobs; for ``W > H``
    work is left at ``H``.  At each junction, back-to-back runs of one
    subtask are joined by the kernel's own rule, and each entry of
    ``late`` is shifted with them, keeping the larger completion where
    two meet.  A processor with a backlog at ``H``, a one-shot task or a
    last release before ``H`` takes no copies: one run over all of its
    jobs.

    The misses are the entries of ``late``, one per absolute deadline
    and task id that a job finished after, at its latest such finish; a
    task with no subtask is done at each release."""
    ticks = ts._ticks
    for task, period, wcets in zip(ts, ticks.period, ticks.wcets):
        if period is not None and period <= 0:
            raise ValueError(
                f"task {task.id}: period must be positive, got {task.period}"
            )
        if min(wcets, default=0) < 0:
            raise ValueError(f"task {task.id}: a negative wcet never finishes")
    if horizon is None:
        # the placed subtasks' deadlines and periods are their tasks'
        items = [item for task, item in zip(ts, ticks.items) if task.subtasks]
        horizon = Fraction(_horizon(items, ticks.scale), ticks.scale)
    else:
        horizon = Fraction(horizon)
        if horizon < 0:
            raise ValueError(
                f"horizon must be nonnegative, got {format_rational(horizon)}"
            )

    # ticks of 1/(S*p) for the set's tick S and speed p/q: a time of x
    # ticks of 1/S is x*p of them, and wcet w runs for w*q of them
    p, q = plat.speed.numerator, plat.speed.denominator
    # release instants; a one-shot task's one job is released at 0
    release_table = [
        range(0, _job_count(task, horizon) * period * p, period * p) if period else range(1)
        for task, period in zip(ts, ticks.period)
    ]
    # a range's length, which len() cannot give past sys.maxsize; a task
    # with no subtask and a negative deadline misses at each release
    count = sum(
        max(len(task.subtasks), deadline < 0) * (r.stop // r.step)
        for task, r, deadline in zip(ts, release_table, ticks.deadline)
    )
    if count > MAX_DEMAND_STEPS:
        raise ValueError(
            f"simulation to horizon {format_rational(horizon)} releases {count} "
            f"subtask jobs, more than the limit of {MAX_DEMAND_STEPS}"
        )
    deadlines = [deadline * p for deadline in ticks.deadline]

    def jobs_of(placed, until=0):
        # the jobs of ``placed``, by release; if ``until`` is given, those
        # released before it, which every placed task then releases
        jobs = []
        for i, k in placed:
            tid, deadline = ts.tasks[i].id, deadlines[i]
            sid, work = ts.tasks[i].subtasks[k].id, ticks.wcets[i][k] * q
            releases = range(0, until, ticks.period[i] * p) if until else release_table[i]
            jobs.extend((r, r + deadline, tid, sid, work) for r in releases)
        jobs.sort(key=itemgetter(0))
        return jobs

    # the subtask jobs of one task job share its deadline, so the job is
    # late exactly when one of them finishes late, and then it completes
    # at the latest of those
    late: dict[tuple[int, int], int] = {}
    blocks_of: dict[int, list[tuple]] = {}
    for (first, placed), *others in groups.values():
        # the placed tasks' hyperperiod, 0 when one of them is one-shot
        hyper = lcm(*(ticks.period[i] or 0 for i, _ in placed)) * p
        last = max(release_table[i][-1] for i, _ in placed)
        copies = 0
        if 0 < hyper <= last:
            # the work of the jobs released before ``hyper``
            wcets = [ticks.wcets[i][k] * q for i, k in placed]
            work = sum(hyper // (ticks.period[i] * p) * w for (i, _), w in zip(placed, wcets))
            if work < hyper or work == hyper and all(wcets):
                # the whole hyperperiods end by every task's first
                # release past the horizon
                copies = min(release_table[i].stop for i, _ in placed) // hyper
        jobs = jobs_of(placed, hyper if copies else 0)
        replayed = _replay(first, jobs, hyper, copies, last - copies * hyper, late)
        blocks_of[first] = [(first, runs, shift, None) for runs, shift in replayed]
        for proc, placed in others:
            # each task id here stands for one subtask: relabel by task id
            sids = {ts.tasks[i].id: ts.tasks[i].subtasks[k].id for i, k in placed}
            blocks_of[proc] = [(proc, runs, shift, sids) for runs, shift in replayed]

    for task, releases, deadline in zip(ts, release_table, deadlines):
        if deadline < 0 and not task.subtasks:
            for r in releases:
                key = (r + deadline, task.id)
                late[key] = max(late.get(key, r), r)
    missed = sorted((deadline, tid, done) for (deadline, tid), done in late.items())
    blocks = [block for proc in sorted(blocks_of) for block in blocks_of[proc]]
    return ticks.scale * p, horizon, blocks, missed


def simulate_partitioned_edf(
    ts: TaskSet,
    pa: PartitionedAssignment,
    plat: Platform,
    horizon: Fraction | None = None,
) -> ScheduleTrace:
    """Run preemptive EDF independently on every processor of a partition.

    All tasks release synchronously at time 0; a finite-period task
    re-releases at every multiple of its period up to and including the
    horizon (default: the demand-scan horizon of the task set, which is
    just the largest deadline when every task is one-shot).  Requires
    edge-free tasks (the partitioned construction places subtasks as
    independent items) and an assignment covering every subtask within
    the platform's processors.  Raises ValueError for a negative horizon,
    and, before releasing any job, for a negative wcet (its job would
    never finish) or when the horizon admits more than
    ``MAX_DEMAND_STEPS`` subtask jobs (each release of a task with no
    subtask and a negative deadline, a miss, counts as one).  A miss is
    listed once per task id and absolute deadline that one of its jobs
    finished after, at the latest such finish.

    Events run on integer ticks of ``1/(S*p)``, where ``S`` is the task
    set's tick (the lcm of the denominators of every wcet, deadline and
    period) and ``p/q`` the speed, so every release, deadline and event
    instant is an exact tick count; only the returned endpoints are
    built as ``Fraction``.

    On a processor whose tasks all recur, EDF runs over the first
    hyperperiod only, when it leaves no job pending at the hyperperiod,
    and the later whole hyperperiods copy that run, shifted: the trace
    is the one a run over every job gives (see :func:`_simulate_ticks`).
    """
    scale, horizon, blocks, missed = _simulate_ticks(
        ts, _partition(ts, pa, plat), plat, horizon
    )
    intervals = tuple(
        Interval(
            proc,
            task,
            sids[task] if sids else subtask,
            Fraction(start + shift, scale),
            Fraction(end + shift, scale),
        )
        for proc, runs, shift, sids in blocks
        for _, task, subtask, start, end in runs
    )
    misses = tuple(
        DeadlineMiss(task, Fraction(deadline, scale), Fraction(done, scale))
        for deadline, task, done in missed
    )
    return ScheduleTrace(
        speed=plat.speed, horizon=horizon, intervals=intervals, misses=misses
    )


def _list_schedule(
    task: DagTask, wcets: tuple[int, ...], m: int
) -> list[tuple[int, int, int, int]]:
    """Greedy list schedule of one job of ``task`` on ``m >= 1`` unit-speed
    processors, on int times: ``wcets`` are its subtask wcets in ticks, in
    subtask order.  Returns (start, processor, subtask, end) for every
    run of positive length, sorted by (start, processor).

    At speed p/q the same schedule runs with every instant times q/p:
    each choice compares instants only, and scaling keeps their order.
    """
    if task.topological_order is None:
        raise ValueError(f"task {task.id}: dependency cycle among subtasks")
    wcet = dict(zip((st.id for st in task.subtasks), wcets))
    succ = task.successors
    pending = dict.fromkeys(succ, 0)
    for nexts in succ.values():
        for b in nexts:
            pending[b] += 1
    ready = [sid for sid in sorted(succ) if pending[sid] == 0]  # sorted: a heap
    free = list(range(1, m + 1))
    running: list[tuple[int, int, int]] = []  # (end, processor, subtask)
    runs: list[tuple[int, int, int, int]] = []
    time = 0
    while ready or running:
        while ready and free:
            sid = heapq.heappop(ready)
            proc = heapq.heappop(free)
            end = time + wcet[sid]
            heapq.heappush(running, (end, proc, sid))
            if end > time:
                runs.append((time, proc, sid, end))
        time = running[0][0]
        while running and running[0][0] == time:
            _, proc, sid = heapq.heappop(running)
            heapq.heappush(free, proc)
            for nxt in succ[sid]:
                pending[nxt] -= 1
                if pending[nxt] == 0:
                    heapq.heappush(ready, nxt)
    runs.sort(key=itemgetter(0, 1))
    return runs


def simulate_list_schedule(task: DagTask, m: int, speed: Fraction) -> ScheduleTrace:
    """Run one job of ``task`` on a dedicated cluster of ``m`` processors,
    greedily and non-preemptively.

    Whenever a processor is free and some subtask is ready (all its
    predecessors completed), the ready subtask with the lowest id starts
    on the free processor with the lowest index and runs to completion.
    Completions at the same instant are all processed before anything new
    starts.  The trace's horizon is None (single job, released at 0).

    The schedule runs at unit speed on the tick of the task's subtask
    wcets, 1/S; at speed ``p/q`` an instant of x ticks of 1/S is
    ``Fraction(x*q, S*p)``.
    """
    speed = Fraction(speed)
    if not _is_int(m) or m < 1:
        raise ValueError(f"cluster size must be an integer of at least 1, got {m!r}")
    _positive_speed(speed)
    _require_keyed_ids(task)
    tick, wcets = task._own_ticks()
    q, scale = speed.denominator, tick * speed.numerator
    runs = _list_schedule(task, wcets, m)
    intervals = tuple(
        Interval(proc, task.id, sid, Fraction(start * q, scale), Fraction(end * q, scale))
        for start, proc, sid, end in runs
    )
    makespan = Fraction(max((run[3] for run in runs), default=0) * q, scale)
    misses: tuple[DeadlineMiss, ...] = ()
    if makespan > task.deadline:
        misses = (DeadlineMiss(task.id, task.deadline, makespan),)
    return ScheduleTrace(speed=speed, horizon=None, intervals=intervals, misses=misses)


def check_trace(ts: TaskSet, trace: ScheduleTrace) -> list[str]:
    """Re-verify a trace against its task set from scratch.

    Checks, independently of either simulator:
      - every interval has start < end and intervals on one processor
        never overlap;
      - work conservation per subtask: total executed duration times the
        trace speed equals wcet times the number of jobs the trace's
        horizon admits;
      - for single-job tasks, precedence (no subtask starts before all its
        predecessors' intervals end) and the miss list (exactly the late
        tasks, with the recorded completion matching the last interval);
      - for recurring tasks, the structural part only: every listed miss
        must actually be late (interval-to-job attribution is ambiguous
        across releases, so the deep checks are skipped).

    Returns one message per violation; an empty list means the trace
    checks out.  Raises ValueError for a task or subtask id that cannot key
    a dict.
    """
    for task in ts:
        _require_keyed_ids(task, ts.name)
    v: list[str] = []
    by_proc: dict[int, list[Interval]] = {}
    duration: dict[tuple[int, int], Fraction] = {}
    first_start: dict[tuple[int, int], Fraction] = {}
    last_end: dict[tuple[int, int], Fraction] = {}
    task_end: dict[int, Fraction] = {}
    for iv in trace.intervals:
        if iv.start >= iv.end:
            v.append(
                f"interval for task {iv.task} subtask {iv.subtask} on processor "
                f"{iv.processor}: start {iv.start} is not before end {iv.end}"
            )
        by_proc.setdefault(iv.processor, []).append(iv)
        key = (iv.task, iv.subtask)
        duration[key] = duration.get(key, Fraction(0)) + (iv.end - iv.start)
        first_start[key] = min(first_start.get(key, iv.start), iv.start)
        last_end[key] = max(last_end.get(key, iv.end), iv.end)
        task_end[iv.task] = max(task_end.get(iv.task, iv.end), iv.end)
    for proc in sorted(by_proc):
        ordered = sorted(by_proc[proc], key=lambda iv: (iv.start, iv.end))
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                v.append(
                    f"processor {proc}: overlap between task {a.task} subtask "
                    f"{a.subtask} [{a.start}, {a.end}) and task {b.task} "
                    f"subtask {b.subtask} [{b.start}, {b.end})"
                )

    for task in ts:
        jobs = _job_count(task, trace.horizon)
        for st in task.subtasks:
            executed = duration.get((task.id, st.id), Fraction(0)) * trace.speed
            expected = st.wcet * jobs
            if executed != expected:
                v.append(
                    f"task {task.id} subtask {st.id}: executed work {executed} "
                    f"!= expected {expected} ({jobs} job(s) of wcet {st.wcet})"
                )

    listed: dict[int, list[DeadlineMiss]] = {}
    for miss in trace.misses:
        listed.setdefault(miss.task, []).append(miss)
        if miss.completion is not None and miss.completion <= miss.deadline:
            v.append(
                f"miss entry for task {miss.task}: completion {miss.completion} "
                f"is not after deadline {miss.deadline}"
            )
    for task in ts:
        if _job_count(task, trace.horizon) != 1:
            continue
        for a, nexts in task.successors.items():
            end_a = last_end.get((task.id, a))
            for b in nexts:
                start_b = first_start.get((task.id, b))
                if end_a is not None and start_b is not None and start_b < end_a:
                    v.append(
                        f"task {task.id}: precedence violated: subtask {b} starts "
                        f"at {start_b} before predecessor {a} ends at {end_a}"
                    )
        completion = task_end.get(task.id, Fraction(0))
        late = completion > task.deadline
        entries = listed.get(task.id, [])
        if late and not entries:
            v.append(
                f"task {task.id}: completed at {completion}, after deadline "
                f"{task.deadline}, but the miss list has no entry for it"
            )
        elif not late and entries:
            v.append(
                f"task {task.id}: miss listed but the job completed at "
                f"{completion}, within deadline {task.deadline}"
            )
        elif late and entries:
            entry = entries[0]
            if entry.completion != completion or entry.deadline != task.deadline:
                v.append(
                    f"task {task.id}: miss entry ({entry.deadline}, "
                    f"{entry.completion}) disagrees with the trace "
                    f"({task.deadline}, {completion})"
                )
    return v
