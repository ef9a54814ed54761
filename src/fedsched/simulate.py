"""Exact discrete-event simulation.

Two engines: preemptive earliest-deadline-first independently on each
processor of a static partition, and non-preemptive greedy execution of
one DAG job on a dedicated cluster.  Both advance from event to event on
rational timestamps, so a completion that analytically lands exactly on a
deadline lands exactly on it in the trace too.  Both are deterministic:
identical inputs produce identical traces.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .feasibility import (
    MAX_DEMAND_STEPS,
    PartitionedAssignment,
    _partition_items,
    default_horizon,
)
from .model import DagTask, Platform, TaskSet
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


@dataclass
class _Job:
    # one released subtask instance, mutable while it still has work left
    deadline: Fraction  # absolute
    task: int
    subtask: int
    release: Fraction
    remaining: Fraction


def _job_count(task: DagTask, horizon: Fraction | None) -> int:
    """Jobs ``task`` releases up to and including ``horizon`` in the
    synchronous pattern: one for a one-shot task or a single-job run
    (horizon None), otherwise one at every multiple of the period."""
    if task.period is None or horizon is None:
        return 1
    return max(0, int(horizon // task.period) + 1)


def _merge_contiguous(intervals: list[Interval]) -> list[Interval]:
    # a preemption check that turned out not to preempt splits an interval
    # in two; stitch back-to-back runs of the same subtask together
    merged: list[Interval] = []
    for iv in intervals:
        if (
            merged
            and merged[-1].processor == iv.processor
            and merged[-1].task == iv.task
            and merged[-1].subtask == iv.subtask
            and merged[-1].end == iv.start
        ):
            merged[-1] = merged[-1]._replace(end=iv.end)
        else:
            merged.append(iv)
    return merged


def _edf_on_one_processor(
    proc: int, jobs: list[_Job], speed: Fraction
) -> tuple[list[Interval], dict[tuple[int, Fraction], Fraction]]:
    """Preemptive EDF of ``jobs`` on processor ``proc`` at rate ``speed``.

    Ties broken by (absolute deadline, task id, subtask id); all jobs run
    to completion.  Returns the merged intervals and, per (task id,
    release), the instant its last subtask job finished.
    """
    jobs = sorted(jobs, key=lambda j: j.release)
    heap: list[tuple[Fraction, int, int, Fraction, int]] = []
    out: list[Interval] = []
    completion: dict[tuple[int, Fraction], Fraction] = {}
    time = Fraction(0)
    next_idx = 0
    while next_idx < len(jobs) or heap:
        if not heap:
            # idle until the next release
            time = max(time, jobs[next_idx].release)
        while next_idx < len(jobs) and jobs[next_idx].release <= time:
            j = jobs[next_idx]
            heapq.heappush(heap, (j.deadline, j.task, j.subtask, j.release, next_idx))
            next_idx += 1
        _, _, _, _, idx = heap[0]
        job = jobs[idx]
        finish = time + job.remaining / speed
        run_until = finish
        if next_idx < len(jobs) and jobs[next_idx].release < finish:
            run_until = jobs[next_idx].release  # re-evaluate priorities there
        if run_until > time:
            out.append(Interval(proc, job.task, job.subtask, time, run_until))
            job.remaining -= (run_until - time) * speed
        time = run_until
        if job.remaining == 0:
            heapq.heappop(heap)
            key = (job.task, job.release)
            prev = completion.get(key)
            if prev is None or time > prev:
                completion[key] = time
    return _merge_contiguous(out), completion


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
    and, before releasing any job, when the horizon admits more than
    ``MAX_DEMAND_STEPS`` subtask jobs.
    """
    by_proc = _partition_items(ts, pa, plat)
    if horizon is None:
        horizon = default_horizon(it for items in by_proc.values() for it in items)
    else:
        horizon = Fraction(horizon)
        if horizon < 0:
            raise ValueError(
                f"horizon must be nonnegative, got {format_rational(horizon)}"
            )
    jobs = 0
    for task in ts:
        if task.period is not None and task.period <= 0:
            raise ValueError(
                f"task {task.id}: period must be positive, got {task.period}"
            )
        jobs += len(task.subtasks) * _job_count(task, horizon)
    if jobs > MAX_DEMAND_STEPS:
        raise ValueError(
            f"simulation to horizon {format_rational(horizon)} releases {jobs} "
            f"subtask jobs, more than the limit of {MAX_DEMAND_STEPS}"
        )

    # a one-shot task's one job is released at 0
    release_table = {
        task.id: [
            k * (task.period or Fraction(0))
            for k in range(_job_count(task, horizon))
        ]
        for task in ts
    }
    jobs_by_proc: dict[int, list[_Job]] = {}
    for task in ts:
        for st in task.subtasks:
            proc = pa.mapping[(task.id, st.id)]
            for r in release_table[task.id]:
                jobs_by_proc.setdefault(proc, []).append(
                    _Job(
                        deadline=r + task.deadline,
                        task=task.id,
                        subtask=st.id,
                        release=r,
                        remaining=st.wcet,
                    )
                )

    intervals: list[Interval] = []
    completion: dict[tuple[int, Fraction], Fraction] = {}
    for proc in sorted(jobs_by_proc):
        proc_intervals, proc_completion = _edf_on_one_processor(
            proc, jobs_by_proc[proc], plat.speed
        )
        intervals.extend(proc_intervals)
        for key, value in proc_completion.items():
            prev = completion.get(key)
            if prev is None or value > prev:
                completion[key] = value

    misses: list[DeadlineMiss] = []
    for task in ts:
        for r in release_table[task.id]:
            done = completion.get((task.id, r), r)  # a job with no subtasks is done at release
            if done > r + task.deadline:
                misses.append(DeadlineMiss(task.id, r + task.deadline, done))
    misses.sort(key=lambda m: (m.deadline, m.task))
    return ScheduleTrace(
        speed=plat.speed,
        horizon=horizon,
        intervals=tuple(intervals),
        misses=tuple(misses),
    )


def simulate_list_schedule(task: DagTask, m: int, speed: Fraction) -> ScheduleTrace:
    """Run one job of ``task`` on a dedicated cluster of ``m`` processors,
    greedily and non-preemptively.

    Whenever a processor is free and some subtask is ready (all its
    predecessors completed), the ready subtask with the lowest id starts
    on the free processor with the lowest index and runs to completion.
    Completions at the same instant are all processed before anything new
    starts.  The trace's horizon is None (single job, released at 0).
    """
    speed = Fraction(speed)
    if m < 1:
        raise ValueError(f"cluster size must be at least 1, got {m}")
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if task.topological_order is None:
        raise ValueError(f"task {task.id}: dependency cycle among subtasks")
    wcet = {st.id: st.wcet for st in task.subtasks}
    succ = task.successors
    pending = Counter(b for nexts in succ.values() for b in nexts)
    ready = [sid for sid in sorted(succ) if pending[sid] == 0]
    heapq.heapify(ready)
    free = list(range(1, m + 1))
    heapq.heapify(free)
    running: list[tuple[Fraction, int, int]] = []  # (end, processor, subtask)
    intervals: list[Interval] = []
    time = Fraction(0)
    while ready or running:
        while ready and free:
            sid = heapq.heappop(ready)
            proc = heapq.heappop(free)
            end = time + wcet[sid] / speed
            heapq.heappush(running, (end, proc, sid))
            if end > time:
                intervals.append(Interval(proc, task.id, sid, time, end))
        if not running:
            break
        time = running[0][0]
        while running and running[0][0] == time:
            _, proc, sid = heapq.heappop(running)
            heapq.heappush(free, proc)
            for nxt in succ[sid]:
                pending[nxt] -= 1
                if pending[nxt] == 0:
                    heapq.heappush(ready, nxt)

    intervals.sort(key=lambda iv: (iv.start, iv.processor))
    makespan = max((iv.end for iv in intervals), default=Fraction(0))
    misses: tuple[DeadlineMiss, ...] = ()
    if makespan > task.deadline:
        misses = (DeadlineMiss(task.id, task.deadline, makespan),)
    return ScheduleTrace(
        speed=speed, horizon=None, intervals=tuple(intervals), misses=misses
    )


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
    checks out.
    """
    v: list[str] = []
    for iv in trace.intervals:
        if iv.start >= iv.end:
            v.append(
                f"interval for task {iv.task} subtask {iv.subtask} on processor "
                f"{iv.processor}: start {iv.start} is not before end {iv.end}"
            )
    by_proc: dict[int, list[Interval]] = {}
    for iv in trace.intervals:
        by_proc.setdefault(iv.processor, []).append(iv)
    for proc in sorted(by_proc):
        ordered = sorted(by_proc[proc], key=lambda iv: (iv.start, iv.end))
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                v.append(
                    f"processor {proc}: overlap between task {a.task} subtask "
                    f"{a.subtask} [{a.start}, {a.end}) and task {b.task} "
                    f"subtask {b.subtask} [{b.start}, {b.end})"
                )

    duration: dict[tuple[int, int], Fraction] = {}
    for iv in trace.intervals:
        key = (iv.task, iv.subtask)
        duration[key] = duration.get(key, Fraction(0)) + (iv.end - iv.start)
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
        own = [iv for iv in trace.intervals if iv.task == task.id]
        starts = {st.id: min((iv.start for iv in own if iv.subtask == st.id), default=None) for st in task.subtasks}
        ends = {st.id: max((iv.end for iv in own if iv.subtask == st.id), default=None) for st in task.subtasks}
        for a, b in task.edges:
            end_a, start_b = ends.get(a), starts.get(b)
            if end_a is not None and start_b is not None and start_b < end_a:
                v.append(
                    f"task {task.id}: precedence violated: subtask {b} starts at "
                    f"{start_b} before predecessor {a} ends at {end_a}"
                )
        completion = max((iv.end for iv in own), default=Fraction(0))
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
