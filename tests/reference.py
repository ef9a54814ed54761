"""Reference code shared by the tests.

Small task-set builders, and the layers that now decide and write on int
ticks as they were on ``Fraction`` arithmetic: task validation, the demand
test, the allocator, the oracle, the list scheduler, the partitioned
simulator, and the ``analyze`` and ``simulate`` commands.  The differential tests in
``test_ticks.py``, ``test_simulate.py`` and ``test_cli.py`` require
identical results from the package and from these.  The topological order
and the list scheduler are also kept as they were written with a
``Counter`` and a ``deque``, for ``test_model.py``.
"""

import heapq
import json
import math
import sys
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction

import fedsched.feasibility
from fedsched import cli
from fedsched.feasibility import (
    demand_profile,
    partition_by_subtask_index,
    processor_items,
    uniprocessor_edf_feasible,
)
from fedsched.federated import FederatedAllocation, Infeasible
from fedsched.generate import CounterexampleParams, build_counterexample
from fedsched.model import DagTask, Platform, Subtask
from fedsched.rational import format_rational, parse_rational
from fedsched.simulate import (
    DeadlineMiss,
    Interval,
    ScheduleTrace,
    simulate_partitioned_edf,
)
from fedsched.taskio import read_task_set


def reference_set():
    return build_counterexample(CounterexampleParams(10, 10, Fraction(2)))


def seq_task(tid, wcet, deadline, period=None):
    return DagTask(
        id=tid,
        wcet_total=Fraction(wcet),
        deadline=Fraction(deadline),
        period=period,
        subtasks=(Subtask(1, Fraction(wcet)),),
        edges=(),
    )


def implicit_deadlines(ts):
    """``ts`` with every task's period set to its deadline."""
    return replace(ts, tasks=tuple(replace(t, period=t.deadline) for t in ts))


# --- reference: the decision layers on Fraction arithmetic -----------------


def ref_validate(task):
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



def ref_default_horizon(items):
    if not items:
        return Fraction(0)
    horizon = max(d for _, d, _ in items)
    periods = [p for _, _, p in items if p is not None]
    if periods:
        num, den = 1, 0
        for v in periods:
            num = math.lcm(num, v.numerator)
            den = math.gcd(den, v.denominator)
        horizon += 2 * Fraction(num, den)
    return horizon


def ref_demand_steps(items, horizon):
    counts = []
    for _, d, p in items:
        if p is None:
            counts.append(1)
        elif p <= 0:
            raise ValueError(f"period must be positive, got {p}")
        else:
            counts.append((horizon - d) // p + 1)
    limit = fedsched.feasibility.MAX_DEMAND_STEPS  # as the test sets it
    if sum(counts) > limit:
        raise ValueError(
            f"demand scan to horizon {format_rational(horizon)} needs "
            f"{sum(counts)} step instants, more than the limit of {limit}"
        )
    steps = {}
    for (w, d, p), count in zip(items, counts):
        t = d
        for k in range(count):
            if k:
                t += p
            steps[t] = steps.get(t, Fraction(0)) + w
    return sorted(steps.items())


def ref_demand_profile(items):
    total, points = Fraction(0), []
    for t, step in ref_demand_steps(items, ref_default_horizon(items)):
        total += step
        points.append((t, total))
    return tuple(points)


def ref_la_numerator(items):
    """N of the L_a bound: max(0, period - deadline) * work/period summed
    over recurring items, plus the work of the one-shot ones."""
    return sum(
        (w if p is None else max(0, p - d) * w / p for w, d, p in items),
        Fraction(0),
    )


def ref_first_violation(items, speed):
    recurring = [it for it in items if it[2] is not None]
    utilization = sum((w / p for w, _, p in recurring), Fraction(0))
    if utilization > speed:
        return utilization, Fraction(1)
    horizon = ref_default_horizon(items)
    if recurring and utilization < speed and all(w >= 0 for w, _, _ in items):
        offset = ref_la_numerator(items)
        deadline = max(d for _, d, _ in items)
        horizon = min(horizon, max(deadline, offset / (speed - utilization)))
    demand = Fraction(0)
    for t, step in ref_demand_steps(items, horizon):
        demand += step
        if demand > speed * t:
            return demand, t
    return None


def ref_topological_order(task):
    """Kahn's algorithm over ``task.successors`` with a Counter of
    indegrees and a deque for the queue."""
    succ = task.successors
    indegree = Counter(b for nexts in succ.values() for b in nexts)
    queue = deque(sid for sid in succ if indegree[sid] == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    return tuple(order) if len(order) == len(succ) else None


def ref_list_schedule(task, m, speed):
    wcet = {st.id: st.wcet for st in task.subtasks}
    succ = task.successors
    pending = Counter(b for nexts in succ.values() for b in nexts)
    ready = [sid for sid in sorted(succ) if pending[sid] == 0]
    free = list(range(1, m + 1))
    running, intervals, time = [], [], Fraction(0)
    while ready or running:
        while ready and free:
            sid, proc = heapq.heappop(ready), heapq.heappop(free)
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
    misses = ()
    if makespan > task.deadline:
        misses = (DeadlineMiss(task.id, task.deadline, makespan),)
    return ScheduleTrace(speed, None, tuple(intervals), misses)


def of_task(task):
    return (task.work, task.deadline, task.period)


def ref_is_heavy(task, speed):
    return task.work > speed * task.deadline


def ref_demand_bound(task, speed):
    return math.ceil(task.work / (task.deadline * speed))


def ref_cluster_size(task, speed):
    """None when the critical path fills the budget speed * deadline."""
    budget = speed * task.deadline
    if budget <= task.span:
        return None
    return max(1, math.ceil((task.work - task.span) / (budget - task.span)))


def ref_allocate(ts, plat):
    speed = plat.speed
    heavy = [t for t in ts if ref_is_heavy(t, speed)]
    light = [t for t in ts if not ref_is_heavy(t, speed)]
    demand = None
    if heavy:
        demand = sum(ref_demand_bound(t, speed) for t in heavy)

    def size_speed(task, k):
        return (task.span + (task.work - task.span) / k) / task.deadline

    flips, grants = [], {}
    for task in heavy:
        size = ref_cluster_size(task, speed)
        if size is None:
            return Infeasible(
                reason=(
                    f"task {task.id}: critical path {task.span} is not shorter than "
                    f"the deadline budget {speed * task.deadline}; no cluster size suffices"
                ),
                processors_needed=None,
                demand_lower_bound=demand,
                retry_speed=(
                    size_speed(task, plat.processors) if task.deadline > 0 else None
                ),
            )
        grants[task.id] = size
        flips.append(size_speed(task, size - 1))
    used = sum(grants.values())
    if used > plat.processors:
        return Infeasible(
            reason=(
                f"heavy clusters alone need {used} processors, "
                f"platform has {plat.processors}"
            ),
            processors_needed=used,
            demand_lower_bound=demand,
            retry_speed=min(flips),
        )
    shared, placement = [], {}
    for task in sorted(light, key=lambda t: (t.deadline, t.id)):
        item = of_task(task)
        for idx, items in enumerate(shared):
            violation = ref_first_violation(items + [item], speed)
            if violation is None:
                items.append(item)
                placement[task.id] = idx + 1
                break
            if violation[1] > 0:
                flips.append(violation[0] / violation[1])
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
                    retry_speed=min(flips, default=None),
                )
            shared.append([item])
            placement[task.id] = len(shared)
    return FederatedAllocation(grants, placement, used + len(shared))


def ref_refusal(ts):
    """The oracle's refusal of ``ts``: its first task outside the oracle's
    domain and why, or None when ``ts`` lies inside (then ``ref_oracle``
    gives its verdicts)."""
    for task in ts:
        tag = f"oracle refuses task {task.id}"
        sids = [st.id for st in task.subtasks]
        if task.deadline <= 0:
            return f"{tag}: nonpositive deadline {task.deadline}"
        if task.period is not None and task.deadline > task.period:
            return f"{tag}: deadline {task.deadline} exceeds period {task.period}"
        if task.topological_order is None:
            return f"{tag}: dependency cycle among subtasks"
        for st in task.subtasks:
            if st.wcet < 0:
                return f"{tag}: negative wcet {st.wcet} on subtask {st.id}"
        for sid in sids:
            if type(sid) is not int:
                return f"{tag}: subtask id {sid!r} is not an integer"
        if len(set(sids)) != len(sids):
            return f"{tag}: duplicate subtask ids: {sids}"
    return None


def ref_oracle(ts, plat):
    speed, tasks, total = plat.speed, list(ts.tasks), plat.processors
    by_id = {t.id: t for t in tasks}

    def cluster_ok(task, size):
        return ref_list_schedule(task, size, speed).makespan <= task.deadline

    def group_ok(ids):
        items = [of_task(by_id[i]) for i in sorted(ids)]
        return ref_first_violation(items, speed) is None

    def pack(shared, groups, budget):
        if not shared:
            return True
        head, rest = shared[0], shared[1:]
        for group in groups:
            if group_ok(group | {head}):
                group.add(head)
                if pack(rest, groups, budget):
                    return True
                group.discard(head)
        if len(groups) < budget and group_ok({head}):
            groups.append({head})
            if pack(rest, groups, budget):
                return True
            groups.pop()
        return False

    def choose(idx, used, shared):
        if idx == len(tasks):
            return not shared or pack(shared, [], total - used)
        task = tasks[idx]
        if choose(idx + 1, used, shared + [task.id]):
            return True
        for size in range(1, total - used + 1):
            if cluster_ok(task, size):
                if choose(idx + 1, used + size, shared):
                    return True
                break
        return False

    return choose(0, 0, [])


# --- reference: the partitioned simulator on Fraction arithmetic ----------
#
# The simulator runs on integer ticks; this is the event loop it replaced,
# which computes every instant as a Fraction.  The differential test below
# requires identical traces from both.


@dataclass
class _RefJob:
    deadline: Fraction  # absolute
    task: int
    subtask: int
    release: Fraction
    remaining: Fraction


def _ref_merge_contiguous(intervals):
    merged = []
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


def _ref_edf_on_one_processor(proc, jobs, speed):
    jobs = sorted(jobs, key=lambda j: j.release)
    heap = []
    out = []
    completion = {}
    time = Fraction(0)
    next_idx = 0
    while next_idx < len(jobs) or heap:
        if not heap:
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
            run_until = jobs[next_idx].release
        if run_until > time:
            out.append(Interval(proc, job.task, job.subtask, time, run_until))
            job.remaining -= (run_until - time) * speed
        time = run_until
        if job.remaining == 0:
            heapq.heappop(heap)
            key = (job.deadline, job.task)
            prev = completion.get(key)
            if prev is None or time > prev:
                completion[key] = time
    return _ref_merge_contiguous(out), completion


def reference_partitioned_edf(ts, pa, plat, horizon=None):
    if horizon is None:
        horizon = ref_default_horizon([(t.work, t.deadline, t.period) for t in ts])
    horizon = Fraction(horizon)

    def job_count(task):
        if task.period is None:
            return 1
        return max(0, int(horizon // task.period) + 1)

    release_table = [
        [k * (task.period or Fraction(0)) for k in range(job_count(task))] for task in ts
    ]
    jobs_by_proc = {}
    for task, releases in zip(ts, release_table):
        for st in task.subtasks:
            proc = pa.mapping[(task.id, st.id)]
            for r in releases:
                jobs_by_proc.setdefault(proc, []).append(
                    _RefJob(r + task.deadline, task.id, st.id, r, st.wcet)
                )
    intervals = []
    completion = {}
    for proc in sorted(jobs_by_proc):
        proc_intervals, proc_completion = _ref_edf_on_one_processor(
            proc, jobs_by_proc[proc], plat.speed
        )
        intervals.extend(proc_intervals)
        for key, value in proc_completion.items():
            prev = completion.get(key)
            if prev is None or value > prev:
                completion[key] = value
    # every job finishes at or after its release; one of no subtask, there
    for task, releases in zip(ts, release_table):
        for r in releases:
            key = (r + task.deadline, task.id)
            completion[key] = max(completion.get(key, r), r)
    misses = [
        DeadlineMiss(task, deadline, done)
        for (deadline, task), done in completion.items()
        if done > deadline
    ]
    misses.sort(key=lambda m: (m.deadline, m.task))
    return ScheduleTrace(
        speed=plat.speed,
        horizon=horizon,
        intervals=tuple(intervals),
        misses=tuple(misses),
    )


# --- analyze and simulate against their Fraction formatting ------------------
#
# analyze and simulate write their output from the engines' int ticks.  The
# two functions below are those commands as they were when they formatted
# the library's Fraction results: demand_profile and json.dump for the
# demand table, format_rational per interval and miss, trace.makespan.

def ref_analyze(path, speed, processors):
    ts = read_task_set(path)
    cli._require_valid(ts)
    plat = Platform(processors, parse_rational(speed))
    pa = partition_by_subtask_index(ts, plat.processors)
    by_proc = processor_items(ts, pa)
    feasible = all(uniprocessor_edf_feasible(items, plat.speed) for items in by_proc.values())
    table = []
    for proc, items in sorted(by_proc.items()):
        points = [
            {
                "t": format_rational(t),
                "demand": format_rational(demand),
                "capacity": format_rational(plat.speed * t),
            }
            for t, demand in demand_profile(items).breakpoints
        ]
        table.append({"processor": proc, "points": points})
    json.dump(
        {
            "verdict": "feasible" if feasible else "infeasible",
            "speed": format_rational(plat.speed),
            "processors": plat.processors,
            "per_processor_demand": table,
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")
    print(
        f"{ts.name}: {'feasible' if feasible else 'infeasible'} at speed "
        f"{format_rational(plat.speed)} on {plat.processors} processor(s)",
        file=sys.stderr,
    )
    return 0 if feasible else 1


def ref_simulate(path, speed, processors, horizon):
    ts = read_task_set(path)
    cli._require_valid(ts)
    plat = Platform(processors, parse_rational(speed))
    horizon = None if horizon is None else parse_rational(horizon)
    pa = partition_by_subtask_index(ts, plat.processors)
    trace = simulate_partitioned_edf(ts, pa, plat, horizon=horizon)
    print("processor,task,subtask,start,end")
    for iv in trace.intervals:
        print(
            f"{iv.processor},{iv.task},{iv.subtask},"
            f"{format_rational(iv.start)},{format_rational(iv.end)}"
        )
    print(f"# misses={len(trace.misses)}")
    for miss in trace.misses:
        completion = (
            "unfinished" if miss.completion is None else format_rational(miss.completion)
        )
        print(f"# miss,{miss.task},{format_rational(miss.deadline)},{completion}")
    print(
        f"{ts.name}: {len(trace.intervals)} interval(s), "
        f"{len(trace.misses)} miss(es), makespan {format_rational(trace.makespan)}",
        file=sys.stderr,
    )
    return 0 if not trace.misses else 1
