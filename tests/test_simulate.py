import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from fedsched.feasibility import (
    PartitionedAssignment,
    _partition,
    partition_by_subtask_index,
    partitioned_feasible,
    uniprocessor_edf_feasible,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, span, work
from fedsched.rational import format_rational
from fedsched.simulate import (
    DeadlineMiss,
    Interval,
    ScheduleTrace,
    check_trace,
    simulate_list_schedule,
    simulate_partitioned_edf,
)
from reference import (
    ref_default_horizon,
    ref_first_violation,
    reference_partitioned_edf,
    seq_task,
)


def one_processor(ts):
    return PartitionedAssignment(
        {(t.id, st.id): 1 for t in ts for st in t.subtasks}
    )


def test_single_job_runs_immediately():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    trace = simulate_partitioned_edf(ts, one_processor(ts), Platform(1, Fraction(1)))
    assert trace.intervals == (Interval(1, 1, 1, Fraction(0), Fraction(3)),)
    assert trace.misses == ()
    assert trace.makespan == 3


def test_reference_set_on_time_at_unit_speed():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    pa = partition_by_subtask_index(ts, 10)
    trace = simulate_partitioned_edf(ts, pa, Platform(10, Fraction(1)))
    assert trace.misses == ()
    assert trace.makespan == ts.tasks[-1].deadline
    assert check_trace(ts, trace) == []
    # each processor finishes task j exactly at its deadline
    ends = {}
    for iv in trace.intervals:
        key = (iv.processor, iv.task)
        ends[key] = max(ends.get(key, Fraction(0)), iv.end)
    for task in ts:
        for proc in range(1, 11):
            assert ends[(proc, task.id)] == task.deadline


def test_reference_set_misses_just_below_unit_speed():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    pa = partition_by_subtask_index(ts, 10)
    trace = simulate_partitioned_edf(ts, pa, Platform(10, Fraction(999, 1000)))
    assert any(m.task == 1 for m in trace.misses)
    first = next(m for m in trace.misses if m.task == 1)
    assert first.deadline == 1
    assert first.completion == Fraction(1000, 999)
    assert check_trace(ts, trace) == []


def test_earlier_deadline_preempts():
    # a recurring short-deadline task carves the long job into slices
    long_job = seq_task(1, 4, 10)
    ticker = seq_task(2, 1, 1, period=Fraction(3))
    ts = TaskSet(name="mix", tasks=(long_job, ticker))
    pa = one_processor(ts)
    trace = simulate_partitioned_edf(ts, pa, Platform(1, Fraction(1)), horizon=Fraction(16))
    assert trace.misses == ()
    assert check_trace(ts, trace) == []
    long_slices = [iv for iv in trace.intervals if iv.task == 1]
    assert [(iv.start, iv.end) for iv in long_slices] == [
        (Fraction(1), Fraction(3)),
        (Fraction(4), Fraction(6)),
    ]
    ticker_starts = [iv.start for iv in trace.intervals if iv.task == 2]
    assert ticker_starts == [Fraction(k) for k in (0, 3, 6, 9, 12, 15)]


def test_recurring_releases_fill_the_horizon():
    ts = TaskSet(name="p", tasks=(seq_task(1, 2, 5, period=Fraction(5)),))
    trace = simulate_partitioned_edf(
        ts, one_processor(ts), Platform(1, Fraction(1)), horizon=Fraction(15)
    )
    # releases at 0, 5, 10, 15 inclusive
    assert [iv.start for iv in trace.intervals] == [Fraction(k) for k in (0, 5, 10, 15)]
    assert trace.misses == ()
    assert check_trace(ts, trace) == []


def test_release_table_has_a_budget(monkeypatch):
    def run(period, horizon=Fraction(15)):
        ts = TaskSet(name="p", tasks=(seq_task(1, 2, 5, period=period),))
        return simulate_partitioned_edf(
            ts, one_processor(ts), Platform(1, Fraction(1)), horizon=horizon
        )

    # releases at 0, 5, 10 and 15: four jobs
    monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", 4)
    assert len(run(Fraction(5)).intervals) == 4
    monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", 3)
    with pytest.raises(ValueError, match="horizon 15 releases 4 subtask jobs"):
        run(Fraction(5))
    for period in (Fraction(0), Fraction(-5)):
        # the periods are checked before the default horizon reads them
        for horizon in (Fraction(15), None):
            with pytest.raises(ValueError, match="^task 1: period must be positive"):
                run(period, horizon)


def test_negative_wcet_is_an_error_not_a_hang():
    # a job with negative work never finishes: refused before any release
    ts = TaskSet(name="n", tasks=(seq_task(1, -1, 5),))
    with pytest.raises(ValueError, match="task 1: a negative wcet never finishes"):
        simulate_partitioned_edf(ts, one_processor(ts), Platform(1, Fraction(1)))
    # a zero wcet is still simulated
    ts = TaskSet(name="z", tasks=(seq_task(1, 0, 5),))
    trace = simulate_partitioned_edf(ts, one_processor(ts), Platform(1, Fraction(1)))
    assert trace.misses == () and check_trace(ts, trace) == []


def test_negative_horizon_is_an_error():
    ts = TaskSet(name="p", tasks=(seq_task(1, 2, 5, period=Fraction(5)),))
    with pytest.raises(ValueError, match="horizon must be nonnegative, got -5"):
        simulate_partitioned_edf(
            ts, one_processor(ts), Platform(1, Fraction(1)), horizon=Fraction(-5)
        )
    # horizon 0 still releases the job at 0
    trace = simulate_partitioned_edf(
        ts, one_processor(ts), Platform(1, Fraction(1)), horizon=Fraction(0)
    )
    assert [iv.start for iv in trace.intervals] == [0]
    assert check_trace(ts, trace) == []


def test_check_trace_expects_no_job_before_a_negative_horizon():
    ts = TaskSet(name="p", tasks=(seq_task(1, 1, 1, period=Fraction(1)),))
    empty = ScheduleTrace(
        speed=Fraction(1), horizon=Fraction(-5), intervals=(), misses=()
    )
    assert check_trace(ts, empty) == []
    ran = ScheduleTrace(
        speed=Fraction(1),
        horizon=Fraction(-5),
        intervals=(Interval(1, 1, 1, Fraction(0), Fraction(1)),),
        misses=(),
    )
    assert check_trace(ts, ran) == [
        "task 1 subtask 1: executed work 1 != expected 0 (0 job(s) of wcet 1)"
    ]


def test_ties_resolved_by_task_then_subtask_id():
    a = seq_task(1, 1, 4)
    b = seq_task(2, 1, 4)
    ts = TaskSet(name="tie", tasks=(a, b))
    trace = simulate_partitioned_edf(ts, one_processor(ts), Platform(1, Fraction(1)))
    assert [(iv.task, iv.start) for iv in trace.intervals] == [
        (1, Fraction(0)),
        (2, Fraction(1)),
    ]


def test_simulation_is_deterministic():
    ts = build_counterexample(CounterexampleParams(4, 4, Fraction(3)))
    pa = partition_by_subtask_index(ts, 4)
    t1 = simulate_partitioned_edf(ts, pa, Platform(4, Fraction(2)))
    t2 = simulate_partitioned_edf(ts, pa, Platform(4, Fraction(2)))
    assert t1 == t2


def test_partitioned_rejects_bad_inputs():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    with pytest.raises(ValueError):
        simulate_partitioned_edf(ts, PartitionedAssignment({}), Platform(1, Fraction(1)))
    with pytest.raises(ValueError):
        simulate_partitioned_edf(
            ts, PartitionedAssignment({(1, 1): 7}), Platform(1, Fraction(1))
        )
    chain = DagTask(
        id=1,
        wcet_total=2,
        deadline=5,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(1))),
        edges=((1, 2),),
    )
    ts2 = TaskSet(name="e", tasks=(chain,))
    with pytest.raises(ValueError):
        simulate_partitioned_edf(ts2, one_processor(ts2), Platform(1, Fraction(1)))


def test_list_schedule_parallel_work_queues_up():
    task = DagTask(
        id=1,
        wcet_total=10,
        deadline=2,
        period=None,
        subtasks=tuple(Subtask(i, Fraction(1)) for i in range(1, 11)),
        edges=(),
    )
    trace = simulate_list_schedule(task, 9, Fraction(1))
    assert trace.makespan == 2
    assert trace.misses == ()
    wide = simulate_list_schedule(task, 10, Fraction(1))
    assert wide.makespan == 1


def test_list_schedule_chain_is_sequential():
    chain = DagTask(
        id=1,
        wcet_total=6,
        deadline=10,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(2)), Subtask(3, Fraction(3))),
        edges=((1, 2), (2, 3)),
    )
    for m in (1, 2, 5):
        trace = simulate_list_schedule(chain, m, Fraction(2))
        assert trace.makespan == 3
        used = {iv.processor for iv in trace.intervals}
        assert len(used) == 1


def test_list_schedule_diamond():
    task = DagTask(
        id=1,
        wcet_total=7,
        deadline=10,
        period=None,
        subtasks=(
            Subtask(1, Fraction(1)),
            Subtask(2, Fraction(2)),
            Subtask(3, Fraction(3)),
            Subtask(4, Fraction(1)),
        ),
        edges=((1, 2), (1, 3), (2, 4), (3, 4)),
    )
    trace = simulate_list_schedule(task, 2, Fraction(1))
    assert trace.makespan == 5
    assert trace.misses == ()


def test_list_schedule_miss_reported():
    task = DagTask(
        id=1,
        wcet_total=4,
        deadline=1,
        period=None,
        subtasks=(Subtask(1, Fraction(2)), Subtask(2, Fraction(2))),
        edges=(),
    )
    trace = simulate_list_schedule(task, 1, Fraction(1))
    assert trace.makespan == 4
    assert trace.misses == (DeadlineMiss(task=1, deadline=Fraction(1), completion=Fraction(4)),)


def test_list_schedule_respects_greedy_makespan_bound():
    rng = random.Random(11)
    for seed in range(60):
        for task in random_task_set(seed):
            speed = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            for m in range(1, 9):
                trace = simulate_list_schedule(task, m, speed)
                bound = (span(task) + (work(task) - span(task)) / m) / speed
                assert trace.makespan <= bound


def test_list_schedule_faster_is_never_slower():
    for seed in range(20):
        for task in random_task_set(seed):
            slow = simulate_list_schedule(task, 3, Fraction(1))
            fast = simulate_list_schedule(task, 3, Fraction(2))
            assert fast.makespan * 2 == slow.makespan


def test_list_schedule_rejects_bad_inputs():
    task = seq_task(1, 2, 4)
    with pytest.raises(ValueError):
        simulate_list_schedule(task, 0, Fraction(1))
    with pytest.raises(ValueError):
        simulate_list_schedule(task, 1, Fraction(0))
    loop = DagTask(
        id=1,
        wcet_total=2,
        deadline=4,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(1))),
        edges=((1, 2), (2, 1)),
    )
    with pytest.raises(ValueError):
        simulate_list_schedule(loop, 1, Fraction(1))
    for m in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="cluster size must be an integer"):
            simulate_list_schedule(task, m, Fraction(1))


def test_check_trace_flags_overlap():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    bad = ScheduleTrace(
        speed=Fraction(1),
        horizon=None,
        intervals=(
            Interval(1, 1, 1, Fraction(0), Fraction(2)),
            Interval(1, 1, 1, Fraction(1), Fraction(2)),
        ),
        misses=(),
    )
    problems = check_trace(ts, bad)
    assert any("overlap" in p for p in problems)


def test_check_trace_flags_missing_work():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    short = ScheduleTrace(
        speed=Fraction(1),
        horizon=None,
        intervals=(Interval(1, 1, 1, Fraction(0), Fraction(2)),),
        misses=(),
    )
    problems = check_trace(ts, short)
    assert problems != []


def test_check_trace_flags_precedence_violation():
    chain = DagTask(
        id=1,
        wcet_total=2,
        deadline=5,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(1))),
        edges=((1, 2),),
    )
    ts = TaskSet(name="c", tasks=(chain,))
    reversed_order = ScheduleTrace(
        speed=Fraction(1),
        horizon=None,
        intervals=(
            Interval(1, 1, 2, Fraction(0), Fraction(1)),
            Interval(1, 1, 1, Fraction(1), Fraction(2)),
        ),
        misses=(),
    )
    problems = check_trace(ts, reversed_order)
    assert any("precedence" in p for p in problems)


def test_check_trace_flags_wrong_miss_list():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    phantom = ScheduleTrace(
        speed=Fraction(1),
        horizon=None,
        intervals=(Interval(1, 1, 1, Fraction(0), Fraction(3)),),
        misses=(DeadlineMiss(task=1, deadline=Fraction(5), completion=Fraction(6)),),
    )
    assert check_trace(ts, phantom) != []
    late = ScheduleTrace(
        speed=Fraction(1),
        horizon=None,
        intervals=(Interval(1, 1, 1, Fraction(4), Fraction(7)),),
        misses=(),
    )
    assert check_trace(ts, late) != []


def test_check_trace_words_each_tampering():
    ts = TaskSet(name="one", tasks=(seq_task(1, 3, 5),))
    trace = simulate_list_schedule(ts.tasks[0], 1, Fraction(1))
    assert check_trace(ts, trace) == []
    (run,) = trace.intervals
    backwards = ScheduleTrace(
        trace.speed, None, (run._replace(start=run.end, end=run.start),), ()
    )
    assert check_trace(ts, backwards) == [
        "interval for task 1 subtask 1 on processor 1: start 3 is not before end 0",
        "task 1 subtask 1: executed work -3 != expected 3 (1 job(s) of wcet 3)",
    ]
    on_time = ScheduleTrace(
        trace.speed, None, trace.intervals, (DeadlineMiss(1, Fraction(5), Fraction(3)),)
    )
    assert check_trace(ts, on_time) == [
        "miss entry for task 1: completion 3 is not after deadline 5",
        "task 1: miss listed but the job completed at 3, within deadline 5",
    ]
    late_run = run._replace(start=Fraction(4), end=Fraction(7))
    wrong = ScheduleTrace(
        trace.speed, None, (late_run,), (DeadlineMiss(1, Fraction(5), Fraction(6)),)
    )
    assert check_trace(ts, wrong) == [
        "task 1: miss entry (5, 6) disagrees with the trace (5, 7)"
    ]


def test_check_trace_reads_precedence_past_an_unhashable_edge():
    # the edge ([1], 2) names no subtask, so only 1 -> 2 orders the job
    task = DagTask(
        id=1,
        wcet_total=2,
        deadline=5,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(1))),
        edges=(([1], 2), (1, 2)),
    )
    ts = TaskSet(name="u", tasks=(task,))
    trace = simulate_list_schedule(task, 2, Fraction(1))
    assert [(iv.subtask, iv.start) for iv in trace.intervals] == [(1, 0), (2, 1)]
    assert check_trace(ts, trace) == []
    swapped = trace.intervals[0]._replace(start=Fraction(1), end=Fraction(2))
    second = trace.intervals[1]._replace(start=Fraction(0), end=Fraction(1))
    bad = ScheduleTrace(trace.speed, None, (second, swapped), ())
    assert check_trace(ts, bad) == [
        "task 1: precedence violated: subtask 2 starts at 0 before predecessor 1 ends at 2"
    ]


def test_an_unhashable_subtask_id_is_refused_in_the_validator_s_words():
    task = DagTask(1, 1, 5, None, (Subtask([1], 1),))
    message = "task 1: subtask id [1] is not an integer"
    with pytest.raises(ValueError) as raised:
        simulate_list_schedule(task, 1, Fraction(1))
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        check_trace(TaskSet("x", (task,)), ScheduleTrace(Fraction(1), None, (), ()))
    assert str(raised.value) == message


def test_check_trace_accepts_generated_traces():
    for seed in range(25):
        ts = random_task_set(seed)
        for task in ts:
            trace = simulate_list_schedule(task, 2, Fraction(1))
            single = TaskSet(name="t", tasks=(task,))
            assert check_trace(single, trace) == []


# --- the simulator on int ticks against reference_partitioned_edf --------
#
# The reference is the event loop the simulator replaced, computing every
# instant as a Fraction; the test below requires identical traces.

PERIODS = (Fraction(17, 2), Fraction(7, 3), Fraction(3), Fraction(4), Fraction(5, 2))
SPEEDS = (Fraction(1), Fraction(999, 1000), Fraction(3, 2), Fraction(7, 3))


def random_partitioned_set(rng):
    """A small edge-free task set, its partition and a platform."""
    m = rng.randint(1, 3)
    overloaded = rng.random() < 0.3
    tasks = []
    for tid in range(1, rng.randint(1, 5) + 1):
        period = rng.choice(PERIODS) if rng.random() < 0.6 else None
        deadline = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
        if period is not None and rng.random() < 0.6:
            deadline = min(deadline, period)
        subtasks = []
        for sid in range(1, rng.randint(1, 3) + 1):
            # now and then a zero wcet: a job that completes at its release
            lowest = 0 if rng.random() < 0.05 else 1
            wcet = Fraction(rng.randint(lowest, 6), rng.choice((1, 2, 3, 7)))
            if not overloaded:
                wcet /= 4
            subtasks.append(Subtask(sid, wcet))
        tasks.append(
            DagTask(
                id=tid,
                wcet_total=sum(st.wcet for st in subtasks),
                deadline=deadline,
                period=period,
                subtasks=tuple(subtasks),
            )
        )
    ts = TaskSet(name="random", tasks=tuple(tasks))
    pa = PartitionedAssignment(
        {(t.id, st.id): rng.randint(1, m) for t in ts for st in t.subtasks}
    )
    return ts, pa, Platform(m, rng.choice(SPEEDS))


def random_horizon(rng, ts):
    # the default runs two hyperperiods past the largest deadline: take it
    # when that is short enough for the Fraction reference
    items = [(t.work, t.deadline, t.period) for t in ts]
    if ref_default_horizon(items) <= 60 and rng.random() < 0.6:
        return None
    choice = rng.random()
    if choice < 0.15:
        return Fraction(0)
    if choice < 0.3:
        return Fraction(1, 3)
    periods = [t.period for t in ts if t.period is not None]
    while True:
        horizon = Fraction(rng.randint(1, 150), rng.choice((1, 7, 11)))
        if all(horizon % p != 0 for p in periods):
            return horizon


def test_integer_ticks_match_the_fraction_reference():
    rng = random.Random(2015)
    kinds = Counter()
    for _ in range(1000):
        ts, pa, plat = random_partitioned_set(rng)
        horizon = random_horizon(rng, ts)
        got = simulate_partitioned_edf(ts, pa, plat, horizon=horizon)
        want = reference_partitioned_edf(ts, pa, plat, horizon=horizon)
        assert got == want
        for iv in got.intervals:
            assert type(iv.start) is Fraction and type(iv.end) is Fraction
        for miss in got.misses:
            assert type(miss.deadline) is Fraction and type(miss.completion) is Fraction
        assert type(got.horizon) is Fraction
        assert check_trace(ts, got) == []
        kinds["misses" if got.misses else "on time"] += 1
        kinds["default horizon" if horizon is None else "explicit horizon"] += 1
        kinds["recurring" if any(t.period for t in ts) else "one-shot only"] += 1
        kinds[f"speed {plat.speed}"] += 1
    # every kind of case the generator aims for turns up often
    assert min(kinds.values()) >= 100, kinds


def test_tasks_that_share_an_id_match_the_fraction_reference():
    # validate_task_set refuses a repeated task id, but the simulator takes
    # one; the reference keeps releases and completions per id, so each
    # copy of an id here shares its task's deadline and period
    rng = random.Random(4077)
    kinds = Counter()
    for n in range(400):
        ts, pa, plat = random_partitioned_set(rng)
        tasks, mapping, shared = list(ts.tasks), dict(pa.mapping), set()
        for _ in range(rng.randint(1, 2)):
            like = rng.choice(ts.tasks)
            shared.add(like.id)
            sids = rng.sample(range(1, 7), rng.randint(1, 2))
            subtasks = tuple(Subtask(sid, Fraction(rng.randint(1, 6), 4)) for sid in sids)
            tasks.insert(rng.randint(0, len(tasks)), DagTask(
                like.id, sum(st.wcet for st in subtasks), like.deadline, like.period, subtasks
            ))
            for sid in sids:
                mapping.setdefault((like.id, sid), rng.randint(1, plat.processors))
        ts, pa = TaskSet("shared ids", tuple(tasks)), PartitionedAssignment(mapping)
        horizon = random_horizon(rng, ts)
        got = simulate_partitioned_edf(ts, pa, plat, horizon=horizon)
        assert got == reference_partitioned_edf(ts, pa, plat, horizon=horizon), n
        kinds["misses" if got.misses else "on time"] += 1
        kinds["a shared id misses"] += any(miss.task in shared for miss in got.misses)
        kinds["recurring" if any(t.period for t in ts) else "one-shot only"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_a_shared_id_reads_the_latest_late_finish_of_its_release():
    # the job of task 1 with deadline 5 ends at 3, its namesake's at 11,
    # after deadline 10: both are late at 11; task 2 has no subtask, so
    # each of its jobs is done at its release, after its deadline
    ts = TaskSet("ids", (
        DagTask(1, 3, 5, None, (Subtask(1, 3),)),
        DagTask(1, 8, 10, None, (Subtask(2, 8),)),
        DagTask(2, 0, -1, 4, ()),
    ))
    pa = PartitionedAssignment({(1, 1): 1, (1, 2): 1})
    trace = simulate_partitioned_edf(ts, pa, Platform(1, Fraction(1)), Fraction(5))
    assert trace.misses == (
        DeadlineMiss(2, Fraction(-1), Fraction(0)),
        DeadlineMiss(2, Fraction(3), Fraction(4)),
        DeadlineMiss(1, Fraction(5), Fraction(11)),
        DeadlineMiss(1, Fraction(10), Fraction(11)),
    )


# --- processors that share one item list ------------------------------------
#
# The partitioned test and the simulator handle each distinct processor once
# and give its result to the processors that repeat it.  The sets below put
# such twins beside what tells them apart: permuted subtask ids, two tasks of
# equal demand on different twins, and one task's two subtasks in opposite id
# order on two twins.


def twin_processors(rng):
    """An edge-free set whose processors share item lists, its partition,
    a platform, and the twins it holds."""
    m = rng.randint(2, 4)
    tasks, mapping, kinds = [], {}, []

    def timing():
        period = rng.choice(PERIODS) if rng.random() < 0.5 else None
        deadline = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
        if period is not None and rng.random() < 0.6:
            deadline = min(deadline, period)
        return deadline, period

    def wcet():
        return Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 7))) / rng.choice((1, 4))

    def add(deadline, period, placed, sids=None):
        # placed: (processor, wcet) per subtask; ids drawn in any order
        tid = len(tasks) + 1
        sids = sids or rng.sample(range(1, 3 * len(placed) + 1), len(placed))
        tasks.append(DagTask(tid, sum(w for _, w in placed), deadline, period,
                             tuple(Subtask(sid, w) for sid, (_, w) in zip(sids, placed))))
        mapping.update({(tid, sid): proc for sid, (proc, _) in zip(sids, placed)})

    for _ in range(rng.randint(1, 3)):  # one equal subtask on every processor
        w = wcet()
        add(*timing(), [(proc, w) for proc in range(1, m + 1)])
    if rng.random() < 0.5:  # equal demand on processors 1 and 2, other task ids
        (deadline, period), w = timing(), wcet()
        add(deadline, period, [(1, w)])
        add(deadline, period, [(2, w)])
        kinds.append("equal demand, other task")
    if rng.random() < 0.5:  # two subtasks on each of 1 and 2, ids in opposite order
        (deadline, period), a, b = timing(), wcet(), wcet()
        low, high = sorted(rng.sample(range(1, 9), 2)), sorted(rng.sample(range(9, 17), 2))
        first, second = (low, high[::-1]) if rng.random() < 0.5 else (high, low[::-1])
        add(deadline, period, [(1, a), (1, b), (2, a), (2, b)], [*first, *second])
        kinds.append("opposite id order")
    if rng.random() < 0.15:  # one or two nonpositive periods on every processor
        for period in rng.sample((Fraction(0), Fraction(-3)), rng.randint(1, 2)):
            w = wcet()
            add(Fraction(5), period, [(proc, w) for proc in range(1, m + 1)])
        kinds.append("nonpositive period")
    ts = TaskSet(name="twins", tasks=tuple(tasks))
    return ts, PartitionedAssignment(mapping), Platform(m, rng.choice(SPEEDS)), kinds


def items_by_processor(ts, pa):
    """Each processor's (wcet, deadline, period) items, processors in the
    order the partition first reaches them."""
    by_proc = {}
    for task in ts:
        for st in task.subtasks:
            by_proc.setdefault(pa.mapping[task.id, st.id], []).append(
                (st.wcet, task.deadline, task.period)
            )
    return by_proc


def split_twins(ts, pa, plat):
    """Pairs of processors whose item lists match but whose job shapes
    differ: the partitioned test and the simulator handle both apart."""
    by_proc = items_by_processor(ts, pa)
    shape = {proc: key for key, procs in _partition(ts, pa, plat).items() for proc, _ in procs}
    return sum(
        by_proc[a] == by_proc[b] and shape[a] != shape[b]
        for a, b in combinations(by_proc, 2)
    )


def refusal(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def simulation_refusal(ts, horizon, limit):
    """The message a simulation of ``ts`` ends with, or None."""
    for task in ts:
        if task.period is not None and task.period <= 0:
            return f"task {task.id}: period must be positive, got {task.period}"
    if horizon is None:
        horizon = ref_default_horizon([(t.work, t.deadline, t.period) for t in ts])
    jobs = sum(
        len(t.subtasks) * (1 if t.period is None else int(horizon // t.period) + 1)
        for t in ts
    )
    if jobs > limit:
        return (
            f"simulation to horizon {format_rational(horizon)} releases {jobs} "
            f"subtask jobs, more than the limit of {limit}"
        )
    return None


def test_twin_processors_match_a_scan_and_a_run_of_each(monkeypatch):
    rng = random.Random(21)
    kinds = Counter()
    for n in range(600):
        # now and then a step limit low enough to refuse scans and runs
        limit = 12 if rng.random() < 0.15 else 10**6
        monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", limit)
        monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", limit)
        ts, pa, plat, twins = twin_processors(rng)
        by_proc = items_by_processor(ts, pa)
        # the verdict, or the error, of a scan of each processor in turn
        got = refusal(partitioned_feasible, ts, pa, plat)
        want = refusal(
            lambda: all(uniprocessor_edf_feasible(items, plat.speed) for items in by_proc.values())
        )
        assert got == want, n
        if type(want) is bool:
            assert want == all(
                ref_first_violation(items, plat.speed) is None for items in by_proc.values()
            ), n
        if "nonpositive period" in twins:
            horizon = rng.choice((None, Fraction(10)))
        else:
            horizon = random_horizon(rng, ts)
        expected = simulation_refusal(ts, horizon, limit)
        got = refusal(simulate_partitioned_edf, ts, pa, plat, horizon)
        if expected is None:
            assert got == reference_partitioned_edf(ts, pa, plat, horizon=horizon), n
            assert check_trace(ts, got) == [], n
            kinds["misses" if got.misses else "on time"] += 1
        else:
            assert got == expected, n
            kinds["simulation refused"] += 1
        kinds.update(twins)
        kinds["equal items, other shape"] += split_twins(ts, pa, plat)
        kinds["feasible" if want is True else "infeasible" if want is False else "scan refused"] += 1
        kinds["step limit"] += limit < 10**6
        kinds["recurring"] += any(t.period for t in ts)
        kinds["explicit horizon"] += horizon is not None
        kinds[f"speed {plat.speed}"] += 1
    assert min(kinds.values()) >= 50, kinds
