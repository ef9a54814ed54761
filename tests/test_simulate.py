import random
from collections import Counter
from fractions import Fraction

import pytest

from fedsched.feasibility import (
    PartitionedAssignment,
    partition_by_subtask_index,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, span, work
from fedsched.simulate import (
    DeadlineMiss,
    Interval,
    ScheduleTrace,
    check_trace,
    simulate_list_schedule,
    simulate_partitioned_edf,
)
from reference import ref_default_horizon, reference_partitioned_edf, seq_task


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
