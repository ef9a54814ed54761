import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter

import pytest

from fedsched.feasibility import (
    PartitionedAssignment,
    _partition,
    partition_by_subtask_index,
    partitioned_feasible,
    uniprocessor_edf_feasible,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, span, validate_task_set, work
from fedsched.rational import format_rational
from fedsched.simulate import (
    DeadlineMiss,
    Interval,
    ScheduleTrace,
    _edf_on_one_processor,
    _simulate_ticks,
    check_trace,
    simulate_list_schedule,
    simulate_partitioned_edf,
)
from reference import (
    _ref_edf_on_one_processor,
    _RefJob,
    ref_default_horizon,
    ref_first_violation,
    ref_la_numerator,
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


def test_the_budget_counts_the_misses_of_a_task_with_no_subtask(monkeypatch):
    # each release of a task with no subtask and a negative deadline is a
    # miss, so it counts toward the limit as a one-subtask job does
    monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", 10)
    for task in (DagTask(1, 0, -1, 1, ()), seq_task(1, 1, 1, period=Fraction(1))):
        ts = TaskSet(name="e", tasks=(task,))
        with pytest.raises(ValueError, match="horizon 1000 releases 1001 subtask jobs"):
            simulate_partitioned_edf(
                ts, one_processor(ts), Platform(1, Fraction(1)), horizon=Fraction(1000)
            )
    # at the limit: ten releases, ten misses
    ts = TaskSet(name="e", tasks=(DagTask(1, 0, -1, 1, ()),))
    trace = simulate_partitioned_edf(
        ts, one_processor(ts), Platform(1, Fraction(1)), horizon=Fraction(9)
    )
    assert [miss.deadline for miss in trace.misses] == [Fraction(k - 1) for k in range(10)]


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


def test_an_unhashable_task_id_is_refused_in_the_validator_s_words():
    ts = TaskSet("x", (DagTask([1], 1, 5, None, (Subtask(1, 1),)),))
    with pytest.raises(ValueError) as raised:
        check_trace(ts, ScheduleTrace(Fraction(1), None, (), ()))
    assert str(raised.value) == "task set 'x': task id [1] is not an integer"


def test_the_partitioned_simulator_refuses_an_unhashable_id_in_the_validator_s_words():
    empty, plat = PartitionedAssignment({}), Platform(1, Fraction(1))
    for task in (
        DagTask([1], 1, 5, None, (Subtask(1, 1),)),
        DagTask(1, 1, 5, None, (Subtask([2], 1),)),
    ):
        ts = TaskSet("x", (task,))
        with pytest.raises(ValueError) as raised:
            simulate_partitioned_edf(ts, empty, plat)
        assert [str(raised.value)] == validate_task_set(ts)


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
    # one; a namesake here has a deadline and period of its own, now and
    # then those of the task whose id it repeats
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
            deadline, period = like.deadline, like.period
            if rng.random() < 0.7:
                deadline = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
                period = rng.choice(PERIODS + (None,)) if like.period else None
            tasks.insert(rng.randint(0, len(tasks)), DagTask(
                like.id, sum(st.wcet for st in subtasks), deadline, period, subtasks
            ))
            for sid in sids:
                mapping.setdefault((like.id, sid), rng.randint(1, plat.processors))
        ts, pa = TaskSet("shared ids", tuple(tasks)), PartitionedAssignment(mapping)
        horizon = random_horizon(rng, ts)
        got = simulate_partitioned_edf(ts, pa, plat, horizon=horizon)
        assert got == reference_partitioned_edf(ts, pa, plat, horizon=horizon), n
        kinds["misses" if got.misses else "on time"] += 1
        kinds["a shared id misses"] += any(miss.task in shared for miss in got.misses)
        kinds["namesakes with different deadlines"] += any(
            len({t.deadline for t in ts if t.id == tid}) > 1 for tid in shared
        )
        kinds["namesakes with different periods"] += any(
            len({t.period for t in ts if t.id == tid}) > 1 for tid in shared
        )
        kinds["recurring" if any(t.period for t in ts) else "one-shot only"] += 1
    floors = {"namesakes with different deadlines": 200, "a shared id misses": 100}
    assert all(kinds[kind] >= floor for kind, floor in floors.items()), kinds
    assert min(kinds.values()) >= 50, kinds


def test_a_shared_id_misses_once_per_late_absolute_deadline():
    # the job of task 1 with deadline 5 ends at 3, on time, and its
    # namesake's at 11, after deadline 10: one miss, at 10; task 2 has no
    # subtask, so each of its jobs is done at its release, after its
    # deadline
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
            verdicts = []
            for items in by_proc.values():
                verdict = refusal(lambda: ref_first_violation(items, plat.speed) is None)
                if type(verdict) is str:
                    # the engine passes N == 0 with no scan; the reference
                    # reaches a verdict only past the step limit
                    assert "step instants" in verdict and ref_la_numerator(items) == 0, n
                    with monkeypatch.context() as lifted:
                        lifted.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 10**9)
                        verdict = ref_first_violation(items, plat.speed) is None
                verdicts.append(verdict)
                if not verdict:
                    break
            assert want == all(verdicts), n
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


# --- one hyperperiod per recurring processor ----------------------------------
#
# The simulator runs EDF over one hyperperiod of a processor whose tasks all
# recur and copies that run over the later whole hyperperiods, unless a job
# is still pending at the hyperperiod.  The test below requires every trace
# and miss list to be that of one kernel run over all of each processor's
# jobs, counts which way each processor went, and requires a processor that
# is not replayed to take exactly that one run.

REPLAY_PERIODS = tuple(map(Fraction, ("3/2", "2", "3", "4", "6", "5/2")))


def plain_ticks(ts, groups, plat, horizon):
    """:func:`_simulate_ticks`'s runs and misses from one kernel run over
    every job of each processor, and each processor's job count."""
    ticks, p, q = ts._ticks, plat.speed.numerator, plat.speed.denominator
    releases = [
        [0] if period is None else [k * period * p for k in range(horizon * ticks.scale // period + 1)]
        for period in ticks.period
    ]
    late, runs, counts = {}, {}, {}
    for procs in groups.values():
        for proc, placed in procs:
            jobs = sorted(
                (
                    (r, r + ticks.deadline[i] * p, ts.tasks[i].id, ts.tasks[i].subtasks[k].id,
                     ticks.wcets[i][k] * q)
                    for i, k in placed
                    for r in releases[i]
                ),
                key=itemgetter(0),
            )
            runs[proc] = _edf_on_one_processor(proc, jobs, late)
            counts[proc] = len(jobs)
    # every job finishes at or after its release; one of no subtask, there
    for i, task in enumerate(ts):
        for r in releases[i]:
            key = (r + ticks.deadline[i] * p, task.id)
            late[key] = max(late.get(key, r), r)
    missed = [(deadline, tid, done) for (deadline, tid), done in late.items() if done > deadline]
    missed.sort(key=itemgetter(0, 1))
    return [run for proc in sorted(runs) for run in runs[proc]], missed, counts


def replay_case(rng):
    """A recurring edge-free set, its partition, a platform and a horizon:
    shared task ids, zero wcets, negative deadlines, several subtasks of
    one task on one processor; now and then a one-shot task, and now and
    then one processor loaded exactly to its speed."""
    m = rng.randint(1, 3)
    load = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)))
    tasks = []
    for n in range(rng.randint(1, 5)):
        tid = n + 1 if rng.random() < 0.85 else rng.randint(1, n + 1)
        period = rng.choice(REPLAY_PERIODS) if rng.random() < 0.9 else None
        deadline = Fraction(rng.randint(-2, 16), rng.choice((1, 2, 3)))
        if period is not None and rng.random() < 0.4:
            deadline = period
        subtasks = tuple(
            Subtask(sid, Fraction(rng.randint(1, 4), rng.choice((2, 3, 5))) * load)
            if rng.random() < 0.9 else Subtask(sid, 0)
            for sid in rng.sample(range(1, 5), rng.randint(1, 3))
        )
        tasks.append(DagTask(tid, sum(st.wcet for st in subtasks), deadline, period, subtasks))
    twins = rng.random() < 0.2
    if twins:
        # every task has one subtask of one wcet on each processor: the
        # processors share one job shape, and only the first runs EDF
        m = rng.randint(2, 3)
        tasks = [
            DagTask(t.id, t.subtasks[0].wcet * m, t.deadline, t.period,
                    tuple(Subtask(sid, t.subtasks[0].wcet) for sid in rng.sample(range(1, 9), m)))
            for t in tasks
        ]
    elif rng.random() < 0.25:
        # one processor of single-subtask tasks, filled to utilization 1,
        # where runs of one subtask may meet at each hyperperiod, and now
        # and then a task of no work whose jobs wait behind the others
        m, periods = 1, rng.sample(REPLAY_PERIODS, rng.randint(1, 3))
        shares = [Fraction(rng.randint(1, 4)) for _ in periods]
        wcets = [share / sum(shares) * period for share, period in zip(shares, periods)]
        tasks = [
            DagTask(tid, wcet, period * rng.choice((1, 2)) - 1, period, (Subtask(1, wcet),))
            for tid, (wcet, period) in enumerate(zip(wcets, periods), start=1)
        ]
        if rng.random() < 0.5:
            period = rng.choice(REPLAY_PERIODS)
            tasks.append(DagTask(len(tasks) + 1, 0, period + 1, period, (Subtask(1, 0),)))
    ts = TaskSet("replay", tuple(tasks))
    if twins:
        pa = PartitionedAssignment(
            {(t.id, st.id): k for t in ts for k, st in enumerate(t.subtasks, start=1)}
        )
    else:
        pa = PartitionedAssignment(
            {(t.id, st.id): rng.randint(1, m) for t in ts for st in t.subtasks}
        )
    plat = Platform(m, rng.choice((Fraction(1), Fraction(1), Fraction(3, 2), Fraction(7, 3))))
    # the lcm of the periods as rationals, 1 when none recurs
    periods = [t.period for t in ts if t.period is not None] or [Fraction(1)]
    hyper = Fraction(lcm(*(per.numerator for per in periods)),
                     gcd(*(per.denominator for per in periods)))
    choice = rng.random()
    if choice < 0.25:
        return ts, pa, plat, None
    if choice < 0.8:
        tick = Fraction(1, ts._ticks.scale)
        return ts, pa, plat, max(0, hyper * rng.randint(1, 4) + rng.choice((-tick, 0, tick)))
    return ts, pa, plat, Fraction(rng.randint(0, 60), rng.choice((1, 7)))


def expanded(blocks):
    """The runs the blocks of :func:`_simulate_ticks` stand for."""
    return [
        (proc, task, sids[task] if sids else subtask, start + shift, end + shift)
        for proc, runs, shift, sids in blocks
        for _, task, subtask, start, end in runs
    ]


def test_one_hyperperiod_replayed_matches_one_run_over_every_job(monkeypatch):
    handed = {}

    def counted(proc, jobs, late):
        handed.setdefault(proc, []).append(len(jobs))
        return _edf_on_one_processor(proc, jobs, late)

    monkeypatch.setattr("fedsched.simulate._edf_on_one_processor", counted)
    rng = random.Random(1980)
    kinds = Counter()
    for n in range(1500):
        ts, pa, plat, horizon = replay_case(rng)
        kinds["explicit horizon"] += horizon is not None
        groups = _partition(ts, pa, plat)
        handed.clear()
        scale, horizon, blocks, missed = _simulate_ticks(ts, groups, plat, horizon)
        want_runs, want_missed, counts = plain_ticks(ts, groups, plat, horizon)
        assert (expanded(blocks), missed) == (want_runs, want_missed), n
        assert all(runs for _, runs, _, _ in blocks), n
        assert scale == ts._ticks.scale * plat.speed.numerator
        ticks, p, q = ts._ticks, plat.speed.numerator, plat.speed.denominator
        for (first, placed), *_ in groups.values():
            calls, jobs = handed[first], counts[first]
            periods = [ticks.period[i] for i, _ in placed]
            if None in periods:
                path = "one-shot"
            else:
                # the work released before the hyperperiod, against it
                hyper = lcm(*periods) * p
                last = max(horizon * ticks.scale // period * period * p for period in periods)
                wcets = [ticks.wcets[i][k] * q for i, k in placed]
                work = sum(hyper // (period * p) * w for period, w in zip(periods, wcets))
                if hyper > last:
                    path = "last release before the hyperperiod"
                elif work > hyper or work == hyper and 0 in wcets:
                    path = "backlog at the hyperperiod"
                else:
                    path = "replayed"
                    assert sum(calls) <= jobs and len(calls) == 2, n
                    # a run across a multiple of the hyperperiod: runs of
                    # one subtask joined where two copies meet
                    kinds["runs joined across copies"] += any(
                        start < k * hyper < end
                        for proc, _, _, start, end in want_runs if proc == first
                        for k in range(start // hyper + 1, end // hyper + 1)
                    )
            if path != "replayed":
                assert calls == [jobs], n
            kinds[path] += 1
        kinds["misses" if missed else "on time"] += 1
        kinds["tick > 1"] += ts._ticks.scale > 1
        kinds["speed other than 1"] += plat.speed != 1
        kinds["shared task id"] += len({t.id for t in ts}) < len(ts)
        kinds["zero wcet"] += any(st.wcet == 0 for t in ts for st in t.subtasks)
        kinds["negative deadline"] += any(t.deadline < 0 for t in ts)
        kinds["subtasks of one task together"] += len(pa.mapping) > len(
            {(tid, proc) for (tid, _), proc in pa.mapping.items()}
        )
        kinds["twin processors"] += any(len(procs) > 1 for procs in groups.values())
    floors = {"replayed": 200, "backlog at the hyperperiod": 50,
              "last release before the hyperperiod": 20, "twin processors": 100,
              "runs joined across copies": 20}
    assert all(kinds[path] >= floor for path, floor in floors.items()), kinds
    assert min(kinds.values()) >= 20, kinds


def test_a_job_of_no_work_waiting_at_the_hyperperiod_takes_one_run():
    # task 1 fills the processor; task 2's first job, of no work, waits
    # behind it until 2, where task 1's next job, of equal deadline and a
    # lower id, goes first: it completes at 4, after its deadline 3
    ts = TaskSet("wait", (
        DagTask(1, 2, 1, 2, (Subtask(1, 2),)),
        DagTask(2, 0, 3, 2, (Subtask(1, 0),)),
    ))
    pa, plat = one_processor(ts), Platform(1, Fraction(1))
    trace = simulate_partitioned_edf(ts, pa, plat, Fraction(6))
    assert trace == reference_partitioned_edf(ts, pa, plat, Fraction(6))
    assert [miss for miss in trace.misses if miss.task == 2] == [
        DeadlineMiss(2, Fraction(3 + 2 * k), Fraction(4 + 2 * k)) for k in range(3)
    ]


# --- a job alone on an idle processor ------------------------------------------
#
# The kernel runs a job released onto an idle processor and done by the next,
# strictly later, release without entering its heap.  The tests below hold
# the kernel to the Fraction event loop at that path's edges.


def kernel_and_reference(jobs):
    """The kernel's runs and late completions for int ``jobs`` at speed 1,
    then the Fraction reference's."""
    late = {}
    runs = _edf_on_one_processor(1, jobs, late)
    intervals, completion = _ref_edf_on_one_processor(
        1, [_RefJob(Fraction(d), t, s, Fraction(r), Fraction(w)) for r, d, t, s, w in jobs],
        Fraction(1),
    )
    want = {key: done for key, done in completion.items() if done > key[0]}
    return (runs, late), ([tuple(iv) for iv in intervals], want)


def test_a_lone_job_runs_as_the_heap_would_run_it():
    cases = {
        # the job ends at the next release: alone, and joined to its next
        # job when that is the same subtask
        "end at the next release": [(0, 5, 1, 1, 2), (2, 6, 2, 1, 1)],
        "one subtask back to back": [(0, 4, 1, 1, 2), (2, 6, 1, 1, 2), (4, 5, 1, 1, 2)],
        # another job is released at the same instant: through the heap
        "next release now": [(0, 5, 1, 1, 2), (0, 3, 2, 1, 1)],
        "next release now, after idling": [(1, 2, 1, 1, 1), (4, 9, 1, 1, 1), (4, 6, 2, 1, 1)],
        "zero wcet": [(0, 1, 1, 1, 0), (1, 3, 2, 1, 2)],
        "zero wcet, next release now": [(3, 5, 1, 1, 0), (3, 4, 2, 1, 1)],
        "zero wcet, due before its release": [(0, -1, 1, 1, 0), (2, 3, 2, 1, 1)],
        "late alone": [(0, 1, 1, 1, 3), (5, 9, 2, 1, 1)],
    }
    for name, jobs in cases.items():
        got, want = kernel_and_reference(jobs)
        assert got == want, name
    assert kernel_and_reference(cases["one subtask back to back"])[0][0] == [(1, 1, 1, 0, 6)]
    assert kernel_and_reference(cases["late alone"])[0][1] == {(1, 1): 3}


def test_the_kernel_matches_the_fraction_event_loop():
    rng = random.Random(77)
    kinds = Counter()
    for n in range(2000):
        releases = sorted(rng.randint(0, 15) for _ in range(rng.randint(1, 8)))
        jobs = [
            (r, r + rng.randint(-2, 8), rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 4))
            for r in releases
        ]
        got, want = kernel_and_reference(jobs)
        assert got == want, jobs
        kinds["late"] += bool(got[1])
        for (r, _, _, _, w), (after, *_) in zip(jobs, jobs[1:]):
            kinds["end at the next release"] += r + w == after
            kinds["next release now"] += r == after
        kinds["zero wcet"] += any(job[4] == 0 for job in jobs)
    assert min(kinds.values()) >= 200, kinds
