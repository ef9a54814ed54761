import random
from fractions import Fraction

import pytest

import fedsched.federated
from fedsched.federated import (
    FederatedAllocation,
    Infeasible,
    TaskClass,
    _size_ratio,
    allocate_federated,
    classify,
    heavy_demand_lower_bound,
    heavy_processor_allocation,
    speedup_lower_bound,
    total_demand_lower_bound,
)
from fedsched.feasibility import Item, uniprocessor_edf_feasible
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, work
from fedsched.simulate import simulate_list_schedule
from reference import reference_set, seq_task


def test_classify_heavy():
    assert classify(seq_task(1, 10, 1), Fraction(4)) is TaskClass.HEAVY


def test_classify_boundary_is_light():
    # work == speed * deadline finishes exactly on time on one processor
    assert classify(seq_task(1, 10, 2), Fraction(5)) is TaskClass.LIGHT


def test_classify_with_slack_is_light():
    task = seq_task(1, 7, 3)
    assert classify(task, 2 * Fraction(7, 3)) is TaskClass.LIGHT


def test_heavy_demand_bound_reference_values():
    ts = reference_set()
    s = Fraction(5) - Fraction(1, 1000)
    assert heavy_demand_lower_bound(ts.tasks[0], s) == 3
    for task in ts.tasks[1:]:
        assert heavy_demand_lower_bound(task, s) == 2


def test_heavy_demand_bound_exact_division():
    assert heavy_demand_lower_bound(seq_task(1, 4, 1), Fraction(2)) == 2


def test_heavy_demand_bound_rejects_light_tasks():
    with pytest.raises(ValueError):
        heavy_demand_lower_bound(seq_task(1, 2, 2), Fraction(1))


def test_total_demand_reference_values():
    ts = reference_set()
    assert total_demand_lower_bound(ts, Fraction(4999, 1000)) == 21
    assert total_demand_lower_bound(ts, Fraction(1)) == 55
    assert total_demand_lower_bound(ts, Fraction(4)) == 21


def test_total_demand_smallest_instance():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    assert total_demand_lower_bound(ts, Fraction(1, 2)) == 6


def test_total_demand_rejects_sets_with_light_tasks():
    ts = reference_set()
    with pytest.raises(ValueError):
        total_demand_lower_bound(ts, Fraction(10))


def test_speedup_lower_bound_values():
    assert speedup_lower_bound(10, 10, Fraction(2)) == 5
    assert speedup_lower_bound(2, 2, Fraction(2)) == 1
    # min((1 - 2/5)*6, 4 - 3/(5/2)) = min(18/5, 14/5)
    assert speedup_lower_bound(6, 4, Fraction(5, 2)) == Fraction(14, 5)


def test_speedup_lower_bound_ratio_two_closed_form():
    for m in range(2, 13):
        for n in range(2, 13):
            expected = min(Fraction(m, 2), Fraction(n + 1, 2))
            assert speedup_lower_bound(m, n, Fraction(2)) == expected


def test_speedup_lower_bound_rejects_invalid():
    with pytest.raises(ValueError):
        speedup_lower_bound(1, 2, Fraction(2))
    with pytest.raises(ValueError):
        speedup_lower_bound(2, 2, Fraction(3, 2))


def test_cluster_sizing_reference_value():
    # work 10, span 1, deadline 2 at unit speed: ceil(9 / (2 - 1)) = 9
    ts = reference_set()
    assert heavy_processor_allocation(ts.tasks[1], Fraction(1)) == 9
    trace = simulate_list_schedule(ts.tasks[1], 9, Fraction(1))
    assert trace.makespan <= ts.tasks[1].deadline


def test_cluster_sizing_none_when_path_too_long():
    chain = DagTask(
        id=1,
        wcet_total=4,
        deadline=3,
        period=None,
        subtasks=(Subtask(1, Fraction(2)), Subtask(2, Fraction(2))),
        edges=((1, 2),),
    )
    # span 4 > deadline 3 at unit speed: no cluster size can help
    assert heavy_processor_allocation(chain, Fraction(1)) is None


def test_cluster_sizing_rejects_light_tasks():
    with pytest.raises(ValueError):
        heavy_processor_allocation(seq_task(1, 2, 2), Fraction(1))


def test_cluster_sizing_dominates_demand_bound():
    rng = random.Random(5)
    checked = 0
    for seed in range(80):
        for task in random_task_set(seed):
            speed = work(task) / task.deadline * Fraction(rng.randint(1, 3), 4)
            if speed <= 0 or classify(task, speed) is TaskClass.LIGHT:
                continue
            size = heavy_processor_allocation(task, speed)
            if size is None:
                continue
            assert size >= heavy_demand_lower_bound(task, speed)
            checked += 1
    assert checked > 50


def test_allocate_reference_infeasible_below_bound():
    ts = reference_set()
    result = allocate_federated(ts, Platform(10, Fraction(4)))
    assert isinstance(result, Infeasible)
    assert result.demand_lower_bound == 21
    assert result.processors_needed is not None
    assert result.processors_needed > 10


def test_allocate_reference_feasible_at_platform_speed():
    ts = reference_set()
    result = allocate_federated(ts, Platform(10, Fraction(10)))
    assert isinstance(result, FederatedAllocation)
    assert result.total_processors_used <= 10
    assert not result.heavy_grants  # every task is light at speed 10


def test_allocate_single_light_task():
    ts = TaskSet(name="one", tasks=(seq_task(1, 1, 2),))
    result = allocate_federated(ts, Platform(1, Fraction(1)))
    assert isinstance(result, FederatedAllocation)
    assert result.total_processors_used == 1
    assert result.light_partition == {1: 1}


def test_allocate_mixes_heavy_and_light():
    heavy = DagTask(
        id=1,
        wcet_total=4,
        deadline=2,
        period=None,
        subtasks=tuple(Subtask(i, Fraction(1)) for i in (1, 2, 3, 4)),
        edges=(),
    )
    light = seq_task(2, 1, 2)
    ts = TaskSet(name="mix", tasks=(heavy, light))
    result = allocate_federated(ts, Platform(5, Fraction(1)))
    assert isinstance(result, FederatedAllocation)
    # ceil((4 - 1) / (2 - 1)) = 3 exclusive processors for the heavy task
    assert result.heavy_grants == {1: 3}
    assert result.light_partition == {2: 1}
    assert result.total_processors_used == 4


def test_allocate_infeasible_when_lights_do_not_fit():
    # each task fits alone, but together they demand 5 by t=3
    ts = TaskSet(name="two", tasks=(seq_task(1, 2, 2), seq_task(2, 3, 3)))
    result = allocate_federated(ts, Platform(1, Fraction(1)))
    assert isinstance(result, Infeasible)
    assert result.processors_needed == 2
    assert result.demand_lower_bound is None  # no heavy task involved
    assert allocate_federated(ts, Platform(2, Fraction(1))).total_processors_used == 2


def test_allocate_infeasible_when_critical_path_too_long():
    chain = DagTask(
        id=1,
        wcet_total=4,
        deadline=3,
        period=None,
        subtasks=(Subtask(1, Fraction(2)), Subtask(2, Fraction(2))),
        edges=((1, 2),),
    )
    result = allocate_federated(TaskSet(name="c", tasks=(chain,)), Platform(4, Fraction(1)))
    assert isinstance(result, Infeasible)
    assert result.processors_needed is None


def test_allocation_is_independently_recheckable():
    ts = reference_set()
    plat = Platform(10, Fraction(6))
    result = allocate_federated(ts, plat)
    assert isinstance(result, FederatedAllocation)
    granted = sum(result.heavy_grants.values())
    # each shared processor's tasks, each run sequentially as one item
    by_id = {t.id: t for t in ts}
    shared = {}
    for tid, proc in sorted(result.light_partition.items()):
        t = by_id[tid]
        shared.setdefault(proc, []).append(Item(t.work, t.deadline, t.period))
    assert granted + len(shared) == result.total_processors_used
    assert result.total_processors_used <= plat.processors
    for items in shared.values():
        assert uniprocessor_edf_feasible(items, plat.speed)
    assert set(result.heavy_grants) | set(result.light_partition) == {
        t.id for t in ts
    }


def test_light_first_fit_shares_processors():
    # at the platform-size speed every task is light and the whole family
    # packs onto a single shared processor (prefix sums fill it exactly)
    for m, n in [(2, 2), (4, 4), (10, 10)]:
        ts = build_counterexample(CounterexampleParams(m, n, Fraction(2)))
        result = allocate_federated(ts, Platform(m, Fraction(m)))
        assert isinstance(result, FederatedAllocation)
        assert result.total_processors_used == 1
        assert set(result.light_partition.values()) == {1}


def test_size_speed_inverts_the_cluster_size():
    checked = 0
    for seed in range(60):
        for task in random_task_set(seed):
            for k in range(1, 6):
                speed = Fraction(*_size_ratio(task.work, task.span, task.deadline, k))
                if k == 1 or task.span == work(task):
                    # a chain's steps all sit at work/deadline, where it turns light
                    assert speed == work(task) / task.deadline
                    assert classify(task, speed) is TaskClass.LIGHT
                    continue
                assert heavy_processor_allocation(task, speed) <= k
                below = heavy_processor_allocation(task, speed - Fraction(1, 10**12))
                assert below is None or below > k
                checked += 1
    assert checked > 500


def test_allocator_classifies_each_task_once(monkeypatch):
    calls = []

    def counting(task, speed):
        calls.append(task.id)
        return classify(task, speed)

    monkeypatch.setattr(fedsched.federated, "classify", counting)
    ts = reference_set()
    for speed in (4, 6, 10):
        calls.clear()
        allocate_federated(ts, Platform(10, Fraction(speed)))
        assert sorted(calls) == [task.id for task in ts]


def test_retry_speed_of_each_infeasible_kind():
    # heavy clusters alone: tasks 2..10 turn light at work/deadline = 5
    ts = reference_set()
    assert allocate_federated(ts, Platform(10, Fraction(4))).retry_speed == 5
    below = allocate_federated(ts, Platform(10, 5 - Fraction(1, 10**9)))
    assert isinstance(below, Infeasible) and below.retry_speed == 5
    # a light task that does not fit: demand 5 by t = 3 fits from speed 5/3 on
    pair = TaskSet(name="two", tasks=(seq_task(1, 2, 2), seq_task(2, 3, 3)))
    assert allocate_federated(pair, Platform(1, Fraction(1))).retry_speed == Fraction(5, 3)
    assert isinstance(
        allocate_federated(pair, Platform(1, Fraction(5, 3))), FederatedAllocation
    )
    # utilization 1 of two recurring tasks fits from speed 1 on
    busy = TaskSet(name="u", tasks=(seq_task(1, 1, 2, 2), seq_task(2, 1, 2, 2)))
    assert allocate_federated(busy, Platform(1, Fraction(3, 4))).retry_speed == 1
    assert isinstance(allocate_federated(busy, Platform(1, Fraction(1))), FederatedAllocation)
    # no cluster size suffices: span 4, work 6, deadline 3 on 2 processors
    # fits from (4 + (6 - 4)/2)/3 = 5/3 on
    chain = DagTask(
        id=1,
        wcet_total=6,
        deadline=3,
        period=None,
        subtasks=tuple(Subtask(i, Fraction(2)) for i in (1, 2, 3)),
        edges=((1, 2),),
    )
    one = TaskSet(name="c", tasks=(chain,))
    result = allocate_federated(one, Platform(2, Fraction(1)))
    assert result.processors_needed is None and result.retry_speed == Fraction(5, 3)
    assert isinstance(allocate_federated(one, Platform(2, Fraction(5, 3))), FederatedAllocation)
    # a negative deadline fits at no speed
    late = TaskSet(name="z", tasks=(seq_task(1, 1, -1),))
    assert allocate_federated(late, Platform(1, Fraction(1))).retry_speed is None


def test_nonpositive_deadline_fits_on_no_cluster():
    # a heavy task due at or before its release: no demand bound, no retry
    for deadline in (0, -1):
        ts = TaskSet(name="d", tasks=(seq_task(1, 2, deadline),))
        result = allocate_federated(ts, Platform(2, Fraction(1)))
        assert isinstance(result, Infeasible)
        assert result.processors_needed is None
        assert result.demand_lower_bound is None and result.retry_speed is None


def test_one_comparison_admission_needs_one_shot_items_on_both_sides():
    # A recurs, so at t = 2 its second job joins B's: demand 3 > 2, found only
    # by the full scan; summed work 1 + 1 against speed * deadline 2 would admit B
    a, b = seq_task(1, 1, 1, period=Fraction(1)), seq_task(2, 1, 2)
    ts = TaskSet(name="ab", tasks=(a, b))
    result = allocate_federated(ts, Platform(1, Fraction(1)))
    assert isinstance(result, Infeasible)
    assert result.retry_speed == Fraction(3, 2) and result.processors_needed == 2
    assert allocate_federated(ts, Platform(2, Fraction(1))).light_partition == {1: 1, 2: 2}
    # the reverse: a one-shot processor and a recurring newcomer whose
    # deadline exceeds its period (outside what validate accepts), so its
    # utilization 2 overruns speed 1 though 1 + 2 fits in speed * deadline 3
    c, d = seq_task(1, 1, 1), seq_task(2, 2, 3, period=Fraction(1))
    ts = TaskSet(name="cd", tasks=(c, d))
    result = allocate_federated(ts, Platform(1, Fraction(1)))
    assert isinstance(result, Infeasible)
    assert result.retry_speed == 2 and result.processors_needed == 2
    assert allocate_federated(ts, Platform(2, Fraction(1))).light_partition == {1: 1, 2: 2}
