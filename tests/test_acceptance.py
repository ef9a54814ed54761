"""End-to-end acceptance checks: one test (and one pass/fail line) per criterion.

All comparisons are exact rational arithmetic, with no tolerance anywhere:
criterion 10 checks the allocator's exact threshold speed.
"""

import math
import random
from fractions import Fraction

from fedsched.explore import brute_force_federated_oracle, min_feasible_speed_federated
from fedsched.feasibility import (
    PartitionedAssignment,
    demand_profile,
    partition_by_subtask_index,
    partitioned_feasible,
    processor_items,
    uniprocessor_edf_feasible,
)
from fedsched.federated import (
    FederatedAllocation,
    Infeasible,
    TaskClass,
    allocate_federated,
    classify,
    heavy_demand_lower_bound,
    heavy_processor_allocation,
    speedup_lower_bound,
    total_demand_lower_bound,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, span, work
from fedsched.simulate import simulate_list_schedule, simulate_partitioned_edf
from reference import reference_set


def full_grid():
    for m in range(2, 13):
        for n in range(2, 13):
            for k in (2, 3, 4):
                yield m, n, Fraction(k)


def test_criterion_01_reference_family_exact_values():
    ts = reference_set()
    wcets = [task.wcet_total for task in ts]
    deadlines = [task.deadline for task in ts]
    assert wcets == [10, 10, 20, 40, 80, 160, 320, 640, 1280, 2560]
    assert deadlines == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    for i, task in enumerate(ts, start=1):
        expected_wcet = Fraction(10) if i == 1 else Fraction(2) ** (i - 2) * 10
        expected_deadline = Fraction(2) ** (i - 1) if i > 1 else Fraction(1)
        assert task.wcet_total == expected_wcet
        assert task.deadline == expected_deadline
        assert task.period is None
        assert task.edges == ()
        assert len(task.subtasks) == 10
        assert all(st.wcet == task.wcet_total / 10 for st in task.subtasks)
    print("criterion 1: PASS - generated family matches the closed-form values")


def test_criterion_02_partitioned_unit_speed_exactly_fills_capacity():
    ts = reference_set()
    pa = partition_by_subtask_index(ts, 10)
    assert partitioned_feasible(ts, pa, Platform(10, Fraction(1))) is True
    deadlines = [task.deadline for task in ts]
    for items in processor_items(ts, pa).values():
        profile = demand_profile(items)
        assert list(profile.breakpoints) == [(d, d) for d in deadlines]
    print("criterion 2: PASS - unit-speed demand equals capacity at all 10 test points")


def test_criterion_03_simulation_confirms_the_analysis():
    ts = reference_set()
    pa = partition_by_subtask_index(ts, 10)
    on_time = simulate_partitioned_edf(ts, pa, Platform(10, Fraction(1)))
    assert on_time.misses == ()
    ends = {}
    for iv in on_time.intervals:
        key = (iv.processor, iv.task)
        ends[key] = max(ends.get(key, Fraction(0)), iv.end)
    for task in ts:
        for proc in range(1, 11):
            assert ends[(proc, task.id)] == task.deadline
    slow = simulate_partitioned_edf(ts, pa, Platform(10, Fraction(999, 1000)))
    assert any(m.task == 1 for m in slow.misses)
    print("criterion 3: PASS - zero misses at speed 1, task 1 misses at 999/1000")


def test_criterion_04_demand_certificate_concrete_values():
    ts = reference_set()
    speed = Fraction(4999, 1000)
    assert total_demand_lower_bound(ts, speed) == 21
    assert 21 > 10
    per_task = [heavy_demand_lower_bound(task, speed) for task in ts]
    assert per_task == [3] + [2] * 9
    print("criterion 4: PASS - demand lower bound 21 = 3 + 9*2 > 10 processors")


def test_criterion_05_demand_bound_holds_across_the_grid():
    checked = 0
    for m, n, k in full_grid():
        ts = build_counterexample(CounterexampleParams(m, n, k))
        density = (1 - 1 / k) * m
        for j in range(1, 9):
            speed = density * j / 9
            for task in ts:
                assert classify(task, speed) is TaskClass.HEAVY
            demand = total_demand_lower_bound(ts, speed)
            floor_bound = (m / speed) * (n - (n - 1) / k)
            assert demand >= floor_bound
            checked += 1
    assert checked == 11 * 11 * 3 * 8
    print(f"criterion 5: PASS - demand bound exact on {checked} (M,N,K,s) points")


def test_criterion_06_allocator_infeasible_below_the_bound():
    assert speedup_lower_bound(10, 10, Fraction(2)) == 5
    allocator_checked = 0
    oracle_checked = 0
    for m, n, k in full_grid():
        ts = build_counterexample(CounterexampleParams(m, n, k))
        bound = speedup_lower_bound(m, n, k)
        for j in range(1, 9):
            speed = bound * j / 9
            plat = Platform(m, speed)
            result = allocate_federated(ts, plat)
            assert isinstance(result, Infeasible)
            allocator_checked += 1
            if n <= 5 and m <= 4:
                assert brute_force_federated_oracle(ts, plat) is False
                oracle_checked += 1
    assert allocator_checked == 11 * 11 * 3 * 8
    assert oracle_checked == 4 * 3 * 3 * 8
    print(
        "criterion 6: PASS - bound(10,10,2)=5; "
        f"{allocator_checked} sub-bound allocations infeasible, "
        f"{oracle_checked} confirmed by exhaustive search"
    )


def test_criterion_07_demand_analysis_matches_simulated_edf():
    agreements = 0
    feasible_seen = 0
    infeasible_seen = 0
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        items = [
            (Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 12)))
            for _ in range(n)
        ]
        analysis = uniprocessor_edf_feasible(items, Fraction(1))
        tasks = tuple(
            DagTask(
                id=i,
                wcet_total=wcet,
                deadline=deadline,
                period=None,
                subtasks=(Subtask(1, wcet),),
                edges=(),
            )
            for i, (wcet, deadline) in enumerate(items, start=1)
        )
        ts = TaskSet(name=f"items-{seed}", tasks=tasks)
        pa = PartitionedAssignment({(t.id, 1): 1 for t in tasks})
        trace = simulate_partitioned_edf(ts, pa, Platform(1, Fraction(1)))
        simulated = trace.misses == ()
        assert analysis == simulated
        agreements += 1
        if analysis:
            feasible_seen += 1
        else:
            infeasible_seen += 1
    assert agreements == 500
    assert feasible_seen > 0 and infeasible_seen > 0
    print(
        "criterion 7: PASS - analysis and simulation agree on all 500 item sets "
        f"({feasible_seen} feasible, {infeasible_seen} not)"
    )


def test_criterion_08_greedy_makespan_bound_and_cluster_sizing():
    rng = random.Random(424242)
    speeds = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    dags = 0
    clusters_checked = 0
    for seed in range(200):
        for task in random_task_set(seed):
            dags += 1
            total, path = work(task), span(task)
            speed = speeds[rng.randrange(len(speeds))]
            for m in range(1, 9):
                trace = simulate_list_schedule(task, m, speed)
                assert trace.makespan <= (path + (total - path) / m) / speed
            if total > path:
                # midpoint budget: heavy by a strict margin, sizable cluster
                heavy_speed = (path + total) / (2 * task.deadline)
                assert classify(task, heavy_speed) is TaskClass.HEAVY
                size = heavy_processor_allocation(task, heavy_speed)
                assert size is not None
                trace = simulate_list_schedule(task, size, heavy_speed)
                assert trace.makespan <= task.deadline
                clusters_checked += 1
    assert dags >= 500
    assert clusters_checked >= 300
    print(
        f"criterion 8: PASS - makespan bound exact on {dags} DAGs x 8 widths; "
        f"{clusters_checked} sized clusters met their deadlines"
    )


def test_criterion_09_allocator_feasible_implies_oracle_feasible():
    feasible_seen = 0
    infeasible_seen = 0
    for m in (2, 3):
        for n in (2, 3, 4):
            for k in (2, 3):
                ts = build_counterexample(CounterexampleParams(m, n, Fraction(k)))
                for j in range(1, 9):
                    speed = Fraction(j * (m + 1), 8)
                    plat = Platform(m, speed)
                    result = allocate_federated(ts, plat)
                    if isinstance(result, FederatedAllocation):
                        assert brute_force_federated_oracle(ts, plat) is True
                        feasible_seen += 1
                    else:
                        infeasible_seen += 1
    assert feasible_seen > 0 and infeasible_seen > 0
    print(
        "criterion 9: PASS - every allocator-feasible case confirmed by the oracle "
        f"({feasible_seen} feasible, {infeasible_seen} not)"
    )


def test_criterion_10_threshold_sits_above_five():
    ts = reference_set()
    s_star = min_feasible_speed_federated(ts, 10)
    assert s_star == Fraction(645, 128) > 5
    plat = Platform(10, s_star)
    assert isinstance(allocate_federated(ts, plat), FederatedAllocation)
    below = Platform(10, s_star - Fraction(1, 2**200))
    assert isinstance(allocate_federated(ts, below), Infeasible)
    print(
        f"criterion 10: PASS - exact threshold {s_star} ~ {float(s_star):.4f} >= 5; "
        "the allocator fits there and not 2**-200 below it"
    )
