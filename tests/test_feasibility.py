import random
from fractions import Fraction

import pytest

from fedsched.feasibility import (
    MAX_DEMAND_STEPS,
    DemandProfile,
    Item,
    default_horizon,
    demand_profile,
    partition_by_subtask_index,
    partitioned_feasible,
    processor_items,
    uniprocessor_edf_feasible,
)
from fedsched.generate import (
    CounterexampleParams,
    build_counterexample,
    random_task_set,
)
from fedsched.model import DagTask, Platform, Subtask, TaskSet, work
from reference import reference_set


def dbf(work, deadline, period, t):
    """Maximum demand one item can place on the window [0, t]: the per-item
    reference that demand_profile sums in one sweep.

    A one-shot item (period None) is a single step of height ``work`` at
    t = deadline; a recurring item steps every ``period`` from its
    deadline on: max(0, floor((t - deadline)/period) + 1) * work.
    """
    work, deadline, t = Fraction(work), Fraction(deadline), Fraction(t)
    if period is None:
        return work if t >= deadline else Fraction(0)
    jobs = (t - deadline) // Fraction(period) + 1
    if jobs <= 0:
        return Fraction(0)
    return jobs * work


def test_dbf_one_shot_before_deadline():
    assert dbf(Fraction(10), Fraction(2), None, Fraction(1)) == 0


def test_dbf_one_shot_steps_at_deadline():
    assert dbf(Fraction(10), Fraction(2), None, Fraction(2)) == 10
    assert dbf(Fraction(10), Fraction(2), None, Fraction(100)) == 10


def test_dbf_recurring():
    # jobs at 0, 5, 10 have deadlines 2, 7, 12: three of them fit in [0, 12]
    assert dbf(Fraction(3), Fraction(2), Fraction(5), Fraction(12)) == 9
    assert dbf(Fraction(3), Fraction(2), Fraction(5), Fraction(11)) == 6
    assert dbf(Fraction(3), Fraction(2), Fraction(5), Fraction(1)) == 0


def test_dbf_monotone_and_linear():
    rng = random.Random(11)
    for _ in range(200):
        w = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        p = None if rng.random() < 0.5 else d + Fraction(rng.randint(0, 5))
        t1 = Fraction(rng.randint(0, 30), rng.randint(1, 3))
        t2 = t1 + Fraction(rng.randint(0, 10))
        assert dbf(w, d, p, t1) <= dbf(w, d, p, t2)
        assert dbf(3 * w, d, p, t1) == 3 * dbf(w, d, p, t1)


def test_test_points_one_shot_items():
    points = [t for t, _ in demand_profile([(1, 1), (1, 2), (2, 4)]).breakpoints]
    assert points == [1, 2, 4]


def test_test_points_recurring_items():
    points = [t for t, _ in demand_profile([(1, 2, 4)]).breakpoints]
    # horizon is 2 + 2*4 = 10: deadlines at 2, 6, 10
    assert points == [2, 6, 10]


def test_default_horizon():
    assert default_horizon([(1, 3)]) == 3
    assert default_horizon([(1, 3), (1, 2, 4), (1, 5, 6)]) == 5 + 2 * 12
    assert default_horizon([]) == 0


def test_demand_profile_invariants():
    profile = demand_profile([(1, 1), (2, 3), (1, 2, 4)])
    ts = [t for t, _ in profile.breakpoints]
    demands = [d for _, d in profile.breakpoints]
    assert ts == sorted(set(ts))
    assert all(a <= b for a, b in zip(demands, demands[1:]))


def test_reference_processor_load_is_exactly_tight():
    # one processor's share of the reference family: demand equals supply
    # at every step instant, so speed 1 works and nothing less does
    items = [(1, 1), (1, 2), (2, 4), (4, 8), (8, 16)]
    assert uniprocessor_edf_feasible(items, Fraction(1)) is True
    for t, demand in demand_profile(items).breakpoints:
        assert demand == t
    assert uniprocessor_edf_feasible(items, Fraction(99, 100)) is False


def test_empty_item_list_is_feasible():
    assert uniprocessor_edf_feasible([], Fraction(1, 100)) is True


def test_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        uniprocessor_edf_feasible([(1, 1)], Fraction(0))


def test_utilization_overload_is_infeasible():
    # work/period sums to 7/6 > 1: demand outruns any unit-speed scan
    assert uniprocessor_edf_feasible([(2, 2, 3), (2, 2, 4)], Fraction(1)) is False


def test_recurring_items_checked_at_step_instants():
    # utilization is exactly 1, but both items demand 2 by t=2
    assert uniprocessor_edf_feasible([(2, 2, 4), (2, 2, 4)], Fraction(1)) is False
    # staggered deadlines fit at speed 1
    assert uniprocessor_edf_feasible([(2, 2, 4), (2, 4, 4)], Fraction(1)) is True


def test_harmonic_recurring_mix_with_one_shot():
    items = [(1, 3, 3), (1, 4, 4), (2, 8)]
    assert uniprocessor_edf_feasible(items, Fraction(1)) is True
    assert uniprocessor_edf_feasible(items, Fraction(1, 2)) is False


def test_feasibility_monotone_in_speed():
    rng = random.Random(23)
    for _ in range(100):
        items = [
            (Fraction(rng.randint(1, 8)), Fraction(rng.randint(1, 20)))
            for _ in range(rng.randint(1, 5))
        ]
        s = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if uniprocessor_edf_feasible(items, s):
            assert uniprocessor_edf_feasible(items, s + Fraction(rng.randint(1, 5)))


def test_partition_places_subtask_k_on_processor_k():
    ts = build_counterexample(CounterexampleParams(3, 2, Fraction(2)))
    pa = partition_by_subtask_index(ts, 3)
    for task in ts:
        assert pa.processor_of(task.id, 2) == 2
        assert {pa.processor_of(task.id, st.id) for st in task.subtasks} == {1, 2, 3}


def test_partition_rejects_wrong_shape():
    ts = build_counterexample(CounterexampleParams(3, 2, Fraction(2)))
    with pytest.raises(ValueError):
        partition_by_subtask_index(ts, 4)


def test_processor_items_groups_by_processor():
    ts = reference_set()
    pa = partition_by_subtask_index(ts, 10)
    by_proc = processor_items(ts, pa)
    assert set(by_proc) == set(range(1, 11))
    for items in by_proc.values():
        assert len(items) == 10
        assert [it.deadline for it in items] == [t.deadline for t in ts]


def test_reference_partition_feasible_at_unit_speed():
    ts = reference_set()
    pa = partition_by_subtask_index(ts, 10)
    assert partitioned_feasible(ts, pa, Platform(10, Fraction(1))) is True
    assert partitioned_feasible(ts, pa, Platform(10, Fraction(1, 2))) is False
    assert partitioned_feasible(ts, pa, Platform(10, Fraction(2))) is True


def test_partitioned_rejects_edges():
    task = DagTask(
        id=1,
        wcet_total=2,
        deadline=5,
        period=None,
        subtasks=(Subtask(1, Fraction(1)), Subtask(2, Fraction(1))),
        edges=((1, 2),),
    )
    ts = TaskSet(name="e", tasks=(task,))
    pa = partition_by_subtask_index(ts, 2)
    with pytest.raises(ValueError):
        partitioned_feasible(ts, pa, Platform(2, Fraction(1)))


def test_partitioned_rejects_uncovered_assignment():
    from fedsched.feasibility import PartitionedAssignment

    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    partial = PartitionedAssignment({(1, 1): 1, (1, 2): 2, (2, 1): 1})
    with pytest.raises(ValueError):
        partitioned_feasible(ts, partial, Platform(2, Fraction(1)))


def test_partitioned_rejects_out_of_range_processor():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    pa = partition_by_subtask_index(ts, 2)
    with pytest.raises(ValueError):
        partitioned_feasible(ts, pa, Platform(1, Fraction(1)))


def test_item_accepts_pairs_and_triples():
    for spec in (Item(Fraction(1), Fraction(2)), (1, 2), (1, 2, None)):
        assert demand_profile([spec]).breakpoints == ((2, 1),)


def as_reference_item(spec):
    work, deadline, *rest = spec
    period = rest[0] if rest else None
    return (
        Fraction(work),
        Fraction(deadline),
        None if period is None else Fraction(period),
    )


def reference_profile(specs):
    """The summed dbf of every item at every step instant up to
    default_horizon, each total re-summed from scratch: the scan the
    one-pass engine replaced."""
    items = [as_reference_item(spec) for spec in specs]
    horizon = default_horizon(specs)
    points = set()
    for _, deadline, period in items:
        t = deadline
        while t <= horizon:
            points.add(t)
            if period is None:
                break
            t += period
    return tuple(
        (t, sum((dbf(w, d, p, t) for w, d, p in items), Fraction(0)))
        for t in sorted(points)
    )


def reference_edf_feasible(profile, utilization, speed):
    if utilization > speed:
        return False
    return all(demand <= speed * t for t, demand in profile)


PERIODS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))


def random_item_spec(rng):
    """One item in any accepted spelling.  Deadlines come from a small
    pool, so duplicates are common, and periods from one whose lcm is 12."""
    work = Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
    deadline = Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    period = rng.choice(PERIODS) if rng.random() < 0.5 else None
    spelling = rng.randrange(4)
    if spelling == 0:
        return Item(work, deadline, period)
    if spelling == 1 and period is None:
        return (work, deadline)
    if spelling == 2:
        return [work, deadline, period]
    return (work, deadline, period)


def test_demand_profile_matches_reference_scan():
    rng = random.Random(2024)
    for case in range(1000):
        items = [random_item_spec(rng) for _ in range(rng.randint(0, 5))]
        if case % 7 == 0 and items:
            items.append(items[0])  # an exact duplicate item
        got = demand_profile(items).breakpoints
        want = reference_profile(items)
        assert got == want, items
        assert all(type(t) is Fraction and type(d) is Fraction for t, d in got)
        utilization = sum(
            (w / p for w, _, p in map(as_reference_item, items) if p is not None),
            Fraction(0),
        )
        speeds = {Fraction(1, 2), Fraction(1), Fraction(2)}
        if utilization > 0:
            # the U == speed boundary, where the scan runs to the full
            # horizon, and speeds just above it, where the L_a bound is far out
            speeds |= {
                utilization,
                utilization + Fraction(1, 1000),
                utilization + Fraction(1, 7),
            }
        for speed in speeds:
            verdict = reference_edf_feasible(want, utilization, speed)
            assert uniprocessor_edf_feasible(items, speed) == verdict, (items, speed)


def test_negative_work_scans_the_full_horizon():
    # with negative work the L_a bound does not hold: cut at L, this set's
    # scan would miss its only violation and call it feasible
    items = [
        (Fraction(2, 3), Fraction(5, 2), Fraction(7, 2)),
        (0, 2),
        (Fraction(-1, 3), 5, 6),
        (Fraction(3, 2), Fraction(5, 2), 3),
        (Fraction(2, 3), 9, 10),
        (Fraction(-2, 3), Fraction(-1, 2), 2),
    ]
    speed = Fraction(23263, 63000)
    utilization = sum(
        (w / p for w, _, p in map(as_reference_item, items) if p is not None),
        Fraction(0),
    )
    assert utilization < speed
    assert reference_edf_feasible(reference_profile(items), utilization, speed) is False
    assert uniprocessor_edf_feasible(items, speed) is False


def test_violation_just_below_the_l_a_bound_is_found():
    # U = 1/2 and N = 1 (the one-shot work), so at speed 3/4 - 1e-9 the
    # bound L = 1/(1/4 - 1e-9) lies about 1.6e-8 past the only violation,
    # demand 3 at t = 4
    items = [(1, 2, 2), (1, 4)]
    assert uniprocessor_edf_feasible(items, Fraction(3, 4) - Fraction(1, 10**9)) is False
    assert uniprocessor_edf_feasible(items, Fraction(3, 4)) is True


def test_huge_hyperperiod_is_decided_below_the_l_a_bound():
    # the full horizon is about 2e18 and holds about 4e9 step instants,
    # but with U < 1 the scan stops at L = max(10, N/(1 - U)), N < 2
    items = [(1, 10, 1_000_000_007), (1, 10, 1_000_000_009)]
    with pytest.raises(ValueError, match="step instants"):
        demand_profile(items)
    assert uniprocessor_edf_feasible(items, Fraction(1)) is True
    assert uniprocessor_edf_feasible(items, Fraction(1, 5)) is True
    assert uniprocessor_edf_feasible(items, Fraction(1, 6)) is False


def test_demand_profile_coerces_its_breakpoints():
    profile = DemandProfile(breakpoints=[(1, "3/2"), ("5/2", Fraction(4))])
    assert profile.breakpoints == (
        (Fraction(1), Fraction(3, 2)),
        (Fraction(5, 2), Fraction(4)),
    )
    assert all(type(x) is Fraction for point in profile.breakpoints for x in point)
    assert demand_profile([(1, 1), (3, 2)]) == DemandProfile(((1, 1), (2, 4)))


def test_demand_profile_refuses_too_many_steps(monkeypatch):
    # horizon 2 + 2*4 = 10: the item steps at 2, 6 and 10
    monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 3)
    assert demand_profile([(1, 2, 4)]).breakpoints == ((2, 1), (6, 2), (10, 3))
    with pytest.raises(ValueError, match="horizon 10 needs 4 step instants"):
        demand_profile([(1, 2, 4), (1, 2)])


def test_step_limit_covers_random_task_sets():
    # the largest 5-task random set over seeds 0..299 needs 458512 steps
    most = 0
    for seed in range(300):
        items = [Item(work(t), t.deadline, t.period) for t in random_task_set(seed, 5)]
        horizon = default_horizon(items)
        most = max(most, sum(
            1 if it.period is None else (horizon - it.deadline) // it.period + 1
            for it in items
        ))
    assert most == 458512
    assert MAX_DEMAND_STEPS >= 10**6 > most


def test_nonpositive_period_is_an_error_not_a_hang():
    with pytest.raises(ValueError, match="period must be positive"):
        demand_profile([(1, 2, 0)])
    with pytest.raises(ValueError, match="period must be positive"):
        demand_profile([(1, 2, -3)])
    # the verdict checks the periods before it sums the utilization, so a
    # period of 0 is the same error, alone or beside other items, and
    # whatever the speed (5/7 alone would exceed speed 1/2)
    mixed = [(1, 5, None), (5, 6, 7), (Fraction(1, 3), 2, 0), (1, 4, -3)]
    for items in ([(1, 2, 0)], mixed, [(1, 2, -3)]):
        for speed in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
            with pytest.raises(ValueError, match="period must be positive, got (0|-3)$"):
                uniprocessor_edf_feasible(items, speed)
    with pytest.raises(ValueError, match="period must be positive, got 0$"):
        uniprocessor_edf_feasible(mixed, 1)
