import gc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from fedsched.explore import (
    SpeedupRow,
    brute_force_federated_oracle,
    min_feasible_speed_federated,
    speedup_sweep,
)
from fedsched.feasibility import uniprocessor_edf_feasible
from fedsched.federated import (
    Infeasible,
    _size_ratio,
    allocate_federated,
    speedup_lower_bound,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet
from reference import implicit_deadlines, ref_allocate, ref_is_heavy, seq_task


def one_shot_set(seed):
    """random_task_set(seed) with 2 to 5 tasks and every period stripped."""
    ts = random_task_set(seed, n_tasks=2 + seed % 4)
    return replace(ts, tasks=tuple(replace(t, period=None) for t in ts))


def candidate_speeds(ts, m, ratios=None):
    """Every speed at which a decision of the allocator can flip on a
    one-shot set on m processors, sorted: each work/deadline (heavy or
    light), each cluster-size step _size_ratio(..., k) for k <= m, and
    the ``prefix_ratios`` of the set, computed here unless given."""
    speeds = set(prefix_ratios(ts) if ratios is None else ratios)
    speeds.update(task.work / task.deadline for task in ts)
    speeds.update(
        Fraction(*_size_ratio(task.work, task.span, task.deadline, k))
        for task in ts
        for k in range(1, m + 1)
    )
    return sorted(speeds)


def prefix_ratios(ts):
    """Each deadline-prefix ratio of each subset of tasks (demand up to a
    deadline over that deadline): a shared processor holding the subset
    passes its demand test from the largest of them on."""
    ratios = set()
    for size in range(1, len(ts) + 1):
        for subset in combinations(ts.tasks, size):
            for last in subset:
                demand = sum(t.work for t in subset if t.deadline <= last.deadline)
                ratios.add(demand / last.deadline)
    return ratios


def fits(ts, m, speed):
    return not isinstance(allocate_federated(ts, Platform(m, speed)), Infeasible)


# the allocator's exact thresholds on the family (K = 2), keyed by (M, N)
FAMILY_THRESHOLDS = {
    (10, 10): Fraction(645, 128),
    (40, 40): 20 + 5 * Fraction(1, 2**35),
    (64, 64): 32 + Fraction(1, 2**56),
    (2, 2): Fraction(2),
    (4, 3): Fraction(5, 2),
    (6, 6): Fraction(27, 8),
    (8, 8): Fraction(33, 8),
}


def test_threshold_search_reference_instance_is_exact():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    s_star = min_feasible_speed_federated(ts, 10)
    assert s_star == Fraction(645, 128) > 5
    assert fits(ts, 10, s_star)
    assert not fits(ts, 10, s_star - Fraction(1, 2**200))


def test_threshold_search_smallest_instance():
    # the threshold is exactly 2, and the allocator fits there
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    assert min_feasible_speed_federated(ts, 2) == 2
    assert fits(ts, 2, Fraction(2))
    assert not fits(ts, 2, 2 - Fraction(1, 2**200))


def test_threshold_search_validates_its_input():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    with pytest.raises(ValueError):
        min_feasible_speed_federated(TaskSet(name="empty", tasks=()), 2)
    with pytest.raises(ValueError):
        min_feasible_speed_federated(ts, 0)
    # a ValueError, not a TypeError from inside the speed search
    for processors in (2.5, "4", Fraction(4), True):
        with pytest.raises(ValueError, match="^processors must be a positive integer"):
            min_feasible_speed_federated(ts, processors)
    with pytest.raises(ValueError):
        min_feasible_speed_federated(TaskSet(name="bad", tasks=(seq_task(1, 1, 0),)), 2)
    with pytest.raises(ValueError):
        min_feasible_speed_federated(TaskSet(name="bad", tasks=(seq_task(1, -1, 2),)), 2)


def test_family_thresholds_are_exact():
    grid = [CounterexampleParams(m, n, Fraction(2)) for m, n in FAMILY_THRESHOLDS]
    rows = speedup_sweep(grid)
    assert [(row.processors, row.n_tasks) for row in rows] == list(FAMILY_THRESHOLDS)
    for row, params in zip(rows, grid):
        s_star = FAMILY_THRESHOLDS[(params.processors, params.n_tasks)]
        assert row.min_speed == s_star >= row.speedup_bound
        ts = build_counterexample(params)
        assert fits(ts, params.processors, s_star)
        assert not fits(ts, params.processors, s_star - Fraction(1, 2**200))


def test_least_speed_is_the_first_feasible_candidate():
    nonmonotone = 0
    for seed in range(1000):
        ts = one_shot_set(seed)
        ratios = prefix_ratios(ts)
        for m in range(1, 5):
            speeds = candidate_speeds(ts, m, ratios)
            first = next(i for i, s in enumerate(speeds) if fits(ts, m, s))
            assert min_feasible_speed_federated(ts, m) == speeds[first], (seed, m)
            # first-fit anomalies: infeasible again at a higher candidate (the
            # next few are enough to find many of them)
            if not all(fits(ts, m, s) for s in speeds[first + 1 : first + 4]):
                nonmonotone += 1
    assert nonmonotone >= 20


def test_verdict_is_constant_between_candidates():
    pieces = 0
    for seed in range(0, 1000, 25):
        ts = one_shot_set(seed)
        for m in range(1, 5):
            speeds = candidate_speeds(ts, m)
            assert not fits(ts, m, speeds[0] / 2)
            assert not fits(ts, m, speeds[0] * Fraction(999, 1000))
            # the piece [lo, hi), and for the last candidate [lo, 2*lo)
            for lo, hi in zip(speeds, speeds[1:] + [2 * speeds[-1]]):
                verdict = fits(ts, m, lo)
                for inside in ((lo + hi) / 2, hi - (hi - lo) / 1000):
                    assert fits(ts, m, inside) == verdict, (seed, m, lo)
                pieces += 1
    assert pieces > 1000


def test_retry_speed_is_a_certificate():
    certificates = 0
    for seed in range(0, 1000, 25):
        ts = one_shot_set(seed)
        for m in range(1, 5):
            speeds = candidate_speeds(ts, m)
            results = [allocate_federated(ts, Platform(m, s)) for s in speeds]
            for i, result in enumerate(results):
                if not isinstance(result, Infeasible):
                    continue
                retry = result.retry_speed
                assert retry > speeds[i], (seed, m, speeds[i])
                for s, other in zip(speeds[i:], results[i:]):
                    if s >= retry:
                        break
                    assert isinstance(other, Infeasible), (seed, m, s)
                assert not fits(ts, m, retry - (retry - speeds[i]) / 1000)
                certificates += 1
    assert certificates > 1000


def test_sweep_reference_row():
    rows = speedup_sweep([CounterexampleParams(10, 10, Fraction(2))])
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, SpeedupRow)
    assert (row.processors, row.n_tasks, row.ratio) == (10, 10, Fraction(2))
    assert row.speedup_bound == 5
    assert row.optimal_feasible_at_1 is True
    assert row.min_speed == Fraction(645, 128)
    # demand certificate just below the bound exceeds the platform size
    assert row.demand_at_probe > 10


def test_sweep_demand_at_probe_is_the_public_demand_bound_sum():
    # the sweep sums the bound on the set's ticks; the allocator's
    # certificate, and the Fraction reference's, at the probe, where every
    # task is heavy and the allocation fails
    grid = [
        CounterexampleParams(10, 10, Fraction(2)),
        CounterexampleParams(8, 12, Fraction(5, 2)),
        CounterexampleParams(12, 6, Fraction(2)),
    ]
    for row, params in zip(speedup_sweep(grid), grid):
        plat = Platform(params.processors, row.speedup_bound * Fraction(999, 1000))
        ts = build_counterexample(params)
        assert all(ref_is_heavy(t, plat.speed) for t in ts)
        verdict = allocate_federated(ts, plat)
        assert isinstance(verdict, Infeasible)
        assert row.demand_at_probe == verdict.demand_lower_bound
        assert row.demand_at_probe == ref_allocate(ts, plat).demand_lower_bound


def test_sweep_refuses_a_demand_at_the_probe_within_the_platform(monkeypatch):
    # the proof in speedup_sweep's docstring puts the demand above M at
    # every grid point; a demand rule that broke it would be caught
    monkeypatch.setattr("fedsched.explore._demand_bound", lambda *args: 0)
    message = r"^sweep self-check failed on \(M=4, N=4, K=2\): demand 0 at the probe "
    with pytest.raises(RuntimeError, match=message):
        speedup_sweep([CounterexampleParams(4, 4, Fraction(2))])


def test_a_zero_slack_implicit_deadline_set_is_decided_without_a_scan():
    # seed 1463 with deadlines equal to periods on one processor: first-fit
    # retries at the utilization of tasks 2..8, then at the whole set's.  At
    # both, speed == U and the L_a numerator is 0, so the demand test passes
    # with no scan instead of refusing a scan to two hyperperiods
    ts = implicit_deadlines(random_task_set(1463, 8))
    total = sum(t.work / t.period for t in ts)
    assert total == Fraction(1721123, 340340)
    assert min_feasible_speed_federated(ts, 1) == total
    below = allocate_federated(ts, Platform(1, Fraction(1442663, 340340)))
    assert isinstance(below, Infeasible) and below.retry_speed == total
    assert uniprocessor_edf_feasible([(t.work, t.deadline, t.period) for t in ts], total)


def test_sweep_bound_grows_with_platform():
    grid = [CounterexampleParams(m, m, Fraction(2)) for m in (4, 6, 8)]
    rows = speedup_sweep(grid)
    assert [r.speedup_bound for r in rows] == [2, 3, 4]
    for row, params in zip(rows, grid):
        assert row.speedup_bound == speedup_lower_bound(
            params.processors, params.n_tasks, params.ratio
        )
        assert row.optimal_feasible_at_1 is True
        assert row.min_speed >= row.speedup_bound
    assert [r.min_speed for r in rows] == [Fraction(5, 2), Fraction(27, 8), Fraction(33, 8)]


def test_sweep_empty_grid():
    assert speedup_sweep([]) == []


def test_oracle_smallest_instance():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    assert brute_force_federated_oracle(ts, Platform(2, Fraction(1))) is False
    assert brute_force_federated_oracle(ts, Platform(2, Fraction(2))) is True


def test_oracle_single_light_task():
    ts = TaskSet(name="one", tasks=(seq_task(1, 1, 2),))
    assert brute_force_federated_oracle(ts, Platform(1, Fraction(1))) is True


def test_oracle_finds_sharing_the_allocator_finds():
    # two light tasks that fit together on one shared processor
    ts = TaskSet(name="pair", tasks=(seq_task(1, 1, 2), seq_task(2, 1, 3)))
    assert brute_force_federated_oracle(ts, Platform(1, Fraction(1))) is True


def test_oracle_detects_overload():
    ts = TaskSet(name="two", tasks=(seq_task(1, 2, 2), seq_task(2, 3, 3)))
    assert brute_force_federated_oracle(ts, Platform(1, Fraction(1))) is False
    assert brute_force_federated_oracle(ts, Platform(2, Fraction(1))) is True


def test_oracle_uses_clusters_when_sharing_fails():
    wide = DagTask(
        id=1,
        wcet_total=4,
        deadline=2,
        period=None,
        subtasks=(Subtask(1, Fraction(2)), Subtask(2, Fraction(2))),
        edges=(),
    )
    ts = TaskSet(name="w", tasks=(wide,))
    assert brute_force_federated_oracle(ts, Platform(1, Fraction(1))) is False
    assert brute_force_federated_oracle(ts, Platform(2, Fraction(1))) is True


def test_oracle_enforces_size_caps():
    many = TaskSet(name="m", tasks=tuple(seq_task(i, 1, 100 + i) for i in range(1, 7)))
    with pytest.raises(ValueError, match="^oracle is capped at 5 tasks, got 6$"):
        brute_force_federated_oracle(many, Platform(2, Fraction(1)))
    few = TaskSet(name="f", tasks=(seq_task(1, 1, 2),))
    with pytest.raises(ValueError, match="^oracle is capped at 4 processors, got 5$"):
        brute_force_federated_oracle(few, Platform(5, Fraction(1)))


def test_oracle_refuses_an_unhashable_subtask_id():
    ts = TaskSet("x", (DagTask(1, 1, 5, None, (Subtask([1], 1),)),))
    for _ in range(2):  # the refusal kept with the set is repeated
        with pytest.raises(ValueError) as raised:
            brute_force_federated_oracle(ts, Platform(1, Fraction(1)))
        assert str(raised.value) == "oracle refuses task 1: subtask id [1] is not an integer"
    assert ts._ticks.needs == [] and ts._ticks.groups == {} and ts._ticks.makespans == {}


def test_a_decided_set_is_freed_without_the_cycle_collector():
    # nothing a decision keeps on the set (the first-fit runs, the
    # oracle's fields) refers back to itself, so dropping the set frees
    # it by reference counting and the collector finds nothing
    gc.collect()
    gc.disable()
    try:
        for seed in range(10):
            ts = one_shot_set(seed)
            for m in (2, 3, 4):
                for speed in ("1", "3/2", "2", "5/2", "3"):
                    plat = Platform(m, Fraction(speed))
                    allocate_federated(ts, plat)
                    brute_force_federated_oracle(ts, plat)
            del ts
        assert gc.collect() == 0
    finally:
        gc.enable()
