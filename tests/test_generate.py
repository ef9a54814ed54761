from fractions import Fraction

import pytest

from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import span, validate_task_set, work


def test_reference_instance_values():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    assert [work(t) for t in ts] == [10, 10, 20, 40, 80, 160, 320, 640, 1280, 2560]
    assert [t.deadline for t in ts] == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    assert all(t.period is None for t in ts)
    assert all(len(t.subtasks) == 10 for t in ts)
    assert all(t.edges == () for t in ts)


def test_smallest_instance():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    assert [(work(t), t.deadline) for t in ts] == [(2, 1), (2, 2)]


def test_ratio_three_instance():
    ts = build_counterexample(CounterexampleParams(10, 3, Fraction(3)))
    assert (work(ts.tasks[1]), ts.tasks[1].deadline) == (20, 3)
    assert (work(ts.tasks[2]), ts.tasks[2].deadline) == (60, 9)


def test_generated_sets_validate():
    for m, n, k in [(2, 2, 2), (10, 10, 2), (5, 7, 3), (3, 4, 4)]:
        ts = build_counterexample(CounterexampleParams(m, n, Fraction(k)))
        assert validate_task_set(ts) == []


def test_prefix_sums_fill_the_platform_exactly():
    # the work of tasks 1..j always equals (platform size) * deadline(j),
    # which is what makes the family schedulable at unit speed
    for m in (2, 3, 5, 10):
        for n in (2, 4, 9):
            for k in (Fraction(2), Fraction(3), Fraction(5, 2)):
                ts = build_counterexample(CounterexampleParams(m, n, k))
                running = Fraction(0)
                for task in ts:
                    running += work(task)
                    assert running == m * task.deadline


def test_density_identities():
    for m, n, k in [(2, 2, Fraction(2)), (10, 10, Fraction(2)), (6, 5, Fraction(7, 2))]:
        ts = build_counterexample(CounterexampleParams(m, n, k))
        first = ts.tasks[0]
        assert work(first) / first.deadline == m
        for task in ts.tasks[1:]:
            assert work(task) / task.deadline == (1 - 1 / k) * m


def test_equal_subtasks_and_span():
    ts = build_counterexample(CounterexampleParams(4, 3, Fraction(2)))
    for task in ts:
        wcets = {st.wcet for st in task.subtasks}
        assert len(wcets) == 1
        assert span(task) == work(task) / 4


def test_rational_ratio():
    ts = build_counterexample(CounterexampleParams(4, 3, Fraction(5, 2)))
    # work(i) = k^(i-2) * (k-1) * m, deadline(i) = k^(i-1)
    assert work(ts.tasks[1]) == Fraction(3, 2) * 4
    assert ts.tasks[1].deadline == Fraction(5, 2)
    assert work(ts.tasks[2]) == Fraction(5, 2) * Fraction(3, 2) * 4
    assert ts.tasks[2].deadline == Fraction(25, 4)
    assert validate_task_set(ts) == []


@pytest.mark.parametrize("m,n,k", [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, Fraction(3, 2))])
def test_params_reject_out_of_range(m, n, k):
    with pytest.raises(ValueError):
        CounterexampleParams(m, n, Fraction(k))


def test_random_task_set_is_deterministic():
    assert random_task_set(1) == random_task_set(1)
    assert random_task_set(2, n_tasks=4) == random_task_set(2, n_tasks=4)


def test_random_task_sets_validate():
    for seed in range(60):
        ts = random_task_set(seed)
        assert validate_task_set(ts) == []


def test_random_task_sets_leave_deadline_slack():
    for seed in range(60):
        for task in random_task_set(seed):
            assert span(task) <= task.deadline


def test_random_task_set_rejects_bad_bounds():
    for n_tasks in (0, 2.5, True):
        with pytest.raises(ValueError, match="^n_tasks must be an integer >= 1, got "):
            random_task_set(0, n_tasks=n_tasks)
