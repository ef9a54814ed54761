import dataclasses
import json
import random
from fractions import Fraction

import pytest

from fedsched.generate import random_task_set
from fedsched.model import (
    DagTask,
    Platform,
    Subtask,
    TaskSet,
    scale_to_unit_speed,
    span,
    validate_task_set,
    work,
)
from fedsched.taskio import task_set_from_dict, task_set_to_dict


def make_task(tid=1, wcets=(1,), edges=(), deadline=None, period=None, total=None):
    subtasks = tuple(Subtask(id=i + 1, wcet=Fraction(w)) for i, w in enumerate(wcets))
    if total is None:
        total = sum((st.wcet for st in subtasks), Fraction(0))
    if deadline is None:
        deadline = sum((st.wcet for st in subtasks), Fraction(0)) + 1
    return DagTask(
        id=tid,
        wcet_total=total,
        deadline=deadline,
        period=period,
        subtasks=subtasks,
        edges=tuple(edges),
    )


def test_work_sums_subtasks():
    assert work(make_task(wcets=(1,) * 10)) == 10


def test_work_singleton():
    assert work(make_task(wcets=(5,))) == 5


def test_work_empty():
    task = DagTask(id=1, wcet_total=0, deadline=1, period=None, subtasks=(), edges=())
    assert work(task) == 0


def test_span_chain():
    task = make_task(wcets=(1, 2, 3), edges=((1, 2), (2, 3)))
    assert span(task) == 6


def test_span_diamond():
    # a->b, a->c, b->d, c->d with wcets 1,2,3,1; longest path is a,c,d
    task = make_task(wcets=(1, 2, 3, 1), edges=((1, 2), (1, 3), (2, 4), (3, 4)))
    assert span(task) == 5


def test_span_independent_subtasks():
    task = make_task(wcets=(2, 7, 3))
    assert span(task) == 7


def test_span_cycle_raises():
    task = make_task(wcets=(1, 1), edges=((1, 2), (2, 1)))
    for _ in range(3):  # the error is raised afresh, never cached
        with pytest.raises(ValueError, match="dependency cycle"):
            span(task)
    assert work(task) == 2


def test_cached_work_and_span_follow_replace():
    task = make_task(wcets=(1, 2, 3), edges=((1, 2), (2, 3)))
    assert (work(task), span(task)) == (6, 6)
    unchained = dataclasses.replace(task, edges=())
    assert (work(unchained), span(unchained)) == (6, 3)
    heavier = dataclasses.replace(task, subtasks=(Subtask(1, Fraction(5)),), edges=())
    assert (work(heavier), span(heavier)) == (5, 5)
    assert (work(task), span(task)) == (6, 6)


def test_cache_is_invisible_to_equality_hash_and_repr():
    filled = make_task(wcets=(1, 2), edges=((1, 2),))
    empty = make_task(wcets=(1, 2), edges=((1, 2),))
    assert (work(filled), span(filled)) == (3, 3)
    assert filled == empty
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert dataclasses.astuple(filled) == dataclasses.astuple(empty)


def test_cache_leaves_json_encoding_unchanged():
    ts = random_task_set(7, n_tasks=5)
    before = json.dumps(task_set_to_dict(ts))
    for task in ts:
        work(task), span(task)
    assert json.dumps(task_set_to_dict(ts)) == before
    assert task_set_from_dict(json.loads(before)) == ts


def test_span_never_exceeds_work():
    for seed in range(40):
        for task in random_task_set(seed):
            assert span(task) <= work(task)


def test_validate_clean_task_set():
    ts = TaskSet(name="ok", tasks=(make_task(1), make_task(2, wcets=(2, 3))))
    assert validate_task_set(ts) == []


def test_validate_reports_cycle():
    ts = TaskSet(name="c", tasks=(make_task(wcets=(1, 1), edges=((1, 2), (2, 1))),))
    report = validate_task_set(ts)
    assert any("cycle" in msg for msg in report)


def test_validate_reports_work_mismatch():
    ts = TaskSet(name="w", tasks=(make_task(wcets=(3, 3), total=Fraction(7)),))
    report = validate_task_set(ts)
    assert any("work mismatch" in msg for msg in report)


def test_validate_reports_deadline_after_period():
    ts = TaskSet(name="d", tasks=(make_task(wcets=(1,), deadline=5, period=3),))
    report = validate_task_set(ts)
    assert any("deadline" in msg and "period" in msg for msg in report)


def test_validate_reports_nonpositive_values():
    bad = TaskSet(
        name="n",
        tasks=(
            make_task(1, wcets=(0,)),
            make_task(2, wcets=(1,), deadline=Fraction(-1)),
            make_task(3, wcets=(1,), deadline=2, period=Fraction(0)),
        ),
    )
    report = validate_task_set(bad)
    assert any("wcet" in msg for msg in report)
    assert any("deadline" in msg for msg in report)
    assert any("period" in msg for msg in report)


def test_validate_reports_noncontiguous_ids():
    ts = TaskSet(name="ids", tasks=(make_task(1), make_task(3)))
    report = validate_task_set(ts)
    assert any("contiguous" in msg for msg in report)


def test_validate_reports_unknown_edge_endpoint():
    ts = TaskSet(name="e", tasks=(make_task(wcets=(1, 1), edges=((1, 9),)),))
    report = validate_task_set(ts)
    assert any("unknown subtask" in msg for msg in report)


def test_validate_reports_duplicate_subtask_ids():
    subtasks = (Subtask(id=1, wcet=Fraction(1)), Subtask(id=1, wcet=Fraction(2)))
    task = DagTask(
        id=1, wcet_total=3, deadline=5, period=None, subtasks=subtasks, edges=()
    )
    report = validate_task_set(TaskSet(name="dup", tasks=(task,)))
    assert any("duplicate" in msg for msg in report)


def test_platform_rejects_bad_values():
    with pytest.raises(ValueError):
        Platform(0, Fraction(1))
    with pytest.raises(ValueError):
        Platform(1, Fraction(0))
    with pytest.raises(ValueError):
        Platform(1, Fraction(-2))


def test_scale_halves_wcets():
    ts = TaskSet(name="s", tasks=(make_task(wcets=(10,), deadline=1),))
    scaled = scale_to_unit_speed(ts, Fraction(2))
    assert work(scaled.tasks[0]) == 5
    assert scaled.tasks[0].wcet_total == 5
    assert scaled.tasks[0].deadline == 1


def test_scale_by_fraction():
    ts = TaskSet(name="s", tasks=(make_task(wcets=(20,), deadline=100),))
    scaled = scale_to_unit_speed(ts, Fraction(1, 3))
    assert work(scaled.tasks[0]) == 60


def test_scale_identity_at_one():
    ts = TaskSet(name="s", tasks=(make_task(wcets=(3, 4)),))
    assert scale_to_unit_speed(ts, Fraction(1)) == ts


def test_scale_round_trip():
    rng = random.Random(3)
    for seed in range(20):
        ts = random_task_set(seed)
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        back = scale_to_unit_speed(scale_to_unit_speed(ts, s), 1 / s)
        assert back == ts


def test_scale_rejects_nonpositive_speed():
    ts = TaskSet(name="s", tasks=(make_task(),))
    with pytest.raises(ValueError):
        scale_to_unit_speed(ts, Fraction(0))
