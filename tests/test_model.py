import dataclasses
import io
import random
from collections import Counter
from fractions import Fraction

import pytest

from fedsched.generate import random_task_set
from fedsched.model import (
    DagTask,
    Platform,
    Subtask,
    TaskSet,
    _is_int,
    span,
    validate_task_set,
    work,
)
from fedsched.simulate import check_trace, simulate_list_schedule
from fedsched.taskio import dump_task_set, load_task_set
from reference import ref_list_schedule, ref_topological_order


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

    def dumped():
        buf = io.StringIO()
        dump_task_set(ts, buf)
        return buf.getvalue()

    before = dumped()
    for task in ts:
        work(task), span(task)
    assert dumped() == before
    assert load_task_set(io.StringIO(before)) == ts


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


def test_validate_reports_each_distinct_bad_edge_once():
    task = make_task(wcets=(1, 1), edges=((5, 4), (1, 2), (5, 4), (1, 9), (5, 4)))
    assert validate_task_set(TaskSet(name="e", tasks=(task,))) == [
        "task 1: edge (5, 4) references an unknown subtask",
        "task 1: edge (1, 9) references an unknown subtask",
    ]


def test_duplicate_edges_between_known_subtasks_are_valid():
    task = make_task(wcets=(1, 2, 3), edges=((1, 2), (1, 2), (2, 3), (1, 3), (2, 3)))
    assert validate_task_set(TaskSet(name="e", tasks=(task,))) == []
    assert task.successors == {1: (2, 2, 3), 2: (3, 3), 3: ()}
    assert task.topological_order == (1, 2, 3)
    assert span(task) == 6
    trace = simulate_list_schedule(task, 2, Fraction(1))
    assert trace.makespan == 6
    assert check_trace(TaskSet(name="e", tasks=(task,)), trace) == []


def test_validate_reports_duplicate_subtask_ids():
    subtasks = (Subtask(id=1, wcet=Fraction(1)), Subtask(id=1, wcet=Fraction(2)))
    task = DagTask(
        id=1, wcet_total=3, deadline=5, period=None, subtasks=subtasks, edges=()
    )
    report = validate_task_set(TaskSet(name="dup", tasks=(task,)))
    assert any("duplicate" in msg for msg in report)


def test_validate_reports_ids_that_are_not_integers():
    # a bool is not an id, as in the loader
    subtasks = (Subtask(1.5, Fraction(1)), Subtask(True, Fraction(1)))
    task = DagTask(id=1.0, wcet_total=2, deadline=5, period=None, subtasks=subtasks)
    assert validate_task_set(TaskSet(name="odd", tasks=(task,))) == [
        "task set 'odd': task id 1.0 is not an integer",
        "task 1.0: subtask id 1.5 is not an integer",
        "task 1.0: subtask id True is not an integer",
    ]
    # a str id is a violation, not a TypeError from sorting the ids
    ts = TaskSet(name="s", tasks=(make_task(1), make_task("2")))
    assert validate_task_set(ts) == ["task set 's': task id '2' is not an integer"]


def test_construction_refuses_only_non_rational_times_and_non_pair_edges():
    one = (Subtask(1, 1),)
    for time in ("x", None, float("inf")):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            Subtask(1, time)
        with pytest.raises((TypeError, ValueError, OverflowError)):
            DagTask(1, 1, time, None, one)
    for edge in ((1, 2, 3), (1,), 5):
        with pytest.raises((TypeError, ValueError)):
            DagTask(1, 1, 1, None, one, edges=[edge])
    # every other fault is stored and reported, not refused
    task = DagTask(1, 5, -1, 0, (Subtask(1, 0), Subtask(1, -2)), edges=[(1, 9), (1, 1)])
    assert len(validate_task_set(TaskSet("t", (task,)))) >= 4


def test_platform_rejects_bad_values():
    with pytest.raises(ValueError):
        Platform(0, Fraction(1))
    with pytest.raises(ValueError):
        Platform(1, Fraction(0))
    with pytest.raises(ValueError):
        Platform(1, Fraction(-2))
    # a bool is not a count, as it is not an id
    for processors in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match="processors must be a positive integer"):
            Platform(processors, Fraction(1))


def test_edge_endpoints_are_kept_and_checked_as_given():
    # no endpoint is truncated to a known subtask id on the way in
    for edge in ((1.7, 2), ("1", "2"), (1.0, 2), (2, 1.5)):
        task = make_task(wcets=(1, 1), edges=(edge,))
        assert task.edges == (edge,)
        a, b = edge
        assert validate_task_set(TaskSet(name="e", tasks=(task,))) == [
            f"task 1: edge ({a!r}, {b!r}) has an endpoint that is not an integer"
        ]
    # True equals subtask id 1, so the DAG view also sees a self-loop
    task = make_task(wcets=(1, 1), edges=((1, True),))
    assert validate_task_set(TaskSet(name="e", tasks=(task,))) == [
        "task 1: edge (1, True) has an endpoint that is not an integer",
        "task 1: dependency cycle among subtasks",
    ]


def test_an_unhashable_edge_endpoint_is_reported_not_raised():
    # only a set built in code can hold one; the loader refuses it
    task = make_task(wcets=(1, 1), edges=(([1], 1), (1, 2), ([1], 1)))
    assert task.successors == {1: (2,), 2: ()}
    assert validate_task_set(TaskSet(name="e", tasks=(task,))) == [
        "task 1: edge ([1], 1) has an endpoint that is not an integer"
    ]


def test_an_unhashable_subtask_id_is_reported_not_raised():
    # no edge can name it, so it is no false cycle; it runs as a path alone
    task = DagTask(1, 1, 5, None, (Subtask([1], 1),))
    assert task.successors == {} and task.topological_order == ()
    assert validate_task_set(TaskSet("x", (task,))) == [
        "task 1: subtask id [1] is not an integer"
    ]
    pair = DagTask(1, 5, 9, None, (Subtask(1, 2), Subtask([2], 3)), ((1, [2]),))
    assert span(pair) == 3
    assert validate_task_set(TaskSet("y", (pair, dataclasses.replace(pair, id=2)))) == [
        "task 1: subtask id [2] is not an integer",
        "task 1: edge (1, [2]) has an endpoint that is not an integer",
        "task 2: subtask id [2] is not an integer",
        "task 2: edge (1, [2]) has an endpoint that is not an integer",
    ]
    twice = DagTask(1, 2, 5, None, (Subtask([1], 1), Subtask([1], 1)))
    assert validate_task_set(TaskSet("z", (twice,))) == [
        "task 1: subtask id [1] is not an integer",
        "task 1: subtask id [1] is not an integer",
        "task 1: duplicate subtask ids: [[1], [1]]",
    ]


def test_the_tick_view_has_a_size_limit(monkeypatch):
    # tick 6 (3 bits) over four values: two wcets and two deadlines
    tasks = (make_task(1, (Fraction(1, 2),)), make_task(2, (Fraction(1, 3),)))
    ts = TaskSet(name="t", tasks=tasks)
    monkeypatch.setattr("fedsched.model.MAX_TICK_BITS", 12)
    assert validate_task_set(ts) == [] and ts._ticks.scale == 6
    monkeypatch.setattr("fedsched.model.MAX_TICK_BITS", 11)
    ts = dataclasses.replace(ts)
    with pytest.raises(ValueError, match="^the lcm of the times' denominators reaches 3 bits; "
                       "4 times on that tick exceed the limit of 11 bits$"):
        validate_task_set(ts)


def test_repeated_ids_without_a_cycle_are_not_a_cycle():
    # ids [1, 1, 3] with edge 3 -> 1 are acyclic over the distinct ids
    subtasks = (Subtask(1, Fraction(1)), Subtask(1, Fraction(2)), Subtask(3, Fraction(4)))
    task = DagTask(
        id=1, wcet_total=7, deadline=9, period=None, subtasks=subtasks, edges=((3, 1),)
    )
    assert task.topological_order == (3, 1)
    span(task)  # does not raise
    report = validate_task_set(TaskSet(name="dup", tasks=(task,)))
    assert any("duplicate" in msg for msg in report)
    assert not any("cycle" in msg for msg in report)


def test_self_loop_among_repeated_ids_is_a_cycle():
    # ids [1, 3, 3] with edges 1 -> 1 and 3 -> 1: the self-loop is a cycle
    subtasks = (Subtask(1, Fraction(1)), Subtask(3, Fraction(2)), Subtask(3, Fraction(4)))
    task = DagTask(
        id=1,
        wcet_total=7,
        deadline=9,
        period=None,
        subtasks=subtasks,
        edges=((1, 1), (3, 1)),
    )
    assert task.topological_order is None
    with pytest.raises(ValueError, match="dependency cycle"):
        span(task)
    report = validate_task_set(TaskSet(name="dup", tasks=(task,)))
    assert any("cycle" in msg for msg in report)


def random_dag(rng):
    ids = rng.sample(range(1, 10), rng.randint(0, 7))
    subtasks = tuple(Subtask(i, Fraction(rng.randint(1, 9), rng.randint(1, 3))) for i in ids)
    edges = []
    for _ in range(rng.randint(0, 10)):
        a, b = rng.randint(0, 10), rng.randint(0, 10)  # 0 and 10 are never ids
        if rng.random() < 0.8 and a > b:
            a, b = b, a  # mostly forward edges, so most DAGs are acyclic
        edges.append((a, b))
        if rng.random() < 0.1:
            edges.append((a, b))
    total = sum((st.wcet for st in subtasks), Fraction(0))
    return DagTask(
        id=1,
        wcet_total=total,
        deadline=rng.randint(1, 30),
        period=None,
        subtasks=subtasks,
        edges=tuple(edges),
    )


def brute_force_paths(subtasks, edges):
    """Every precedence path over the known ids, each as a list of ids
    (for an acyclic edge set only)."""
    known = {st.id for st in subtasks}
    edges = [(a, b) for a, b in edges if a in known and b in known]

    def extend(path):
        yield path
        for a, b in edges:
            if a == path[-1]:
                yield from extend(path + [b])

    for sid in known:
        yield from extend([sid])


def has_cycle(subtasks, edges):
    known = {st.id for st in subtasks}
    reach = {sid: {b for a, b in edges if a == sid and b in known} for sid in known}
    for _ in known:  # transitive closure by repeated relaxation
        for sid in known:
            reach[sid] = reach[sid].union(*(reach[b] for b in reach[sid]))
    return any(sid in reach[sid] for sid in known)


def test_dag_view_matches_brute_force_on_random_dags():
    rng = random.Random(404)
    cycles = 0
    for _ in range(2000):
        task = random_dag(rng)
        subtasks = task.subtasks
        ts = TaskSet(name="r", tasks=(task,))
        assert type(task.topological_order) in (tuple, type(None))
        assert all(type(nexts) is tuple for nexts in task.successors.values())
        assert set(task.successors) == {st.id for st in subtasks}
        assert work(task) == sum((st.wcet for st in subtasks), Fraction(0))
        assert type(work(task)) is Fraction
        assert ts._ticks.work[0] == work(task) * ts._ticks.scale
        if has_cycle(subtasks, task.edges):
            cycles += 1
            assert task.topological_order is None
            assert ts._ticks.span[0] is None
            for _ in range(2):  # a cycle is not cached: every call raises
                with pytest.raises(ValueError, match="dependency cycle"):
                    span(task)
            with pytest.raises(ValueError, match="dependency cycle"):
                simulate_list_schedule(task, 2, Fraction(1))
            assert any("cycle" in msg for msg in validate_task_set(ts))
            continue
        wcet = {st.id: st.wcet for st in subtasks}
        want = max(
            (sum(wcet[s] for s in path) for path in brute_force_paths(subtasks, task.edges)),
            default=0,
        )
        assert span(task) == want
        assert type(span(task)) is Fraction
        assert ts._ticks.span[0] == want * ts._ticks.scale
        assert not any("cycle" in msg for msg in validate_task_set(ts))
        order = task.topological_order
        assert sorted(order) == sorted(wcet)
        position = {sid: k for k, sid in enumerate(order)}
        assert all(
            position[a] < position[b] for a, b in task.edges if a in wcet and b in wcet
        )
        m, speed = rng.randint(1, 3), Fraction(rng.randint(1, 3), 2)
        assert check_trace(ts, simulate_list_schedule(task, m, speed)) == []
    assert 100 < cycles < 1000  # the seeded mix does reach the cycle branch


def test_cached_dag_view_follows_replace():
    task = make_task(wcets=(1, 2, 3), edges=((1, 2), (2, 3), (9, 1)))
    assert task.successors == {1: (2,), 2: (3,), 3: ()}
    assert task.topological_order == (1, 2, 3)
    looped = dataclasses.replace(task, edges=((1, 2), (2, 3), (3, 1)))
    assert looped.successors == {1: (2,), 2: (3,), 3: (1,)}
    assert looped.topological_order is None
    flipped = dataclasses.replace(task, edges=((3, 2), (2, 1)))
    assert flipped.topological_order == (3, 2, 1)
    assert task.topological_order == (1, 2, 3)


def test_kahn_order_and_list_schedule_match_the_counter_and_deque_code():
    # duplicate edges, repeated and unhashable ids and cycles: the order
    # and, on the acyclic tasks the list scheduler takes, every schedule
    # must be what the Counter and deque code gave
    rng = random.Random(406)
    kinds = Counter()
    for _ in range(3000):
        ids = [rng.randint(1, 7) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.1:
            ids.append([rng.randint(1, 7)])  # an id that cannot key a dict
        wcets = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in ids]
        edges = []
        for _ in range(rng.randint(0, 12)):
            a, b = rng.randint(0, 8), rng.randint(0, 8)
            if rng.random() < 0.75 and a > b:
                a, b = b, a  # mostly forward edges, so most DAGs are acyclic
            if rng.random() < 0.05:
                a = [a]
            edges += [(a, b)] * rng.choice((1, 1, 1, 2))
        task = DagTask(1, sum(wcets, Fraction(0)), 10, None,
                       tuple(map(Subtask, ids, wcets)), tuple(edges))
        order = task.topological_order
        assert order == ref_topological_order(task), task
        kinds["cycle" if order is None else "order"] += 1
        kinds["duplicate edge"] += len(set(map(repr, edges))) < len(edges)
        if order is None or not all(type(sid) is int for sid in ids):
            kinds["unhashable id"] += order is not None
            continue
        kinds["repeated id"] += len(set(ids)) < len(ids)
        for m in (1, 2, 3):
            speed = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            assert simulate_list_schedule(task, m, speed) == ref_list_schedule(task, m, speed)
            kinds["schedule"] += 1
    floors = {"order": 2000, "duplicate edge": 1500, "repeated id": 800, "cycle": 400,
              "unhashable id": 150, "schedule": 6000}
    assert all(kinds[kind] >= floor for kind, floor in floors.items()), kinds


def test_edge_free_dag_view_matches_the_general_walk():
    # an edge between unknown ids changes no DAG, but it sends the task
    # through Kahn's algorithm and the longest-path walk
    rng = random.Random(405)
    for _ in range(1000):
        ids = [rng.randint(1, 5) for _ in range(rng.randint(0, 8))]
        wcets = [Fraction(rng.randint(-4, 9), rng.randint(1, 3)) for _ in ids]
        free = DagTask(
            id=1,
            wcet_total=sum(wcets, Fraction(0)),
            deadline=1,
            period=None,
            subtasks=tuple(map(Subtask, ids, wcets)),
        )
        general = dataclasses.replace(free, edges=((0, 0),))
        assert free.successors == general.successors
        assert free.topological_order == general.topological_order
        assert span(free) == span(general)
        views = TaskSet("f", (free,))._ticks, TaskSet("g", (general,))._ticks
        for name in views[0].__slots__:
            assert getattr(views[0], name) == getattr(views[1], name), name
        # a repeated id takes its last wcet; a negative one is no path
        assert span(free) == max([0, *dict(zip(ids, wcets)).values()])


class Count(int):
    pass


def test_is_int_takes_ints_and_their_subclasses_but_not_bool():
    for value in (0, -5, 2**70, Count(3), True, False, 1.0, 2.5, "1", None, Fraction(1), (1,)):
        assert _is_int(value) == (isinstance(value, int) and not isinstance(value, bool))
