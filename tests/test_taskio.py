import io
import json
import random
from fractions import Fraction

import pytest

from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import DagTask, Subtask, TaskSet
from fedsched.taskio import _subtask_fields, dump_task_set, load_task_set, save_task_set
from reference import ref_dump_task_set


def dumped(ts):
    """The document dump_task_set writes for ``ts``, as text."""
    buf = io.StringIO()
    dump_task_set(ts, buf)
    return buf.getvalue()


def loaded(doc):
    """load_task_set on the JSON text of ``doc``."""
    return load_task_set(io.StringIO(json.dumps(doc)))


def round_trip(ts):
    return load_task_set(io.StringIO(dumped(ts)))


def test_round_trip_reference_instance():
    ts = build_counterexample(CounterexampleParams(10, 10, Fraction(2)))
    assert round_trip(ts) == ts


def test_round_trip_random_sets():
    for seed in range(25):
        ts = random_task_set(seed)
        assert round_trip(ts) == ts


def test_round_trip_preserves_exact_rationals():
    ts = build_counterexample(CounterexampleParams(4, 3, Fraction(5, 2)))
    back = round_trip(ts)
    assert back.tasks[2].deadline == Fraction(25, 4)
    assert back.tasks[2].subtasks[0].wcet == Fraction(15, 4)


def test_period_serializes_as_null():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    doc = json.loads(dumped(ts))
    assert doc["tasks"][0]["period"] is None
    assert loaded(doc).tasks[0].period is None


def test_document_shape():
    ts = build_counterexample(CounterexampleParams(2, 2, Fraction(2)))
    doc = json.loads(dumped(ts))
    task = doc["tasks"][0]
    assert set(task) == {"id", "wcet", "deadline", "period", "subtasks", "edges"}
    assert task["wcet"] == "2"
    assert task["subtasks"][0] == {"id": 1, "wcet": "1"}


def base_doc():
    return {
        "name": "t",
        "tasks": [
            {
                "id": 1,
                "wcet": "2",
                "deadline": "3",
                "period": None,
                "subtasks": [{"id": 1, "wcet": "2"}],
                "edges": [],
            }
        ],
    }


def test_error_names_bad_task_field():
    doc = base_doc()
    doc["tasks"][0]["wcet"] = "1.5"
    with pytest.raises(ValueError, match=r"tasks\[0\].wcet"):
        loaded(doc)


def test_error_names_bad_subtask_field():
    doc = base_doc()
    doc["tasks"][0]["subtasks"][0]["wcet"] = 2  # must be a rational-string
    with pytest.raises(ValueError, match=r"tasks\[0\].subtasks\[0\].wcet"):
        loaded(doc)


def test_error_on_missing_period():
    doc = base_doc()
    del doc["tasks"][0]["period"]
    with pytest.raises(ValueError, match=r"tasks\[0\].period"):
        loaded(doc)


def test_error_on_malformed_edge():
    doc = base_doc()
    doc["tasks"][0]["edges"] = [[1]]
    with pytest.raises(ValueError, match=r"tasks\[0\].edges\[0\]"):
        loaded(doc)


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda doc: doc.update(tasks={"1": {}}), "tasks: expected a list"),
        (lambda doc: doc["tasks"].append([1]), "tasks[1]: expected an object"),
        (lambda doc: doc["tasks"][0].update(subtasks={}), "tasks[0].subtasks: expected a list"),
        (lambda doc: doc["tasks"][0].update(edges=None), "tasks[0].edges: expected a list"),
    ],
)
def test_each_shape_error_names_its_field(mangle, message):
    doc = base_doc()
    mangle(doc)
    with pytest.raises(ValueError) as raised:
        loaded(doc)
    assert str(raised.value) == message


def test_error_on_missing_name():
    with pytest.raises(ValueError, match="name"):
        loaded({"tasks": []})


def test_error_on_non_object():
    with pytest.raises(ValueError, match="document"):
        loaded([1, 2])


def test_error_on_boolean_id():
    doc = base_doc()
    doc["tasks"][0]["id"] = True
    with pytest.raises(ValueError, match=r"tasks\[0\].id"):
        loaded(doc)


def test_equal_strings_decode_to_one_fraction():
    doc = base_doc()
    doc["tasks"][0]["subtasks"].append({"id": 2, "wcet": "2"})
    doc["tasks"][0]["wcet"] = "4"
    task = loaded(doc).tasks[0]
    a, b = task.subtasks
    assert a.wcet is b.wcet and a.wcet == 2
    assert task.wcet_total == 4 and task.deadline == 3


@pytest.mark.parametrize("value", [1, True, 1.0])
def test_a_decoded_string_does_not_admit_other_types(value):
    doc = base_doc()
    doc["tasks"][0]["subtasks"] = [{"id": 1, "wcet": "1"}, {"id": 2, "wcet": value}]
    with pytest.raises(
        ValueError, match=r"^tasks\[0\]\.subtasks\[1\]\.wcet: expected a rational-string$"
    ):
        loaded(doc)


def test_the_first_of_two_bad_strings_is_named():
    doc = base_doc()
    doc["tasks"][0]["deadline"] = "1/0"
    doc["tasks"][0]["subtasks"][0]["wcet"] = "1/0"
    with pytest.raises(ValueError, match=r"^tasks\[0\]\.deadline: zero denominator"):
        loaded(doc)
    doc["tasks"][0]["deadline"] = "3"
    with pytest.raises(ValueError, match=r"^tasks\[0\]\.subtasks\[0\]\.wcet: zero denominator"):
        loaded(doc)


def test_loads_share_no_decodes():
    broken = base_doc()
    broken["tasks"][0]["subtasks"][0]["wcet"] = "x"  # fails after "2" and "3" decoded
    with pytest.raises(ValueError, match=r"subtasks\[0\]\.wcet"):
        loaded(broken)
    first, second = loaded(base_doc()).tasks[0], loaded(base_doc()).tasks[0]
    assert first == second and first.subtasks[0].wcet == 2
    assert first.deadline is not second.deadline


class Half(Fraction):
    pass


def test_values_enter_as_exact_fractions():
    for value, want in ((3, Fraction(3)), ("5/4", Fraction(5, 4)), (Half(1, 2), Fraction(1, 2))):
        st = Subtask(1, value)
        task = DagTask(1, value, value, value, (st,))
        for got in (st.wcet, task.wcet_total, task.deadline, task.period):
            assert type(got) is Fraction and got == want
    # a Fraction is kept as the same object, not rebuilt
    f = Fraction(7, 2)
    st = Subtask(1, f)
    task = DagTask(1, f, f, f, (st,))
    assert all(x is f for x in (st.wcet, task.wcet_total, task.deadline, task.period))


# (field, value) faults of one subtask; a None field is the whole subtask
SUBTASK_FAULTS = (
    ("id", True), ("id", 1.0), ("id", "1"), ("id", None), ("id", [1]),
    ("wcet", 2), ("wcet", True), ("wcet", None), ("wcet", ["2"]),
    ("wcet", "x"), ("wcet", "1/0"), (None, [1, "2"]), (None, "s"), (None, None),
)


def test_subtask_decoding_matches_the_checked_path():
    # the loader takes a subtask with an integer id and a wcet string seen
    # before without wording a field; everything else, and every error,
    # comes from the checked decode
    rng = random.Random(12)
    for seed in range(60):
        doc = json.loads(dumped(random_task_set(seed)))
        for task, raw in zip(loaded(doc).tasks, doc["tasks"]):
            want = [_subtask_fields(sub, "", {}) for sub in raw["subtasks"]]
            assert [(st.id, st.wcet) for st in task.subtasks] == want
        i = rng.randrange(len(doc["tasks"]))
        j = rng.randrange(len(doc["tasks"][i]["subtasks"]))
        where = f"tasks[{i}].subtasks[{j}]"
        faults = SUBTASK_FAULTS + (("id", ...), ("wcet", ...))  # ... drops the field
        for key, value in faults:
            bad = json.loads(json.dumps(doc))
            subtasks = bad["tasks"][i]["subtasks"]
            if key is None:
                subtasks[j] = value
            elif value is ...:
                del subtasks[j][key]
            else:
                subtasks[j][key] = value
            with pytest.raises(ValueError) as got:
                loaded(bad)
            with pytest.raises(ValueError) as want:
                _subtask_fields(subtasks[j], where, {})
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(where + (f".{key}: " if key else ": "))


# --- the writer against json.dump ---------------------------------------------


def ref_dumped(ts):
    buf = io.StringIO()
    ref_dump_task_set(ts, buf)
    return buf.getvalue()


# names that need escaping: quotes, backslashes, non-ASCII (a lone
# surrogate among them) and control characters
NAMES = (
    'say "hi"', "back\\slash\\", "caf\u00e9 \u6f22 \U0001f600 \ud800",
    "tab\tnl\ncr\r\x00\x1f\x7f",
)
# ids and edge endpoints the model stores and JSON encodes in unusual ways
ODD_VALUES = (
    True, False, None, 0.5, -0.0, float("nan"), float("inf"), float("-inf"),
    2**64 + 1, -(2**70), "7", 'q"\\\u00e9', [], {}, [1, [2, []], {"k": None}],
    {"a": [1, {"b": {}}], 2: "x", None: 1.5, True: []}, (3, 4),
)


def odd_value_set(value):
    """``value`` as the name, a task id, a subtask id and edge endpoints."""
    subtasks = (Subtask(value, Fraction(1, 3)), Subtask(2, 1))
    return TaskSet(value, (
        DagTask(value, Fraction(4, 3), 5, None, subtasks, ((value, 2), (2, value))),
        DagTask(2, 1, Fraction(7, 2), 4, (Subtask(1, 1),), ((1, value),)),
    ))


def test_the_writer_writes_json_dumps_text():
    loadable = [random_task_set(seed) for seed in range(2000)]
    loadable += [
        build_counterexample(CounterexampleParams(m, n, Fraction(k)))
        for m, n, k in ((4, 4, 2), (64, 64, 2), (3, 5, Fraction(5, 2)))
    ]
    loadable += [TaskSet("empty", ()), TaskSet("bare", (DagTask(1, 0, 1, None, ()),))]
    loadable += [TaskSet(name, (DagTask(1, 2, 3, 4, (Subtask(1, 2),)),)) for name in NAMES]
    for ts in loadable:
        text = dumped(ts)
        assert text == ref_dumped(ts), ts.name
        assert load_task_set(io.StringIO(text)) == ts
    for value in ODD_VALUES:
        ts = odd_value_set(value)
        assert dumped(ts) == ref_dumped(ts), value


def test_a_set_json_cannot_hold_is_refused_before_anything_is_written(tmp_path):
    # task 2's id is no JSON value: json.dump streamed task 1 out before
    # refusing it, so the file ended at '"id": '
    good = DagTask(1, 2, 3, None, (Subtask(1, 2),))
    ts = TaskSet("t", (good, DagTask(object(), 2, 3, None, (Subtask(1, 2),))))
    with pytest.raises(TypeError) as want:
        ref_dumped(ts)
    stream = io.StringIO()
    with pytest.raises(TypeError) as got:
        dump_task_set(ts, stream)
    assert str(got.value) == str(want.value)
    assert stream.getvalue() == ""
    path = tmp_path / "set.json"
    with pytest.raises(TypeError) as got:
        save_task_set(ts, str(path))
    assert str(got.value) == str(want.value)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(TypeError):
        save_task_set(ts, str(path))
    assert path.read_text() == "kept\n"
