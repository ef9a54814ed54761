import io
import json
from fractions import Fraction

import pytest

from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.taskio import dump_task_set, load_task_set


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
