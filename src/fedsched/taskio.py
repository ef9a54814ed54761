"""JSON encoding of task sets.

The on-disk document is one object::

    {"name": str,
     "tasks": [{"id": int, "wcet": rational-string,
                "deadline": rational-string,
                "period": rational-string or null,
                "subtasks": [{"id": int, "wcet": rational-string}, ...],
                "edges": [[int, int], ...]}, ...]}

The task-level "wcet" is the declared total work (the sum of the
subtask wcets in a valid task).

Rationals travel as strings (see :mod:`fedsched.rational`) so round-trips
are exact; a null period means a one-shot task.  Decoding errors name the
offending field, e.g. ``tasks[2].subtasks[0].wcet``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, TextIO

from .model import DagTask, Subtask, TaskSet, _is_int
from .rational import format_rational, parse_rational


def _task_from_dict(raw: Any, where: str, seen: dict[str, Fraction]) -> DagTask:
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object")
    tid = _int_field(raw, "id", where)
    wcet_total = _rational_field(raw, "wcet", where, seen)
    deadline = _rational_field(raw, "deadline", where, seen)
    if "period" not in raw:
        raise ValueError(f"{where}.period: missing")
    period = raw["period"]
    if period is not None:
        period = _rational_field(raw, "period", where, seen)
    raw_subtasks = raw.get("subtasks")
    if not isinstance(raw_subtasks, list):
        raise ValueError(f"{where}.subtasks: expected a list")
    subtasks = []
    for j, sub in enumerate(raw_subtasks):
        try:  # the common case, an integer id and a wcet string seen before
            sid, wcet = sub["id"], seen[sub["wcet"]]
        except (TypeError, KeyError):
            sid = None
        if type(sid) is not int:  # the checked decode, which names the field
            sid, wcet = _subtask_fields(sub, f"{where}.subtasks[{j}]", seen)
        subtasks.append(Subtask(sid, wcet))
    raw_edges = raw.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError(f"{where}.edges: expected a list")
    edges = []
    for j, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_int, pair)):
            raise ValueError(f"{where}.edges[{j}]: expected a pair of integers")
        edges.append((pair[0], pair[1]))
    return DagTask(
        id=tid,
        wcet_total=wcet_total,
        deadline=deadline,
        period=period,
        subtasks=tuple(subtasks),
        edges=tuple(edges),
    )


def _subtask_fields(
    raw: Any, where: str, seen: dict[str, Fraction]
) -> tuple[int, Fraction]:
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object")
    return _int_field(raw, "id", where), _rational_field(raw, "wcet", where, seen)


def _int_field(raw: dict, key: str, where: str) -> int:
    value = raw.get(key)
    if not _is_int(value):
        raise ValueError(f"{where}.{key}: expected an integer")
    return value


def _rational_field(raw: dict, key: str, where: str, seen: dict[str, Fraction]) -> Fraction:
    """The field's rational-string decoded.  ``seen`` maps each string this
    document has decoded to its Fraction, so equal strings parse once."""
    value = raw.get(key)
    if not isinstance(value, str):
        raise ValueError(f"{where}.{key}: expected a rational-string")
    fraction = seen.get(value)
    if fraction is None:
        try:
            fraction = seen[value] = parse_rational(value)
        except ValueError as exc:
            raise ValueError(f"{where}.{key}: {exc}") from None
    return fraction


# The document as json.dump(doc, stream, indent=2) lays it out.  Its shape
# is fixed and its rationals are rational-strings, which need no escaping,
# so it is written from these pieces; only the name and an id or edge
# endpoint that is not an int go through the JSON encoder (see _json_at).
_NAME = '{\n  "name": '
_TASKS = ',\n  "tasks": '
_TASKS_CLOSE = "\n  ]"
_TASK_ID = '\n    {\n      "id": '
_TASK_WCET = ',\n      "wcet": "'
_DEADLINE = '",\n      "deadline": "'
_PERIOD = '",\n      "period": '
_SUBTASKS = ',\n      "subtasks": '
_EDGES = ',\n      "edges": '
_TASK_END = "\n    }"
_SUBTASK_ID = '\n        {\n          "id": '
_SUBTASK_WCET = ',\n          "wcet": "'
_SUBTASK_END = '"\n        }'
_EDGE_FROM = "\n        [\n          "
_EDGE_TO = ",\n          "
_EDGE_END = "\n        ]"
_INNER_CLOSE = "\n      ]"  # after a task's last subtask or edge


def _json_at(value: Any, depth: int) -> str:
    """``value`` as json.dump(..., indent=2) writes it ``depth`` levels in.

    An int is its digits; anything else is the encoder's own text with each
    line break indented to the depth (a JSON string holds no raw line break).
    Raises the encoder's TypeError or ValueError on what JSON cannot hold.
    """
    if type(value) is int:
        return str(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_list(items: list[str], close: str = _INNER_CLOSE) -> str:
    """The encoded ``items`` as one indented JSON list."""
    return "[" + ",".join(items) + close if items else "[]"


def _encode_task_set(ts: TaskSet) -> str:
    """The whole document as text, built before anything is written."""
    # each distinct rational object is formatted once: the loader shares
    # one Fraction per distinct string, the family one per task
    texts: dict[int, str] = {}
    held = []  # every object texts is keyed by, so that no id is reused

    def rational(value: Fraction) -> str:
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = format_rational(value)
            held.append(value)
        return text

    tasks = []
    for task in ts.tasks:
        subtasks = [
            f"{_SUBTASK_ID}{_json_at(st.id, 5)}{_SUBTASK_WCET}{rational(st.wcet)}{_SUBTASK_END}"
            for st in task.subtasks
        ]
        edges = [
            f"{_EDGE_FROM}{_json_at(a, 5)}{_EDGE_TO}{_json_at(b, 5)}{_EDGE_END}"
            for a, b in task.edges
        ]
        period = "null" if task.period is None else f'"{rational(task.period)}"'
        tasks.append(
            f"{_TASK_ID}{_json_at(task.id, 3)}{_TASK_WCET}{rational(task.wcet_total)}"
            f"{_DEADLINE}{rational(task.deadline)}{_PERIOD}{period}"
            f"{_SUBTASKS}{_json_list(subtasks)}{_EDGES}{_json_list(edges)}{_TASK_END}"
        )
    return f"{_NAME}{_json_at(ts.name, 1)}{_TASKS}{_json_list(tasks, _TASKS_CLOSE)}\n}}\n"


def dump_task_set(ts: TaskSet, stream: TextIO) -> None:
    """Write a task set to an open text stream as indented JSON.

    The text is json.dump's with ``indent=2`` and a final newline.  It is
    built whole first, so a set JSON cannot hold (a task id that is no
    JSON value, say) raises TypeError with nothing written.
    """
    stream.write(_encode_task_set(ts))


def load_task_set(stream: TextIO) -> TaskSet:
    """Read a task set from an open text stream.

    Raises ValueError naming the first malformed field.  Semantic
    invariants (acyclic edges, work totals, ...) are not checked here;
    run :func:`fedsched.model.validate_task_set` on the result.
    """
    try:
        doc = json.load(stream)
    except RecursionError:
        raise ValueError("document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("document: expected a JSON object")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("name: expected a string")
    raw_tasks = doc.get("tasks")
    if not isinstance(raw_tasks, list):
        raise ValueError("tasks: expected a list")
    seen: dict[str, Fraction] = {}  # rational-string -> its decode
    tasks = tuple(
        _task_from_dict(raw, f"tasks[{i}]", seen) for i, raw in enumerate(raw_tasks)
    )
    return TaskSet(name=name, tasks=tasks)


def save_task_set(ts: TaskSet, path: str) -> None:
    """Write a task set to ``path``; the file is opened only once the whole
    text is built, so a set that cannot be encoded leaves it untouched."""
    text = _encode_task_set(ts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_task_set(path: str) -> TaskSet:
    with open(path, "r", encoding="utf-8") as fh:
        return load_task_set(fh)
