import ast
import importlib
import importlib.util
import re
from pathlib import Path

import fedsched

EXPECTED = {
    "CounterexampleParams", "DagTask", "DeadlineMiss",
    "FederatedAllocation", "Infeasible", "Interval",
    "PartitionedAssignment", "Platform", "ScheduleTrace", "SpeedupRow",
    "Subtask", "TaskSet", "allocate_federated",
    "brute_force_federated_oracle", "build_counterexample", "check_trace",
    "dump_task_set", "format_rational", "load_task_set",
    "min_feasible_speed_federated", "parse_rational",
    "partition_by_subtask_index", "partitioned_feasible",
    "random_task_set", "read_task_set", "save_task_set",
    "simulate_list_schedule", "simulate_partitioned_edf",
    "speedup_lower_bound", "speedup_sweep",
    "uniprocessor_edf_feasible", "validate_task_set",
}

TRACER_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (module, function) pairs the benchmark's tracer looks up by name
TRACED = {(module, name) for module, name, _ in load_tracer().TARGETS}


def test_all_is_sorted_unique_and_exactly_the_expected_names():
    names = fedsched.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names) == 32
    assert set(names) == EXPECTED
    for name in names:
        assert getattr(fedsched, name) is not None

# Public names defined in a fedsched module but not exported, each with
# the reason it stays public; TRACER_HOOK marks a name kept only because
# the tracer looks it up
TRACER_HOOK = "the tracer hooks it"
NOT_EXPORTED = {
    ("cli", "main"): "the command line as a function, for tests and the tracer",
    ("cli", "entry"): "the console-script entry point",
    ("model", "work"): f"DagTask.work's definition; {TRACER_HOOK}",
    ("model", "span"): f"DagTask.span's definition; {TRACER_HOOK}",
    ("feasibility", "demand_profile"): f"analyze's demand table as Fractions; {TRACER_HOOK}",
    ("feasibility", "DemandProfile"): "demand_profile's result, whose points the tracer counts",
    ("feasibility", "processor_items"): f"the partition's items as Fractions; {TRACER_HOOK}",
    ("rational", "format_ticks"): "format_rational on int ticks, for the CLI's output",
    ("feasibility", "MAX_DEMAND_STEPS"): "a limit that tests lower with monkeypatch",
    ("model", "MAX_TICK_BITS"): "a limit that tests lower with monkeypatch",
}


def test_no_public_name_outside_the_surface():
    defined = set()
    for path in Path(fedsched.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((path.stem, name) for name in names if not name.startswith("_"))
    outside = {(module, name) for module, name in defined if name not in fedsched.__all__}
    assert outside == set(NOT_EXPORTED)


def test_traced_functions_exist_on_their_modules():
    for module, name in TRACED:
        assert callable(getattr(importlib.import_module(f"fedsched.{module}"), name))


def test_names_kept_for_the_tracer_are_traced():
    kept = {pair for pair, reason in NOT_EXPORTED.items() if reason.endswith(TRACER_HOOK)}
    assert kept and kept <= TRACED


def test_names_not_exported_stay_on_their_modules_only():
    for module, name in NOT_EXPORTED:
        assert hasattr(importlib.import_module(f"fedsched.{module}"), name)
        assert not hasattr(fedsched, name), name


def test_package_exports_no_private_name():
    assert not [name for name in fedsched.__all__ if name.startswith("_")]
    assert not [
        name for name in vars(fedsched)
        if name.startswith("_") and not name.startswith("__")
    ]


def test_readme_library_table_lists_exactly_the_exported_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for row in section.splitlines():
        if row.startswith("| `fedsched."):
            _, module, contents, _ = row.split("|")
            module = importlib.import_module(module.strip().strip("`"))
            for name in re.findall(r"`(\w+)`", contents):
                assert name in fedsched.__all__, name
                assert getattr(module, name) is getattr(fedsched, name), name
                listed.append(name)
    assert sorted(listed) == fedsched.__all__
