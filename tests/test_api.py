import importlib
import re
from pathlib import Path

import fedsched

EXPECTED = {
    "CounterexampleParams", "DagTask", "DeadlineMiss", "DemandProfile",
    "FederatedAllocation", "Infeasible", "Interval", "Item",
    "PartitionedAssignment", "Platform", "ScheduleTrace", "SpeedupRow",
    "Subtask", "TaskClass", "TaskSet", "allocate_federated",
    "brute_force_federated_oracle", "build_counterexample", "check_trace",
    "classify", "default_horizon", "demand_profile", "dump_task_set",
    "format_rational", "heavy_demand_lower_bound",
    "heavy_processor_allocation", "load_task_set",
    "min_feasible_speed_federated", "parse_rational",
    "partition_by_subtask_index", "partitioned_feasible", "processor_items",
    "random_task_set", "read_task_set", "save_task_set",
    "simulate_list_schedule", "simulate_partitioned_edf",
    "speedup_lower_bound", "speedup_sweep", "total_demand_lower_bound",
    "uniprocessor_edf_feasible", "validate_task_set",
}

# (module, function) pairs the benchmark's tracer looks up by name
TRACED = (
    ("cli", "main"),
    ("taskio", "read_task_set"),
    ("taskio", "load_task_set"),
    ("model", "validate_task_set"),
    ("model", "work"),
    ("model", "span"),
    ("generate", "build_counterexample"),
    ("feasibility", "demand_profile"),
    ("feasibility", "uniprocessor_edf_feasible"),
    ("feasibility", "partitioned_feasible"),
    ("feasibility", "partition_by_subtask_index"),
    ("feasibility", "processor_items"),
    ("federated", "allocate_federated"),
    ("explore", "speedup_sweep"),
    ("explore", "min_feasible_speed_federated"),
    ("explore", "brute_force_federated_oracle"),
    ("simulate", "simulate_partitioned_edf"),
    ("simulate", "simulate_list_schedule"),
)


def test_all_is_sorted_unique_and_exactly_the_expected_names():
    names = fedsched.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names) == 42
    assert set(names) == EXPECTED
    for name in names:
        assert getattr(fedsched, name) is not None


def test_traced_functions_exist_on_their_modules():
    for module, name in TRACED:
        assert callable(getattr(importlib.import_module(f"fedsched.{module}"), name))


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
