"""Schedulability analysis and exact-time simulation for sporadic DAG task
systems on identical multiprocessors: demand-bound feasibility tests,
federated allocation with its provable speedup penalty, event-driven EDF
and list-scheduling simulators, and threshold-speed experiments."""

from .explore import (
    SpeedupRow,
    brute_force_federated_oracle,
    min_feasible_speed_federated,
    speedup_sweep,
)
from .feasibility import (
    PartitionedAssignment,
    partition_by_subtask_index,
    partitioned_feasible,
    uniprocessor_edf_feasible,
)
from .federated import (
    FederatedAllocation,
    Infeasible,
    allocate_federated,
    speedup_lower_bound,
)
from .generate import CounterexampleParams, build_counterexample, random_task_set
from .model import (
    DagTask,
    Platform,
    Subtask,
    TaskSet,
    validate_task_set,
)
from .rational import format_rational, parse_rational
from .simulate import (
    DeadlineMiss,
    Interval,
    ScheduleTrace,
    check_trace,
    simulate_list_schedule,
    simulate_partitioned_edf,
)
from .taskio import (
    dump_task_set,
    load_task_set,
    read_task_set,
    save_task_set,
)

__version__ = "0.1.0"

__all__ = [
    "CounterexampleParams",
    "DagTask",
    "DeadlineMiss",
    "FederatedAllocation",
    "Infeasible",
    "Interval",
    "PartitionedAssignment",
    "Platform",
    "ScheduleTrace",
    "SpeedupRow",
    "Subtask",
    "TaskSet",
    "allocate_federated",
    "brute_force_federated_oracle",
    "build_counterexample",
    "check_trace",
    "dump_task_set",
    "format_rational",
    "load_task_set",
    "min_feasible_speed_federated",
    "parse_rational",
    "partition_by_subtask_index",
    "partitioned_feasible",
    "random_task_set",
    "read_task_set",
    "save_task_set",
    "simulate_list_schedule",
    "simulate_partitioned_edf",
    "speedup_lower_bound",
    "speedup_sweep",
    "uniprocessor_edf_feasible",
    "validate_task_set",
]
