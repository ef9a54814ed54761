"""One pass of each benchmark workload, judged by the benchmark's own checks.

``perfbench/workloads.py`` defines what the benchmark runs and how it
checks every result.  Running one pass here, on the fedsched modules the
tests already use, catches a change that breaks a workload (an exit code,
a verdict, a recorded oracle decision) before a benchmark run does.
"""

import importlib
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from reference import ref_analyze, ref_simulate
from test_cli import captured

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_has_no_failed_check(name, tmp_path):
    # the modules already imported: workloads.import_fedsched would drop
    # them from sys.modules and import a second copy
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    ops = workloads.WORKLOADS[name](fs, tmp_path, 0)
    assert ops
    problems = [f"{op.kind}: {msg}" for op in ops for msg in op.check(op.call())]
    assert problems == []


# each instance's file as its workload writes it, its processors and its tick
INSTANCES = {
    "recurring": ("recurring.json", 1, 2),
    "family": (f"family-{workloads.FAMILY_SIZE}.json", workloads.FAMILY_SIZE, 1),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_analyze_and_simulate_write_the_references_bytes_on_the_benchmark_sets(name, tmp_path):
    # recurring's tick 2 has analyze read its t column again as the
    # capacity at speed 1; the family's tick 1 writes every time whole,
    # for 64 processors of one job shape
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    workloads.WORKLOADS[name](fs, tmp_path, 0)
    file, processors, tick = INSTANCES[name]
    path = str(tmp_path / file)
    assert fs.taskio.read_task_set(path)._ticks.scale == tick
    for speed in ("1", "7/3"):
        at = ["-i", path, "--speed", speed, "--processors", str(processors)]
        got = captured(lambda: fs.cli.main(["analyze", *at]))
        assert got == captured(lambda: ref_analyze(path, speed, processors)), speed
        got = captured(lambda: fs.cli.main(["simulate", *at]))
        assert got == captured(lambda: ref_simulate(path, speed, processors, None)), speed


# work of the oracle over the first 200 recorded sets, each decided on its
# 15 platforms in the benchmark's order: the group demand scans when each
# call scanned its groups afresh, and, measured on the code that decides
# an all one-shot set by its fewest processors, the evaluations of that
# number, the group demand scans and the cluster makespan lookups
PER_CALL_SCANS = 21965
NEEDS = 744
SCANS = 2992
LOOKUPS = 539


def test_the_oracle_scans_each_group_about_once(monkeypatch):
    # the 15 platforms of a set share its kept group speeds and its kept
    # fewest processors per speed: a one-shot group's demand is tabulated
    # once per set, and about 4 of 15 decisions need a new search
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    counts = {"scans": 0, "needs": 0, "lookups": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    for name in ("_first_violation", "_demand_table"):
        monkeypatch.setattr(fs.explore, name, counted("scans", getattr(fs.explore, name)))
    for key, name in (("needs", "_fewest_processors"), ("lookups", "_unit_makespan")):
        monkeypatch.setattr(fs.explore, name, counted(key, getattr(fs.explore, name)))
    expected = workloads.load_expected()
    for seed in sorted(expected)[:200]:
        verdicts = workloads.decide(fs, workloads.oracle_instance(fs, seed))
        assert workloads.check_decisions(verdicts, expected[seed]) == []
    assert counts["scans"] <= 0.2 * PER_CALL_SCANS
    assert abs(counts["needs"] - NEEDS) <= 0.05 * NEEDS, counts
    assert abs(counts["scans"] - SCANS) <= 0.05 * SCANS, counts
    assert abs(counts["lookups"] - LOOKUPS) <= 0.05 * LOOKUPS, counts


def test_the_oracle_matches_every_recorded_verdict_in_any_order():
    # every recorded set on its 15 platforms, each set's platforms in a
    # shuffled order, so that needs kept at some speeds decide the others
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    rng = random.Random(29)
    order = list(range(len(workloads.ORACLE_CONFIGS)))
    mismatches = []
    expected = workloads.load_expected()
    assert len(expected) == 2000
    for seed, (_, oracle_bits) in expected.items():
        ts = workloads.oracle_instance(fs, seed)
        rng.shuffle(order)
        for i in order:
            m, speed = workloads.ORACLE_CONFIGS[i]
            got = fs.explore.brute_force_federated_oracle(ts, fs.model.Platform(m, speed))
            if got != (oracle_bits[i] == "1"):
                mismatches.append((seed, m, speed))
    assert mismatches == []


def test_a_family_pass_resolves_each_partition_once(monkeypatch, tmp_path):
    # the partitioned test, analyze's tables and the simulation of one
    # assignment share one resolution: exactly one per assignment built
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    counts = {"built": 0, "resolved": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    assignment = fs.feasibility.PartitionedAssignment
    monkeypatch.setattr(
        assignment, "__post_init__", counted("built", assignment.__post_init__)
    )
    resolve = fs.feasibility._assigned
    for mod in vars(fs).values():
        if getattr(mod, "_assigned", None) is resolve:
            monkeypatch.setattr(mod, "_assigned", counted("resolved", resolve))
    ops = workloads.family(fs, tmp_path, 0)
    assert [msg for op in ops for msg in op.check(op.call())] == []
    # 3 sweep instances, analyze and simulate
    assert counts["resolved"] == counts["built"] == 5


def test_a_family_pass_handles_each_distinct_processor_once(monkeypatch, tmp_path):
    # every processor of a family partition carries the same items and the
    # same job shape: one verdict scan per partitioned test (3 sweep
    # instances and analyze), one EDF run per simulation (3 sweep instances
    # and simulate) and one demand table for analyze's 64 processors
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    counts = {}

    def counted(mod, name):
        fn = getattr(mod, name)

        def call(*args):
            counts[name] += 1
            return fn(*args)

        counts[name] = 0
        monkeypatch.setattr(mod, name, call)

    counted(fs.feasibility, "_first_violation")
    counted(fs.simulate, "_edf_on_one_processor")
    counted(fs.cli, "_demand_table")
    ops = workloads.family(fs, tmp_path, 0)
    assert [msg for op in ops for msg in op.check(op.call())] == []
    assert counts == {"_first_violation": 4, "_edf_on_one_processor": 4, "_demand_table": 1}


def test_simulate_runs_the_kernel_over_one_hyperperiod_of_the_recurring_set(monkeypatch, tmp_path):
    # the recurring set releases 14585 jobs up to its default horizon, the
    # largest deadline plus two hyperperiods: the kernel runs the first
    # hyperperiod and the few jobs after the last whole one.  The family's
    # processors hold one-shot tasks only: one run of their one job shape
    fs = SimpleNamespace(
        **{mod: importlib.import_module(f"fedsched.{mod}") for mod in workloads.MODULES}
    )
    handed = []
    kernel = fs.simulate._edf_on_one_processor

    def counted(proc, jobs, late):
        handed.append(len(jobs))
        return kernel(proc, jobs, late)

    monkeypatch.setattr(fs.simulate, "_edf_on_one_processor", counted)
    for name, calls, most in (("recurring", 2, 7300), ("family", 1, 64)):
        workloads.WORKLOADS[name](fs, tmp_path, 0)
        file, processors, _ = INSTANCES[name]
        for speed in ("1", "7/3"):
            handed.clear()
            at = ["-i", str(tmp_path / file), "--speed", speed, "--processors", str(processors)]
            assert captured(lambda: fs.cli.main(["simulate", *at]))[0] == 0
            assert len(handed) == calls and sum(handed) <= most, (name, speed, handed)
