"""One pass of each benchmark workload, judged by the benchmark's own checks.

``perfbench/workloads.py`` defines what the benchmark runs and how it
checks every result.  Running one pass here, on the fedsched modules the
tests already use, catches a change that breaks a workload (an exit code,
a verdict, a recorded oracle decision) before a benchmark run does.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

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
