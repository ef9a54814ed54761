import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

from fedsched.cli import main
from fedsched.generate import CounterexampleParams, build_counterexample
from fedsched.model import DagTask, Subtask, TaskSet
from fedsched.taskio import read_task_set, save_task_set


def write_reference(tmp_path, m=10, n=10, k=2):
    path = tmp_path / "tasks.json"
    save_task_set(build_counterexample(CounterexampleParams(m, n, Fraction(k))), path)
    return str(path)


def test_generate_writes_loadable_file(tmp_path):
    out = tmp_path / "hard.json"
    code = main(["generate", "--M", "10", "--N", "10", "--K", "2", "-o", str(out)])
    assert code == 0
    ts = read_task_set(out)
    assert ts == build_counterexample(CounterexampleParams(10, 10, Fraction(2)))


def test_generate_accepts_rational_ratio(tmp_path):
    out = tmp_path / "hard.json"
    assert main(["generate", "--M", "4", "--N", "3", "--K", "5/2", "-o", str(out)]) == 0
    ts = read_task_set(out)
    assert ts.tasks[2].deadline == Fraction(25, 4)


def test_generate_to_stdout(capsys):
    assert main(["generate", "--M", "2", "--N", "2", "--K", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "hard-M2-N2-K2"
    assert len(doc["tasks"]) == 2


def test_validate_clean_and_broken(tmp_path, capsys):
    path = write_reference(tmp_path, 2, 2, 2)
    assert main(["validate", "-i", path]) == 0
    capsys.readouterr()
    doc = json.loads(open(path).read())
    doc["tasks"][0]["wcet"] = "999"  # no longer the sum of subtask wcets
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "-i", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out


def test_analyze_verdicts(tmp_path, capsys):
    path = write_reference(tmp_path)
    assert main(["analyze", "-i", path, "--speed", "1", "--processors", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "feasible"
    assert len(report["per_processor_demand"]) == 10
    for proc in report["per_processor_demand"]:
        for point in proc["points"]:
            assert point["demand"] == point["t"]
            assert point["capacity"] == point["t"]
    assert main(["analyze", "-i", path, "--speed", "1/2", "--processors", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"


def test_federate_infeasible_with_certificate(tmp_path, capsys):
    path = write_reference(tmp_path)
    code = main(["federate", "-i", path, "--speed", "4999/1000", "--processors", "10"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "infeasible"
    assert report["demand_lower_bound"] == 21


def test_federate_feasible(tmp_path, capsys):
    path = write_reference(tmp_path)
    code = main(["federate", "-i", path, "--speed", "10", "--processors", "10"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "feasible"
    assert report["total_processors_used"] <= 10


def test_simulate_trace_and_misses(tmp_path, capsys):
    path = write_reference(tmp_path)
    code = main(["simulate", "-i", path, "--speed", "1", "--processors", "10"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "processor,task,subtask,start,end"
    assert "# misses=0" in lines
    code = main(["simulate", "-i", path, "--speed", "999/1000", "--processors", "10"])
    assert code == 1
    out = capsys.readouterr().out
    assert "# misses=0" not in out
    assert any(line.startswith("# miss,1,") for line in out.splitlines())


def test_simulate_horizon_flag(tmp_path, capsys):
    path = write_reference(tmp_path, 2, 2, 2)
    code = main(
        ["simulate", "-i", path, "--speed", "1", "--processors", "2", "--horizon", "8"]
    )
    assert code == 0


def test_simulate_rejects_a_negative_horizon(tmp_path, capsys):
    path = write_reference(tmp_path, 2, 2, 2)
    code = main(
        ["simulate", "-i", path, "--speed", "1", "--processors", "2", "--horizon", "-5"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: horizon must be nonnegative, got -5\n"


def test_sweep_csv_shape(capsys):
    code = main(["sweep", "--grid", "10,10,2;4,4,2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "M,N,K,theorem_bound,s_star,optimal_feasible_at_1",
        "10,10,2,5,645/128,true",
        "4,4,2,2,5/2,true",
    ]


def test_sweep_has_no_precision_option(capsys):
    assert main(["sweep", "--grid", "10,10,2", "--precision", "1/64"]) == 2
    assert capsys.readouterr().out == ""


def test_readme_sweep_example_is_current(capsys):
    # README's sweep section shows one command block and then its output
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### sweep", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)
    command, output = blocks[0].strip(), blocks[1]
    argv = shlex.split(command)
    assert argv[0] == "fedsched"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == output


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--M", "1", "--N", "2", "--K", "2"]) == 2
    assert main(["generate", "--M", "2", "--N", "2", "--K", "1.5"]) == 2
    assert main(["analyze", "-i", str(tmp_path / "absent.json"), "--speed", "1", "--processors", "1"]) == 2
    assert main(["sweep", "--grid", "10,10"]) == 2
    capsys.readouterr()


def write_huge_hyperperiod(tmp_path):
    # coprime periods near 1e9: the scan horizon is about 2e18 and holds
    # about 4e9 step instants, far past the demand engine's step limit
    tasks = tuple(
        DagTask(id=i, wcet_total=1, deadline=10, period=p, subtasks=(Subtask(1, 1),))
        for i, p in enumerate((1_000_000_007, 1_000_000_009), start=1)
    )
    path = tmp_path / "huge.json"
    save_task_set(TaskSet(name="huge", tasks=tasks), path)
    return str(path)


def test_analyze_refuses_a_huge_demand_scan(tmp_path, capsys):
    # the verdict alone would stop at the L_a bound, but the printed
    # table is the full-horizon profile
    path = write_huge_hyperperiod(tmp_path)
    start = time.perf_counter()
    code = main(["analyze", "-i", path, "--speed", "1", "--processors", "1"])
    assert code == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "step instants" in captured.err


def test_simulate_refuses_a_huge_release_table(tmp_path, capsys):
    # releasing every job up to the default horizon would take about 4e9 jobs
    path = write_huge_hyperperiod(tmp_path)
    start = time.perf_counter()
    code = main(["simulate", "-i", path, "--speed", "1", "--processors", "1"])
    assert code == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "jobs, more than the limit" in captured.err


def test_federate_decides_a_huge_hyperperiod(tmp_path, capsys):
    # utilization is far below 1, so each first-fit demand test stops at
    # the L_a bound instead of scanning to the 2e18 horizon
    path = write_huge_hyperperiod(tmp_path)
    start = time.perf_counter()
    code = main(["federate", "-i", path, "--speed", "1", "--processors", "1"])
    assert code == 0
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["verdict"] == "feasible"
    assert doc["light_partition"] == {"1": 1, "2": 1}
    assert len(captured.err.splitlines()) == 1


def test_malformed_input_names_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "tasks": [{"id": 1}]}))
    code = main(["validate", "-i", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tasks[0]" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
