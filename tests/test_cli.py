import contextlib
import io
import json
import random
import re
import shlex
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from fedsched import cli
from fedsched.cli import main
from fedsched.feasibility import (
    _partition,
    partition_by_subtask_index,
    partitioned_feasible,
)
from fedsched.generate import CounterexampleParams, build_counterexample, random_task_set
from fedsched.model import MAX_TICK_BITS, DagTask, Platform, Subtask, TaskSet
from fedsched.simulate import simulate_partitioned_edf
from fedsched.taskio import read_task_set, save_task_set
from reference import implicit_deadlines, ref_analyze, ref_simulate, reference_partitioned_edf


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
    doc = json.loads(Path(path).read_text())
    doc["tasks"][0]["wcet"] = "999"  # no longer the sum of subtask wcets
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "-i", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "mismatch" in out


def test_platform_commands_refuse_an_invalid_set(tmp_path, capsys):
    # the first violation and how many follow; nothing on stdout
    doc = json.loads(Path(write_reference(tmp_path, 2, 2, 2)).read_text())
    doc["tasks"][0]["wcet"] = "999"
    doc["tasks"][1]["deadline"] = "0"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    for command in ("analyze", "federate", "simulate"):
        argv = [command, "-i", str(broken), "--speed", "1", "--processors", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid task set: task 1: work mismatch: subtasks sum to "
            "2, declared total is 999 (+1 more)\n"
        ), command


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


def readme_example(heading, capsys):
    """Run the command block of README's ``### heading`` section, one
    command a line, and return the last command's stdout and the block
    that follows it, the output README shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"### {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)
    for command in blocks[0].strip().splitlines():
        capsys.readouterr()
        argv = shlex.split(command)
        assert argv[0] == "fedsched"
        assert main(argv[1:]) == 0
    return capsys.readouterr().out, blocks[1]


def test_readme_sweep_example_is_current(capsys):
    got, shown = readme_example("sweep", capsys)
    assert got == shown


def test_readme_analyze_example_is_current(tmp_path, monkeypatch, capsys):
    # also the layout analyze writes: json.dump's, each key on its own line
    monkeypatch.chdir(tmp_path)
    got, shown = readme_example("analyze", capsys)
    assert got == shown


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--M", "1", "--N", "2", "--K", "2"]) == 2
    assert main(["generate", "--M", "2", "--N", "2", "--K", "1.5"]) == 2
    assert main(["analyze", "-i", str(tmp_path / "absent.json"), "--speed", "1", "--processors", "1"]) == 2
    assert main(["sweep", "--grid", "10,10"]) == 2
    capsys.readouterr()
    for grid in ("", " ; ;"):
        assert main(["sweep", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid {grid!r} holds no M,N,K triple\n"


def test_integer_arguments_take_only_plain_digits(tmp_path, capsys):
    # int() alone takes "1_0" as 10 and " 2" as 2; M, N and the processor
    # count are written in the rational grammar's digits, as K and speed are
    path = write_reference(tmp_path, 4, 3)
    for grid in ("1_0,1_0,2", "4,3,2;4,3_0,2", "\u0664,3,2"):
        assert main(["sweep", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "M and N must be integers" in captured.err
    for count in ("1_0", " 4", "4\n", "+-4"):
        assert main(["analyze", "-i", path, "--speed", "1", "--processors", count]) == 2
        assert f"argument --processors: not an integer: {count!r}" in capsys.readouterr().err
    assert main(["generate", "--M", "1_0", "--N", "2", "--K", "2"]) == 2
    assert "argument --M: not an integer: '1_0'" in capsys.readouterr().err
    assert main(["analyze", "-i", path, "--speed", "1", "--processors", "+4"]) == 0
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


def test_federate_decides_a_zero_slack_implicit_deadline_set(tmp_path, capsys):
    # the shared processor's utilization equals the speed and every deadline
    # its period: a verdict, not a scan refused at the step limit
    path = tmp_path / "implicit.json"
    save_task_set(implicit_deadlines(random_task_set(1463, 8)), path)
    for speed, code in (("1442663/340340", 1), ("1721123/340340", 0)):
        assert main(["federate", "-i", str(path), "--speed", speed, "--processors", "1"]) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == ("feasible" if code == 0 else "infeasible")


def test_malformed_input_names_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "tasks": [{"id": 1}]}))
    code = main(["validate", "-i", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tasks[0]" in err


def test_deeply_nested_input_is_an_input_error(tmp_path, capsys):
    # json's decoder recurses once per bracket and runs out of stack here
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for command in (["validate"], ["analyze", "--speed", "1", "--processors", "1"]):
        assert main([command[0], "-i", str(deep), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document: nested too deeply\n"


def test_a_huge_tick_is_an_input_error(tmp_path, capsys):
    # 6000 one-shot tasks whose wcets have distinct 7-digit prime
    # denominators: a tick of about 140000 bits, rescaled into every value,
    # is refused as soon as it passes the limit
    sieve = bytearray([1]) * 1_100_000
    for k in range(2, 1049):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, len(sieve), k)))
    primes = [n for n in range(1_000_000, len(sieve)) if sieve[n]][:6000]
    assert len(primes) == 6000
    tasks = tuple(
        DagTask(i, Fraction(1, p), 1, None, (Subtask(1, Fraction(1, p)),))
        for i, p in enumerate(primes, start=1)
    )
    path = tmp_path / "primes.json"
    save_task_set(TaskSet(name="primes", tasks=tasks), path)
    for command in (["validate"], ["federate", "--speed", "1", "--processors", "1"]):
        start = time.perf_counter()
        assert main([command[0], "-i", str(path), *command[1:]]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert f"the limit of {MAX_TICK_BITS} bits" in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- analyze and simulate against ref_analyze and ref_simulate -------------
#
# The two commands write their output from the engines' int ticks; the
# references are those commands as they were when they formatted the
# library's Fraction results.  Both must give identical bytes and exit codes.


def captured(run):
    """(exit code, stdout, stderr) of ``run()``, with main's error handling."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    return code, out.getvalue(), err.getvalue()


# periods with a small lcm (60) keep the default horizon short
CLI_PERIODS = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4))
CLI_SPEEDS = ("1", "1/2", "999/1000", "7/3")
CLI_HORIZONS = (None, "0", "77/3")


def random_cli_set(rng, m):
    """A valid edge-free set whose every task has ``m`` subtasks, as
    partition_by_subtask_index requires."""
    tasks = []
    recurring = rng.random() < 0.5
    for tid in range(1, rng.randint(1, 4) + 1):
        deadline = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
        period = None
        if recurring and rng.random() < 0.8:
            period = rng.choice(CLI_PERIODS)
            deadline = min(deadline, period)
        subtasks = tuple(
            Subtask(sid, Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 7))) / 4)
            for sid in rng.sample(range(1, 9), m)
        )
        tasks.append(DagTask(tid, sum(st.wcet for st in subtasks), deadline, period, subtasks))
    return TaskSet(name="random", tasks=tuple(tasks))


def analyze_and_simulate_as_the_references(rng, path, ts, m, kinds, n):
    """Write ``ts`` to ``path``, then require analyze and simulate on its
    ``m`` processors, at speeds and a horizon drawn from ``rng``, to give
    ref_analyze's and ref_simulate's bytes and exit codes.  Returns the
    speed analyze ran at."""
    save_task_set(ts, path)
    at = ["-i", path, "--processors", str(m)]
    speed = analyzed = rng.choice(CLI_SPEEDS)
    got = captured(lambda: main(["analyze", *at, "--speed", speed]))
    assert got == captured(lambda: ref_analyze(path, speed, m)), (n, "analyze", speed)
    kinds[{0: "feasible", 1: "infeasible", 2: "analyze refused"}[got[0]]] += 1
    kinds[f"speed {speed}"] += 1
    speed, horizon = rng.choice(CLI_SPEEDS), rng.choice(CLI_HORIZONS)
    extra = [] if horizon is None else ["--horizon", horizon]
    got = captured(lambda: main(["simulate", *at, "--speed", speed, *extra]))
    assert got == captured(lambda: ref_simulate(path, speed, m, horizon)), (n, "simulate", speed, horizon)
    kinds[{0: "no misses", 1: "misses", 2: "simulate refused"}[got[0]]] += 1
    kinds[f"speed {speed}"] += 1
    kinds[f"horizon {horizon}"] += 1
    kinds["recurring" if any(t.period for t in ts) else "one-shot"] += 1
    return analyzed


def test_simulate_writes_the_reference_bytes_over_fifty_hyperperiods(tmp_path):
    # hyperperiod 6 on a tick of 1/2, at 50 hyperperiods and one tick
    # less: the simulator runs the first hyperperiod and copies it, the
    # Fraction simulator runs every job
    path, plat, half = str(tmp_path / "set.json"), Platform(1, Fraction(1)), Fraction(1, 2)

    def task(tid, wcet, deadline, period):
        return DagTask(tid, wcet, deadline, period, (Subtask(1, wcet),))

    late = (task(1, 1, 1, 3 * half), task(2, half, 1, 2))
    on_time = (task(1, half, 3 * half, 3 * half), task(2, half, 2, 2))
    for tasks, code in ((late, 1), (on_time, 0)):
        ts = TaskSet("long", tasks)
        save_task_set(ts, path)
        pa = partition_by_subtask_index(ts, 1)
        for horizon in ("300", "599/2"):
            at = ["-i", path, "--speed", "1", "--processors", "1", "--horizon", horizon]
            got = captured(lambda: main(["simulate", *at]))
            assert got[0] == code
            assert got == captured(lambda: ref_simulate(path, "1", 1, horizon)), horizon
            assert simulate_partitioned_edf(ts, pa, plat, Fraction(horizon)) == (
                reference_partitioned_edf(ts, pa, plat, Fraction(horizon))
            ), horizon


def in_whole_ticks(ts):
    """``ts`` with every time multiplied by its tick, so that its tick is 1."""
    scale = ts._ticks.scale
    return TaskSet(ts.name, tuple(
        DagTask(t.id, t.wcet_total * scale, t.deadline * scale, t.period and t.period * scale,
                tuple(Subtask(st.id, st.wcet * scale) for st in t.subtasks))
        for t in ts
    ))


def test_tick_output_matches_the_fraction_formatting(tmp_path, monkeypatch):
    rng = random.Random(909)
    kinds = Counter()
    path = str(tmp_path / "set.json")
    for n in range(320):
        # now and then a step limit low enough that tables and runs are
        # refused, so that the limit messages are compared too
        limit = 8 if rng.random() < 0.25 else 10**6
        monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", limit)
        monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", limit)
        m = rng.randint(1, 3)
        ts = random_cli_set(rng, m)
        if n % 5 == 0:
            ts = in_whole_ticks(ts)
        speed = analyze_and_simulate_as_the_references(rng, path, ts, m, kinds, n)
        # each branch of analyze's column formatting: whole ticks, the t
        # column read again as the capacity, and a capacity column its own
        tick = ts._ticks.scale
        kinds["tick > 1"] += tick > 1
        kinds["tick 1"] += tick == 1
        kinds["speed 1, tick > 1"] += speed == "1" and tick > 1
        kinds["speed other than 1"] += speed != "1"
    assert min(kinds.values()) >= 15, kinds


def twin_cli_set(rng, m):
    """A valid edge-free set of ``m`` subtasks per task whose wcets repeat,
    so that partition_by_subtask_index gives processors one item list."""
    tasks = []
    recurring = rng.random() < 0.5
    load = 1 if rng.random() < 0.3 else Fraction(1, 4)
    for tid in range(1, rng.randint(1, 4) + 1):
        deadline = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5)))
        period = None
        if recurring and rng.random() < 0.8:
            period = rng.choice(CLI_PERIODS)
            deadline = min(deadline, period)
        wcets = [Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 7))) * load for _ in range(2)]
        subtasks = tuple(
            Subtask(sid, rng.choice(wcets[: rng.randint(1, 2)]))
            for sid in rng.sample(range(1, 9), m)
        )
        tasks.append(DagTask(tid, sum(st.wcet for st in subtasks), deadline, period, subtasks))
    return TaskSet(name="twins", tasks=tuple(tasks))


def test_twin_processors_write_what_each_processor_alone_would(tmp_path, monkeypatch):
    # analyze tabulates, and simulate runs, each distinct processor once
    rng = random.Random(2121)
    kinds = Counter()
    path = str(tmp_path / "set.json")
    for n in range(400):
        limit = 8 if rng.random() < 0.4 else 10**6
        monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", limit)
        monkeypatch.setattr("fedsched.simulate.MAX_DEMAND_STEPS", limit)
        m = rng.randint(2, 4)
        ts = twin_cli_set(rng, m)
        analyze_and_simulate_as_the_references(rng, path, ts, m, kinds, n)
        lists = [
            tuple(sorted(t.subtasks, key=lambda st: st.id)[k].wcet for t in ts) for k in range(m)
        ]
        kinds["twin processors"] += len(set(lists)) < m
        # processor k holds one subtask of each task, in task order, so
        # equal item lists mean equal job shapes: no twin is split here
        # (test_simulate's twins split some)
        groups = _partition(ts, partition_by_subtask_index(ts, m), Platform(m, 1))
        shape = {proc: key for key, procs in groups.items() for proc, _ in procs}
        assert not any(
            lists[a - 1] == lists[b - 1] and shape[a] != shape[b]
            for a, b in combinations(shape, 2)
        ), n
    assert min(kinds.values()) >= 50, kinds


def test_an_assignment_keeps_no_state(tmp_path, monkeypatch):
    # the test, analyze's tables and the simulation each resolve one
    # assignment and leave it as it was built
    path = write_reference(tmp_path, 4, 4, 2)
    ts = read_task_set(path)
    pa = partition_by_subtask_index(ts, 4)
    assert partitioned_feasible(ts, pa, Platform(4, Fraction(1)))
    assert not simulate_partitioned_edf(ts, pa, Platform(4, Fraction(1))).misses
    monkeypatch.setattr(cli, "read_task_set", lambda _: ts)
    monkeypatch.setattr(cli, "partition_by_subtask_index", lambda *_: pa)
    for command in ("analyze", "simulate"):
        assert main([command, "-i", path, "--speed", "1", "--processors", "4"]) == 0
    assert vars(pa) == {"mapping": pa.mapping}


def test_main_called_again_answers_as_a_fresh_process(tmp_path):
    # the parser is built once per process: a usage error, --help and a
    # success, each run twice in a row, read as each did on a fresh parser
    path = write_reference(tmp_path, 2, 2, 2)
    runs = (
        ["analyze", "-i", path, "--speed", "1"],  # --processors missing
        ["--help"],
        ["simulate", "--help"],
        ["federate", "-i", path, "--speed", "1", "--processors", "1_0"],
        ["analyze", "-i", path, "--speed", "1", "--processors", "2"],
    )
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(captured(lambda: main(argv)))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 2, 0]
    again = [captured(lambda: main(argv)) for argv in runs for _ in range(2)]
    assert again == [result for result in fresh for _ in range(2)]
