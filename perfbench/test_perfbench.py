"""Self-tests of the benchmark (not part of the program's own test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def fs():
    return workloads.import_fedsched(run.ROOT)


@pytest.fixture(scope="module")
def recurring_ops(fs, tmp_path_factory):
    return workloads.recurring(fs, tmp_path_factory.mktemp("recurring"), 0)


@pytest.fixture(scope="module")
def oracle_ops(fs, tmp_path_factory):
    return workloads.random_oracle(fs, tmp_path_factory.mktemp("oracle"), 0)[:8]


def test_wrong_expected_verdict_fails_the_checks(fs, recurring_ops):
    federate = next(op for op in recurring_ops if op.kind == "federate")
    result = federate.call()
    assert federate.check(result) == []
    assert workloads.check_verdict(result, code=0, verdict="infeasible")
    assert workloads.check_verdict(result, code=1, verdict="feasible")


def test_wrong_recorded_oracle_bit_fails_one_decision(fs):
    expected = workloads.load_expected()
    alloc, oracle = expected[3]
    verdicts = workloads.decide(fs, workloads.oracle_instance(fs, 3))
    assert workloads.check_decisions(verdicts, (alloc, oracle)) == []
    flipped = ("1" if oracle[0] == "0" else "0") + oracle[1:]
    assert len(workloads.check_decisions(verdicts, (alloc, flipped))) == 1


def test_sweep_check_reads_columns_by_name():
    out = ("M,N,K,theorem_bound,s_star_lo,s_star_hi,optimal_feasible_at_1\n"
           "10,10,2,5,82545/16384,82561/16384,true\n")
    res = workloads.CliResult(0, out, "")
    grid = ((10, 10, 2),)
    assert workloads.check_sweep(res, grid) == []
    exact = "M,N,K,optimal_feasible_at_1,theorem_bound,s_star\n10,10,2,true,5,5\n"
    assert workloads.check_sweep(res._replace(out=exact), grid) == []
    below = out.replace("82561/16384", "4")
    assert workloads.check_sweep(res._replace(out=below), grid)
    assert workloads.check_sweep(res._replace(out=out.replace(",5,", ",6,")), grid)


def test_failures_are_counted_and_the_pass_carries_on(recurring_ops):
    def boom():
        raise RuntimeError("boom")

    wrong = recurring_ops[1]._replace(
        check=lambda res: workloads.check_verdict(res, code=0, verdict="infeasible"))
    ops = [wrong, workloads.Op("boom", 3, boom, lambda _: []), recurring_ops[1]]
    result = run.run_pass(ops, None)
    assert (result.attempted, result.failed) == (5, 4)
    assert len(result.problems) == 2
    assert result.gauges and all(g > 0 for g in result.gauges)


@pytest.mark.parametrize("which", ["recurring_ops", "oracle_ops"])
def test_self_times_add_up_to_the_traced_wall(fs, which, request):
    ops = request.getfixturevalue(which)
    tracer = tracing.Tracer()
    tracer.install(fs)
    try:
        result = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert result.failed == 0
    self_total = sum(v for k, v in result.layers.items() if k.endswith("_s"))
    assert self_total == pytest.approx(result.wall, rel=0.03)
    assert tracing.is_untraced()


def test_plain_pass_refuses_to_run_traced(fs, oracle_ops):
    tracer = tracing.Tracer()
    tracer.install(fs)
    try:
        assert not tracing.is_untraced()
        with pytest.raises(workloads.BenchError):
            run.run_passes(oracle_ops[:1], fs, 0, trace=False)
    finally:
        tracer.uninstall()
    assert tracing.is_untraced()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recurring",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "error" in done.stderr
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
