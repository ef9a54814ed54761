"""The benchmark's workloads: how each builds its inputs, the operations one
pass runs, and the checks applied to every result.

A workload's ``setup`` writes its inputs and returns the list of operations
that make up one pass.  Every pass runs the same list, in order, as a
closed loop: each operation starts after the previous one returns.  The
program is driven only through its public entries: ``fedsched.cli.main``
and the public library functions, always looked up on their module at call
time so the tracer's wrappers take effect in traced passes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent
MODULES = (
    "cli",
    "explore",
    "feasibility",
    "federated",
    "generate",
    "model",
    "simulate",
    "taskio",
)


class BenchError(Exception):
    """The benchmark cannot run here (not a failed check)."""


def import_fedsched(root: Path) -> SimpleNamespace:
    """Import fedsched afresh from ``root/src`` and return its modules.

    Any fedsched modules already imported are dropped first, so repeated
    calls measure a cold import each time.  Refuses a fedsched found
    anywhere but in this checkout.
    """
    src = root / "src"
    if not (src / "fedsched" / "__init__.py").is_file():
        raise BenchError(f"no fedsched package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "fedsched" or n.startswith("fedsched.")]:
        del sys.modules[name]
    fs = SimpleNamespace(
        **{name: importlib.import_module(f"fedsched.{name}") for name in MODULES}
    )
    where = Path(fs.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise BenchError(f"fedsched imported from {where}, not from {src}")
    return fs


class Op(NamedTuple):
    """One timed step of a pass.

    ``call`` is the timed region; ``check`` judges its result afterwards
    and returns one message per failed operation.  ``size`` is how many
    operations the step counts for (a CLI command is one; a random set is
    one per decision).
    """

    kind: str
    size: int
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def run_cli(fs: SimpleNamespace, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fs.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(fs: SimpleNamespace, argv: list[str], check) -> Op:
    return Op(argv[0], 1, partial(run_cli, fs, argv), check)


def _code_problems(res: CliResult, code: int) -> list[str]:
    if res.code != code:
        last = res.err.strip().splitlines()[-1:] or [""]
        return [f"exit code {res.code}, expected {code}: {last[0]}"]
    return []


def check_verdict(res: CliResult, code: int, verdict: str) -> list[str]:
    """JSON commands (federate, validate): exit code and verdict."""
    problems = _code_problems(res, code)
    try:
        doc = json.loads(res.out)
    except ValueError as exc:
        return problems + [f"stdout is not JSON: {exc}"]
    if doc.get("verdict") != verdict:
        problems.append(f"verdict {doc.get('verdict')!r}, expected {verdict!r}")
    return problems


def check_analyze(
    res: CliResult, code: int, verdict: str, processors: int
) -> list[str]:
    """analyze: exit code, verdict, one demand table per processor, and a
    feasible verdict backed by demand <= capacity at every printed point."""
    problems = check_verdict(res, code, verdict)
    if problems:
        return problems
    tables = json.loads(res.out)["per_processor_demand"]
    if len(tables) != processors:
        problems.append(f"{len(tables)} demand tables, expected {processors}")
    if verdict == "feasible":
        for table in tables:
            for point in table["points"]:
                if Fraction(point["demand"]) > Fraction(point["capacity"]):
                    problems.append(
                        f"processor {table['processor']}: demand {point['demand']} "
                        f"> capacity {point['capacity']} at t={point['t']}, "
                        "yet the verdict is feasible"
                    )
                    return problems
    return problems


def check_simulate(res: CliResult, code: int, misses: int) -> list[str]:
    """simulate: exit code, the CSV header and the ``# misses=`` count."""
    problems = _code_problems(res, code)
    lines = res.out.splitlines()
    if not lines or lines[0] != "processor,task,subtask,start,end":
        problems.append("missing the interval CSV header")
    found = [ln for ln in lines if ln.startswith("# misses=")]
    if found != [f"# misses={misses}"]:
        problems.append(f"miss lines {found}, expected ['# misses={misses}']")
    return problems


# ---------------------------------------------------------------- family

FAMILY_GRID = ((10, 10, 2), (40, 40, 2), (64, 64, 2))
FAMILY_SIZE = 64


def theorem_bound(m: int, n: int, k: Fraction) -> Fraction:
    """min((1 - 1/K) M, N - (N - 1)/K), computed here, not by the program."""
    return min((1 - 1 / k) * m, n - Fraction(n - 1) / k)


def check_sweep(res: CliResult, grid=FAMILY_GRID) -> list[str]:
    """sweep: one row per grid point, read by column name.

    The feasible end of the threshold is ``s_star_hi`` (``s_star`` once the
    threshold is exact); only its relation to the bound is checked, so the
    bracket's precision and format may change.
    """
    problems = _code_problems(res, 0)
    rows = list(csv.DictReader(io.StringIO(res.out)))
    if len(rows) != len(grid):
        return problems + [f"{len(rows)} sweep rows, expected {len(grid)}"]
    for row, (m, n, k) in zip(rows, grid):
        where = f"sweep row M={m} N={n} K={k}"
        try:
            if (int(row["M"]), int(row["N"]), Fraction(row["K"])) != (m, n, k):
                problems.append(f"{where}: row is for {row['M']},{row['N']},{row['K']}")
                continue
            bound = theorem_bound(m, n, Fraction(k))
            if Fraction(row["theorem_bound"]) != bound:
                problems.append(f"{where}: theorem_bound {row['theorem_bound']} != {bound}")
            if row["optimal_feasible_at_1"] != "true":
                problems.append(f"{where}: optimal_feasible_at_1 is {row['optimal_feasible_at_1']}")
            feasible_end = row.get("s_star_hi") or row.get("s_star")
            if feasible_end is None or Fraction(feasible_end) < bound:
                problems.append(f"{where}: threshold {feasible_end} below the bound {bound}")
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{where}: unreadable ({exc!r})")
    return problems


def family(fs: SimpleNamespace, inputs: Path, seed: int) -> list[Op]:
    """The paper's adversarial family, one-shot tasks only; the seed is unused."""
    path = str(inputs / f"family-{FAMILY_SIZE}.json")
    size = str(FAMILY_SIZE)
    res = run_cli(fs, ["generate", "--M", size, "--N", size, "--K", "2", "-o", path])
    if res.code != 0:
        raise BenchError(f"generate failed: {res.err.strip()}")
    grid = ";".join(",".join(map(str, p)) for p in FAMILY_GRID)
    at = ["-i", path, "--processors", size]
    return [
        cli_op(fs, ["sweep", "--grid", grid], check_sweep),
        cli_op(fs, ["analyze", *at, "--speed", "1"],
               partial(check_analyze, code=0, verdict="feasible", processors=FAMILY_SIZE)),
        cli_op(fs, ["federate", *at, "--speed", "63"],
               partial(check_verdict, code=0, verdict="feasible")),
        cli_op(fs, ["simulate", *at, "--speed", "1"],
               partial(check_simulate, code=0, misses=0)),
    ]


# ------------------------------------------------------------- recurring

# (wcet, deadline, period): hyperperiod 17017, demand-scan horizon 34046
RECURRING_TASKS = ((1, 6, 7), (2, 10, 11), (2, 12, 13), (2, 8, Fraction(17, 2)))


def recurring(fs: SimpleNamespace, inputs: Path, seed: int) -> list[Op]:
    """Four single-subtask recurring tasks on one processor; the seed is unused."""
    m = fs.model
    tasks = tuple(
        m.DagTask(id=i, wcet_total=w, deadline=d, period=p, subtasks=(m.Subtask(1, w),))
        for i, (w, d, p) in enumerate(RECURRING_TASKS, start=1)
    )
    path = str(inputs / "recurring.json")
    fs.taskio.save_task_set(m.TaskSet("recurring", tasks), path)
    at = ["-i", path, "--speed", "1", "--processors", "1"]
    return [
        cli_op(fs, ["analyze", *at],
               partial(check_analyze, code=0, verdict="feasible", processors=1)),
        cli_op(fs, ["federate", *at], partial(check_verdict, code=0, verdict="feasible")),
        cli_op(fs, ["simulate", *at], partial(check_simulate, code=0, misses=0)),
    ]


# --------------------------------------------------------- random-oracle

ORACLE_SETS = 200
ORACLE_TASKS = 5
ORACLE_CONFIGS = tuple(
    (m, Fraction(s)) for m in (2, 3, 4) for s in ("1", "3/2", "2", "5/2", "3")
)
VERDICTS_FILE = HERE / "oracle_verdicts.txt"


def load_expected(path: Path = VERDICTS_FILE) -> dict[int, tuple[str, str]]:
    """Recorded verdicts: instance seed -> (allocator bits, oracle bits)."""
    expected = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                seed, alloc, oracle = line.split()
                expected[int(seed)] = (alloc, oracle)
    return expected


def oracle_instance(fs: SimpleNamespace, seed: int):
    """``random_task_set(seed, 5)`` with every period stripped (one-shot)."""
    ts = fs.generate.random_task_set(seed, n_tasks=ORACLE_TASKS)
    tasks = tuple(dataclasses.replace(t, period=None) for t in ts.tasks)
    return dataclasses.replace(ts, tasks=tasks)


def decide(fs: SimpleNamespace, ts) -> list:
    """Allocator and oracle verdicts at every (m, speed) configuration.

    A decision that raises is recorded as its exception, so the rest of
    the set is still decided.
    """
    verdicts: list = []
    for processors, speed in ORACLE_CONFIGS:
        plat = fs.model.Platform(processors, speed)
        try:
            result = fs.federated.allocate_federated(ts, plat)
            allocated = not isinstance(result, fs.federated.Infeasible)
            verdicts.append((allocated, fs.explore.brute_force_federated_oracle(ts, plat)))
        except Exception as exc:  # counted as one failed decision
            verdicts.append(exc)
    return verdicts


def decide_file(fs: SimpleNamespace, path: str) -> list:
    ts = fs.taskio.read_task_set(path)
    violations = fs.model.validate_task_set(ts)
    if violations:
        raise ValueError(f"{path}: invalid task set: {violations[0]}")
    return decide(fs, ts)


def check_decisions(verdicts: list, expected: tuple[str, str]) -> list[str]:
    """One message per decision that raised, broke allocator-feasible =>
    oracle-feasible, or differs from the verdict recorded on the seed code."""
    problems = []
    for i, got in enumerate(verdicts):
        m, speed = ORACLE_CONFIGS[i]
        where = f"m={m} speed={speed}"
        if isinstance(got, Exception):
            problems.append(f"{where}: raised {got!r}")
            continue
        allocated, oracle = got
        want = (expected[0][i] == "1", expected[1][i] == "1")
        if allocated and not oracle:
            problems.append(f"{where}: allocator feasible but oracle infeasible")
        elif (allocated, oracle) != want:
            problems.append(f"{where}: verdicts {(allocated, oracle)}, recorded {want}")
    return problems


def random_oracle(fs: SimpleNamespace, inputs: Path, seed: int) -> list[Op]:
    """200 instances drawn by ``seed`` from the recorded pool, one op each."""
    expected = load_expected()
    chosen = sorted(random.Random(seed).sample(sorted(expected), ORACLE_SETS))
    ops = []
    for s in chosen:
        path = str(inputs / f"random-{s}.json")
        fs.taskio.save_task_set(oracle_instance(fs, s), path)
        ops.append(
            Op("decisions", len(ORACLE_CONFIGS), partial(decide_file, fs, path),
               partial(check_decisions, expected=expected[s]))
        )
    return ops


WORKLOADS = {
    "family": family,
    "recurring": recurring,
    "random-oracle": random_oracle,
}
