"""Command-line interface.

Machine-readable results (JSON or CSV) go to stdout; human-readable
summaries go to stderr, so scripts can parse one stream only.  Every
number in machine output is an exact rational-string; no floating point
ever appears.

Exit status: 0 = success / positive verdict; 1 = negative verdict
(infeasible, invalid, deadline misses) delivered normally; 2 = usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .explore import speedup_sweep
from .feasibility import (
    _assigned,
    _demand_table,
    _tick_items,
    partition_by_subtask_index,
    partitioned_feasible,
)
from .federated import Infeasible, allocate_federated
from .generate import CounterexampleParams, build_counterexample
from .model import Platform, TaskSet, validate_task_set
from .rational import format_rational, format_ticks, parse_rational
from .simulate import _simulate_ticks
from .taskio import dump_task_set, read_task_set, save_task_set


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsched",
        description=(
            "Schedulability analysis and exact simulation for sporadic DAG "
            "task systems on identical multiprocessors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="write an adversarial task set for given (M, N, K)"
    )
    gen.add_argument("--M", dest="m", type=int, required=True,
                     help="platform size the family targets (integer >= 2)")
    gen.add_argument("--N", dest="n", type=int, required=True,
                     help="number of tasks (integer >= 2)")
    gen.add_argument("--K", dest="k", required=True,
                     help="deadline growth ratio (rational >= 2, e.g. 2 or 5/2)")
    gen.add_argument("-o", "--output", default=None,
                     help="output file (default: stdout)")
    gen.set_defaults(handler=_cmd_generate)

    val = sub.add_parser("validate", help="check a task-set file's invariants")
    val.add_argument("-i", "--input", required=True, help="task-set file")
    val.set_defaults(handler=_cmd_validate)

    ana = sub.add_parser(
        "analyze",
        help="partitioned demand-bound feasibility test (subtask k on processor k)",
    )
    _add_platform_args(ana)
    ana.set_defaults(handler=_cmd_analyze)

    fed = sub.add_parser("federate", help="run the federated allocator")
    _add_platform_args(fed)
    fed.set_defaults(handler=_cmd_federate)

    sim = sub.add_parser(
        "simulate",
        help="simulate partitioned EDF (subtask k on processor k) and report the trace",
    )
    _add_platform_args(sim)
    sim.add_argument("--horizon", default=None,
                     help="release cutoff for recurring tasks (rational; "
                          "default: the demand-scan horizon)")
    sim.set_defaults(handler=_cmd_simulate)

    swp = sub.add_parser(
        "sweep", help="compute the allocator's exact threshold speed across a grid"
    )
    swp.add_argument("--grid", required=True,
                     help="semicolon-separated M,N,K triples, e.g. '10,10,2;4,4,2'")
    swp.set_defaults(handler=_cmd_sweep)
    return parser


def _add_platform_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-i", "--input", required=True, help="task-set file")
    sub.add_argument("--speed", required=True,
                     help="processor speed (rational, e.g. 1 or 4999/1000)")
    sub.add_argument("--processors", type=int, required=True,
                     help="number of processors")


def _require_valid(ts: TaskSet) -> None:
    violations = validate_task_set(ts)
    if violations:
        more = f" (+{len(violations) - 1} more)" if len(violations) > 1 else ""
        raise ValueError(f"invalid task set: {violations[0]}{more}")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# analyze's document as _emit lays it out.  Its shape is fixed and it holds
# only ints and rational-strings, which need no escaping, so it is written
# from these templates without the JSON encoder walking every point.
_ANALYZE_DOC = (
    '{{\n  "verdict": "{}",\n  "speed": "{}",\n  "processors": {},\n'
    '  "per_processor_demand": {}\n}}\n'
)
_TABLE = '    {{\n      "processor": {},\n      "points": {}\n    }}'
_POINT = (
    '        {{\n          "t": "{}",\n          "demand": "{}",\n'
    '          "capacity": "{}"\n        }}'
)


def _json_list(entries: list[str], indent: str) -> str:
    """A JSON list of already encoded ``entries`` as ``json.dump(indent=2)``
    lays it out, closing at ``indent``."""
    if not entries:
        return "[]"
    return "[\n" + ",\n".join(entries) + f"\n{indent}]"


def _cmd_generate(args: argparse.Namespace) -> int:
    params = CounterexampleParams(args.m, args.n, parse_rational(args.k))
    ts = build_counterexample(params)
    if args.output is None:
        dump_task_set(ts, sys.stdout)
    else:
        save_task_set(ts, args.output)
    print(f"{ts.name}: wrote {len(ts)} tasks", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ts = read_task_set(args.input)
    violations = validate_task_set(ts)
    _emit(
        {
            "verdict": "valid" if not violations else "invalid",
            "violations": violations,
        }
    )
    if violations:
        print(f"{ts.name}: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"{ts.name}: valid", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    ts = read_task_set(args.input)
    _require_valid(ts)
    plat = Platform(args.processors, parse_rational(args.speed))
    pa = partition_by_subtask_index(ts, plat.processors)
    feasible = partitioned_feasible(ts, pa, plat)
    verdict = "feasible" if feasible else "infeasible"
    speed = format_rational(plat.speed)
    # t and demand in ticks of 1/S; the capacity (p/q)*t as p*t ticks of 1/(q*S)
    scale = ts._ticks.scale
    p, wide = plat.speed.numerator, scale * plat.speed.denominator
    tables = []
    for proc, placed in sorted(_assigned(ts, pa).items()):
        points = [
            _POINT.format(
                format_ticks(t, scale),
                format_ticks(demand, scale),
                format_ticks(p * t, wide),
            )
            for t, demand in _demand_table(_tick_items(ts, placed), scale)
        ]
        tables.append(_TABLE.format(proc, _json_list(points, "      ")))
    sys.stdout.write(
        _ANALYZE_DOC.format(verdict, speed, plat.processors, _json_list(tables, "  "))
    )
    print(
        f"{ts.name}: {verdict} at speed {speed} on {plat.processors} processor(s)",
        file=sys.stderr,
    )
    return 0 if feasible else 1


def _cmd_federate(args: argparse.Namespace) -> int:
    ts = read_task_set(args.input)
    _require_valid(ts)
    plat = Platform(args.processors, parse_rational(args.speed))
    result = allocate_federated(ts, plat)
    if isinstance(result, Infeasible):
        _emit(
            {
                "verdict": "infeasible",
                "reason": result.reason,
                "processors_needed": result.processors_needed,
                "demand_lower_bound": result.demand_lower_bound,
            }
        )
        print(f"{ts.name}: infeasible ({result.reason})", file=sys.stderr)
        return 1
    _emit(
        {
            "verdict": "feasible",
            "heavy_grants": {
                str(tid): size for tid, size in sorted(result.heavy_grants.items())
            },
            "light_partition": {
                str(tid): proc
                for tid, proc in sorted(result.light_partition.items())
            },
            "total_processors_used": result.total_processors_used,
        }
    )
    print(
        f"{ts.name}: feasible, {result.total_processors_used} of "
        f"{plat.processors} processor(s) used",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    ts = read_task_set(args.input)
    _require_valid(ts)
    plat = Platform(args.processors, parse_rational(args.speed))
    horizon = None if args.horizon is None else parse_rational(args.horizon)
    pa = partition_by_subtask_index(ts, plat.processors)
    scale, _, runs, missed = _simulate_ticks(ts, pa, plat, horizon)
    lines = ["processor,task,subtask,start,end"]
    lines += [
        f"{proc},{task},{subtask},"
        f"{format_ticks(start, scale)},{format_ticks(end, scale)}"
        for proc, task, subtask, start, end in runs
    ]
    lines.append(f"# misses={len(missed)}")
    lines += [
        f"# miss,{task},{format_ticks(deadline, scale)},{format_ticks(done, scale)}"
        for deadline, task, done in missed
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    makespan = max((run[4] for run in runs), default=0)
    print(
        f"{ts.name}: {len(runs)} interval(s), "
        f"{len(missed)} miss(es), makespan {format_ticks(makespan, scale)}",
        file=sys.stderr,
    )
    return 0 if not missed else 1


def _parse_grid(spec: str) -> list[CounterexampleParams]:
    grid = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 3:
            raise ValueError(f"grid entry {chunk!r}: expected M,N,K")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"grid entry {chunk!r}: M and N must be integers"
            ) from None
        grid.append(CounterexampleParams(m, n, parse_rational(parts[2])))
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    rows = speedup_sweep(grid)
    print("M,N,K,theorem_bound,s_star,optimal_feasible_at_1")
    for row in rows:
        print(
            ",".join(
                [
                    str(row.processors),
                    str(row.n_tasks),
                    format_rational(row.ratio),
                    format_rational(row.speedup_bound),
                    format_rational(row.min_speed),
                    "true" if row.optimal_feasible_at_1 else "false",
                ]
            )
        )
    print(f"swept {len(rows)} instance(s)", file=sys.stderr)
    return 0
