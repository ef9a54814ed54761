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
    demand_profile,
    partition_by_subtask_index,
    partitioned_feasible,
    processor_items,
)
from .federated import Infeasible, allocate_federated
from .generate import CounterexampleParams, build_counterexample
from .model import Platform, TaskSet, validate_task_set
from .rational import format_rational, parse_rational
from .simulate import simulate_partitioned_edf
from .taskio import dump_task_set, read_task_set


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


def _cmd_generate(args: argparse.Namespace) -> int:
    params = CounterexampleParams(args.m, args.n, parse_rational(args.k))
    ts = build_counterexample(params)
    if args.output is None:
        dump_task_set(ts, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            dump_task_set(ts, fh)
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
    table = []
    for proc, items in sorted(processor_items(ts, pa).items()):
        points = [
            {
                "t": format_rational(t),
                "demand": format_rational(demand),
                "capacity": format_rational(plat.speed * t),
            }
            for t, demand in demand_profile(items).breakpoints
        ]
        table.append({"processor": proc, "points": points})
    _emit(
        {
            "verdict": "feasible" if feasible else "infeasible",
            "speed": format_rational(plat.speed),
            "processors": plat.processors,
            "per_processor_demand": table,
        }
    )
    print(
        f"{ts.name}: {'feasible' if feasible else 'infeasible'} at speed "
        f"{format_rational(plat.speed)} on {plat.processors} processor(s)",
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
    trace = simulate_partitioned_edf(ts, pa, plat, horizon=horizon)
    print("processor,task,subtask,start,end")
    for iv in trace.intervals:
        print(
            f"{iv.processor},{iv.task},{iv.subtask},"
            f"{format_rational(iv.start)},{format_rational(iv.end)}"
        )
    print(f"# misses={len(trace.misses)}")
    for miss in trace.misses:
        completion = (
            "unfinished" if miss.completion is None else format_rational(miss.completion)
        )
        print(f"# miss,{miss.task},{format_rational(miss.deadline)},{completion}")
    print(
        f"{ts.name}: {len(trace.intervals)} interval(s), "
        f"{len(trace.misses)} miss(es), makespan {format_rational(trace.makespan)}",
        file=sys.stderr,
    )
    return 0 if not trace.misses else 1


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
