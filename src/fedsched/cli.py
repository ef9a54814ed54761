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
import functools
import json
import re
import sys
from math import gcd

from .explore import speedup_sweep
from .feasibility import (
    _demand_table,
    _groups_feasible,
    _horizon,
    _partition,
    _tick_items,
    partition_by_subtask_index,
)
from .federated import Infeasible, allocate_federated
from .generate import CounterexampleParams, build_counterexample
from .model import Platform, TaskSet, validate_task_set
from .rational import _ticks_texts, format_rational, format_ticks, parse_rational
from .simulate import _simulate_ticks
from .taskio import dump_task_set, read_task_set, save_task_set


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept: parsing
    leaves it as it was, and it writes to the streams of the moment."""
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
    gen.add_argument("--M", dest="m", type=_integer, required=True,
                     help="platform size the family targets (integer >= 2)")
    gen.add_argument("--N", dest="n", type=_integer, required=True,
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
    sub.add_argument("--processors", type=_integer, required=True,
                     help="number of processors")


def _integer(text: str) -> int:
    """An integer argument in the rational grammar's signed digits, where
    ``int()`` alone would also take "1_0", " 7" or other scripts' digits."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _platform_input(args: argparse.Namespace) -> tuple[TaskSet, Platform]:
    """The task set of ``--input``, refused unless valid, and the platform
    of ``--processors`` and ``--speed``."""
    ts = read_task_set(args.input)
    _require_valid(ts)
    return ts, Platform(args.processors, parse_rational(args.speed))


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
# piece by piece from these templates, with no JSON encoder walking every
# point and no copy of the whole document.
_ANALYZE_HEAD = (
    '{{\n  "verdict": "{}",\n  "speed": "{}",\n  "processors": {},\n'
    '  "per_processor_demand": ['
)
_TABLE = '{}\n    {{\n      "processor": {},\n      "points": '
# one processor's points, written a column at a time: the pieces of the
# layout before the first t, between a point's values, between two points
# and after the last capacity
_POINTS_OPEN = '[\n        {\n          "t": "'
_DEMAND = '",\n          "demand": "'
_CAPACITY = '",\n          "capacity": "'
_NEXT_POINT = '"\n        },\n        {\n          "t": "'
_POINTS_CLOSE = '"\n        }\n      ]'


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
    ts, plat = _platform_input(args)
    groups = _partition(ts, partition_by_subtask_index(ts, plat.processors), plat)
    feasible = _groups_feasible(ts, groups, plat)
    verdict = "feasible" if feasible else "infeasible"
    speed = format_rational(plat.speed)
    # t and demand in ticks of 1/S; the capacity (p/q)*t as p*t ticks of 1/(q*S)
    scale = ts._ticks.scale
    p, q = plat.speed.numerator, plat.speed.denominator
    # each job shape's points once, written for each of its processors; held
    # only by ``texts``, a shape's text goes with its last processor's table
    texts = {}
    for procs in groups.values():
        text = _points_text(_tick_items(ts, procs[0][1]), scale, p, q)
        texts.update(dict.fromkeys([proc for proc, _ in procs], text))
    order = sorted(texts)
    write = sys.stdout.write
    write(_ANALYZE_HEAD.format(verdict, speed, plat.processors))
    for n, proc in enumerate(order):
        write(_TABLE.format("\n    }," if n else "", proc))
        write(texts.pop(proc))
    write("\n    }\n  ]\n}\n" if order else "]\n}\n")
    print(
        f"{ts.name}: {verdict} at speed {speed} on {plat.processors} processor(s)",
        file=sys.stderr,
    )
    return 0 if feasible else 1


def _points_text(
    items: list[tuple[int, int, int | None]], scale: int, p: int, q: int
) -> str:
    """The points of a processor with int ``items`` on tick ``1/scale`` at
    speed p/q, as analyze writes them, in one join: the template's pieces
    with a slot per value, each column formatted straight into its slots,
    so that no column is held beside the text."""
    steps = _demand_table(items, _horizon(items, scale), scale)
    # every placed processor has a step, so there is a first point
    parts = [_NEXT_POINT, None, _DEMAND, None, _CAPACITY, None] * len(steps)
    parts.append(_POINTS_CLOSE)
    parts[0] = _POINTS_OPEN
    parts[1::6] = _ticks_texts([t for t, _ in steps], scale)
    parts[3::6] = _ticks_texts([demand for _, demand in steps], scale)
    # at speed 1 (p == q) the capacity column is the t column
    wide = scale * q
    parts[5::6] = parts[1::6] if p == q else _ticks_texts((p * t for t, _ in steps), wide)
    del steps  # the step dict goes before the text is built
    return "".join(parts)


def _cmd_federate(args: argparse.Namespace) -> int:
    ts, plat = _platform_input(args)
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
    ts, plat = _platform_input(args)
    horizon = None if args.horizon is None else parse_rational(args.horizon)
    groups = _partition(ts, partition_by_subtask_index(ts, plat.processors), plat)
    scale, _, blocks, missed = _simulate_ticks(ts, groups, plat, horizon)
    lines = ["processor,task,subtask,start,end", *_interval_lines(blocks, scale)]
    count = len(lines) - 1
    lines.append(f"# misses={len(missed)}")
    lines += [
        f"# miss,{task},{format_ticks(deadline, scale)},{format_ticks(done, scale)}"
        for deadline, task, done in missed
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    # a block's runs are in time order, and its last ends latest
    makespan = max((runs[-1][4] + shift for _, runs, shift, _ in blocks), default=0)
    print(
        f"{ts.name}: {count} interval(s), "
        f"{len(missed)} miss(es), makespan {format_ticks(makespan, scale)}",
        file=sys.stderr,
    )
    return 0 if not missed else 1


class _Filled(dict):
    """A dict that fills in a missing key with ``make(key)``."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _interval_lines(blocks: list, scale: int) -> list[str]:
    """simulate's CSV line for each run of the blocks of
    :func:`fedsched.simulate._simulate_ticks`, in ticks of ``1/scale``,
    each time as :func:`format_ticks` writes it.  A processor's line head
    is made once per task and subtask id, and a time v is written as
    ``v // g`` and ``"/den"`` from the gcd g of the scale and v's residue
    ``v % scale``, kept per residue (g is the scale and "/den" empty on a
    whole time), with no gcd per time."""
    fracs = _Filled(lambda r: (gcd(r, scale), f"/{scale // gcd(r, scale)}"))
    fracs[0] = (scale, "")
    lines = []
    heads, now = {}, None
    for proc, runs, shift, sids in blocks:
        if proc != now:
            heads, now = {}, proc
        for _, task, subtask, start, end in runs:
            head = heads.get((task, subtask))
            if head is None:
                head = heads[task, subtask] = f"{proc},{task},{sids[task] if sids else subtask},"
            start += shift
            end += shift
            if scale == 1:
                lines.append(f"{head}{start},{end}")
            else:
                g, a = fracs[start % scale]
                h, b = fracs[end % scale]
                lines.append(f"{head}{start // g}{a},{end // h}{b}")
    return lines


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
            m, n = _integer(parts[0]), _integer(parts[1])
        except argparse.ArgumentTypeError:
            raise ValueError(
                f"grid entry {chunk!r}: M and N must be integers"
            ) from None
        grid.append(CounterexampleParams(m, n, parse_rational(parts[2])))
    if not grid:
        raise ValueError(f"grid {spec!r} holds no M,N,K triple")
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
