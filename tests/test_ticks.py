"""The integer time base against the Fraction code it replaced.

The allocator, the demand engine, the oracle and the list scheduler run on
int ticks of one task set (``TaskSet._ticks``).  ``reference.py`` keeps
the same layers on ``Fraction`` arithmetic: every test here requires
identical results, exceptions included, on random sets with non-integer
times (so the tick is finer than 1) and speeds p/q with p and q both
above 1.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import fedsched.feasibility
from fedsched.explore import brute_force_federated_oracle
from fedsched.feasibility import demand_profile, uniprocessor_edf_feasible
from fedsched.federated import Infeasible, allocate_federated
from fedsched.model import DagTask, Platform, Subtask, TaskSet
from fedsched.simulate import simulate_list_schedule
from reference import (
    ref_allocate,
    ref_demand_profile,
    ref_first_violation,
    ref_list_schedule,
    ref_oracle,
)

# --- random inputs ----------------------------------------------------------

WCET_DENOMINATORS = (1, 2, 3, 6)
PERIODS = (Fraction(17, 2), Fraction(7, 3), Fraction(4), Fraction(5, 2), Fraction(13, 6))
SPEEDS = (
    Fraction(1),
    Fraction(999, 1000),
    Fraction(7, 3),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(4),
    Fraction(1, 2),
)


def random_task(rng, tid, recurring):
    def wcet():
        # now and then a zero wcet: a subtask that runs for no time
        lowest = 0 if rng.random() < 0.05 else 1
        return Fraction(rng.randint(lowest, 8), rng.choice(WCET_DENOMINATORS))

    n = rng.randint(1, 5)
    subtasks = tuple(Subtask(j, wcet()) for j in range(1, n + 1))
    edges = tuple(
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.3
    )
    task = DagTask(tid, sum(st.wcet for st in subtasks), 1, None, subtasks, edges)
    # a deadline from half the critical path (no cluster can help) up
    deadline = task.span * rng.choice((Fraction(1, 2), 1, Fraction(5, 6), 2)) + Fraction(
        rng.randint(0, 12), 6
    )
    period = None
    if recurring and rng.random() < 0.6:
        period = rng.choice(PERIODS) * rng.randint(1, 4)
        deadline = min(deadline, period) if rng.random() < 0.7 else deadline
    return DagTask(tid, task.wcet_total, deadline, period, subtasks, edges)


def random_set(rng, recurring):
    n = rng.randint(1, 5)
    return TaskSet("r", tuple(random_task(rng, tid, recurring) for tid in range(1, n + 1)))


def outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# --- the differential tests -------------------------------------------------


def test_allocator_and_oracle_match_the_fraction_reference():
    rng = random.Random(3)
    kinds = Counter()
    for n in range(1200):
        ts = random_set(rng, recurring=n % 2 == 0)
        assert ts._ticks.scale == math.lcm(
            *(v.denominator for t in ts for v in (t.deadline, t.period) if v is not None),
            *(st.wcet.denominator for t in ts for st in t.subtasks),
        )
        for _ in range(2):
            plat = Platform(rng.randint(1, 4), rng.choice(SPEEDS))
            got, want = allocate_federated(ts, plat), ref_allocate(ts, plat)
            assert got == want, (n, plat)
            if isinstance(got, Infeasible):
                kinds[got.reason.split(":")[0].split(" ")[0]] += 1
                assert got.retry_speed is None or type(got.retry_speed) is Fraction
            else:
                kinds["allocated"] += 1
            oracle = brute_force_federated_oracle(ts, plat)
            assert oracle is ref_oracle(ts, plat), (n, plat)
            kinds[f"oracle {oracle}"] += 1
            p, q = plat.speed.numerator, plat.speed.denominator
            kinds["p, q > 1" if p > 1 and q > 1 else "p or q = 1"] += 1
        kinds["recurring" if any(t.period for t in ts) else "one-shot"] += 1
        kinds["tick > 1" if ts._ticks.scale > 1 else "tick 1"] += 1
    # the three ways to fail: a critical path no cluster can carry ("task"),
    # heavy clusters alone ("heavy") and a light task that does not fit
    for kind in ("allocated", "task", "heavy", "light", "oracle True", "oracle False",
                 "p, q > 1", "p or q = 1", "recurring", "one-shot", "tick > 1"):
        assert kinds[kind] >= 150, kinds


def test_list_schedule_matches_the_fraction_reference():
    rng = random.Random(5)
    kinds = Counter()
    for n in range(1500):
        task = random_task(rng, 1, recurring=False)
        m, speed = rng.randint(1, 4), rng.choice(SPEEDS)
        got, want = simulate_list_schedule(task, m, speed), ref_list_schedule(task, m, speed)
        assert got == want, (n, m, speed)
        assert all(type(x) is Fraction for iv in got.intervals for x in (iv.start, iv.end))
        kinds["miss" if got.misses else "on time"] += 1
        kinds["edges" if task.edges else "no edges"] += 1
        kinds[f"m={m}"] += 1
    assert min(kinds.values()) >= 100, kinds


def one_shot_ties(rng):
    """One-shot items sharing a few deadlines, zero works among them."""
    deadlines = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(2)]
    return [
        (Fraction(rng.choice((0, rng.randint(0, 8))), rng.choice(WCET_DENOMINATORS)),
         rng.choice(deadlines), None)
        for _ in range(rng.randint(2, 6))
    ]


def test_demand_test_matches_the_fraction_reference(monkeypatch):
    # a small step limit keeps the Fraction reference quick and makes the
    # limit's message, horizon included, part of the comparison
    monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 100)
    kinds = Counter()

    def check(items, speed, used):
        got = outcome(uniprocessor_edf_feasible, items, speed)
        want = outcome(lambda: ref_first_violation(items, speed) is None)
        assert got == want, (items, speed)
        # the engine's pair on ticks, scaled back: (demand, t) at the first
        # violation, or the utilization U as a ratio when U > speed
        scale, ticks = fedsched.feasibility._scaled(items)
        pair = outcome(
            fedsched.feasibility._first_violation,
            ticks, speed.numerator, speed.denominator, scale,
        )
        want_pair = outcome(ref_first_violation, items, speed)
        if pair is None or type(pair[0]) is not int:  # passed, or refused
            assert pair == want_pair, (items, speed)
        elif used > speed:
            assert want_pair == (used, 1) and Fraction(*pair) == used
        else:
            assert (Fraction(pair[0], scale), Fraction(pair[1], scale)) == want_pair
        profile = outcome(demand_profile, items)
        want_profile = outcome(ref_demand_profile, items)
        if isinstance(profile, tuple):
            assert profile == want_profile
            kinds["profile refused"] += 1
        else:
            assert profile.breakpoints == want_profile
            kinds["profile"] += 1
        kinds[{True: "feasible", False: "infeasible"}.get(got, "verdict refused")] += 1
        kinds["recurring" if any(p for _, _, p in items) else "one-shot"] += 1
        if not any(p for _, _, p in items):
            deadlines = [d for _, d, _ in items]
            kinds["one-shot tie"] += len(set(deadlines)) < len(deadlines)
            kinds["one-shot violation"] += got is False

    rng = random.Random(7)
    for n in range(3000):
        items = []
        for _ in range(rng.randint(0, 5)):
            work = Fraction(rng.randint(0, 12), rng.choice(WCET_DENOMINATORS))
            deadline = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 6)))
            period = rng.choice(PERIODS) * rng.randint(1, 6) if rng.random() < 0.5 else None
            items.append((work, deadline, period))
        speed = rng.choice(SPEEDS)
        used = sum(w / p for w, _, p in items if p is not None)
        if used > 0 and rng.random() < 0.4:
            # utilization at the speed: the scan runs to the full horizon;
            # just below it: the L_a bound lies far out
            speed = used + rng.choice((0, used / 97))
        check(items, speed, used)
    rng = random.Random(8)
    for _ in range(600):
        check(one_shot_ties(rng), rng.choice(SPEEDS), 0)
    assert min(kinds.values()) >= 100, kinds


def test_ticks_are_built_once_per_task_set():
    ts = random_set(random.Random(11), recurring=True)
    assert ts._ticks is ts._ticks
    brute_force_federated_oracle(ts, Platform(2, Fraction(1)))
    makespans = dict(ts._ticks.makespans)
    assert makespans  # the oracle's list schedules are kept, in unit-speed ticks
    brute_force_federated_oracle(ts, Platform(2, Fraction(7, 3)))
    assert ts._ticks.makespans.items() >= makespans.items()
