"""The integer time base against the Fraction code it replaced.

Validation, the allocator, the demand engine, the oracle and the list
scheduler run on int ticks of one task set (``TaskSet._ticks``).  ``reference.py`` keeps
the same layers on ``Fraction`` arithmetic: every test here requires
identical results, exceptions included, on random sets with non-integer
times (so the tick is finer than 1) and speeds p/q with p and q both
above 1.
"""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import fedsched.feasibility
from fedsched.explore import _fewest_processors, brute_force_federated_oracle
from fedsched.feasibility import demand_profile, uniprocessor_edf_feasible
from fedsched.federated import Infeasible, allocate_federated
from fedsched.generate import random_task_set
from fedsched.model import DagTask, Platform, Subtask, TaskSet, validate_task_set
from fedsched.simulate import simulate_list_schedule
from reference import (
    of_task,
    ref_allocate,
    ref_demand_profile,
    ref_first_violation,
    ref_la_numerator,
    ref_list_schedule,
    ref_oracle,
    ref_refusal,
    ref_validate,
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
            p, q = plat.speed.numerator, plat.speed.denominator
            kinds["p, q > 1" if p > 1 and q > 1 else "p or q = 1"] += 1
            # outside the oracle's domain every call is refused, with the
            # first task outside it named
            oracle = outcome(brute_force_federated_oracle, ts, plat)
            refusal = ref_refusal(ts)
            if refusal is not None:
                assert oracle == (ValueError, refusal), (n, plat)
                kinds["oracle refused"] += 1
                continue
            assert oracle is ref_oracle(ts, plat), (n, plat)
            kinds[f"oracle {oracle}"] += 1
            heavy = {q * work > p * deadline for work, deadline, _ in ts._ticks.items}
            if oracle and True in heavy:
                # a heavy task can only run on a cluster: the mixed search
                kinds["oracle True, heavy"] += 1
                kinds["oracle True, heavy and light"] += heavy == {True, False}
        kinds["recurring" if any(t.period for t in ts) else "one-shot"] += 1
        kinds["tick > 1" if ts._ticks.scale > 1 else "tick 1"] += 1
    # the three ways to fail: a critical path no cluster can carry ("task"),
    # heavy clusters alone ("heavy") and a light task that does not fit
    for kind in ("allocated", "task", "heavy", "light", "oracle True", "oracle False",
                 "oracle refused", "p, q > 1", "p or q = 1", "recurring", "one-shot",
                 "tick > 1"):
        assert kinds[kind] >= 150, kinds
    assert kinds["oracle True, heavy"] >= 100, kinds
    assert kinds["oracle True, heavy and light"] >= 60, kinds


def test_each_platform_size_reads_the_fraction_reference_from_one_run(monkeypatch):
    # one task set object per seed, decided at every (m, speed) pair in a
    # shuffled order, so most calls read the first-fit run an earlier call
    # at another m kept for their speed.  A small step limit makes some
    # scans raise: a count whose run stops at an earlier opening must
    # still get its verdict, and only the others raise
    monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 12)
    rng = random.Random(29)
    kinds = Counter()
    for n in range(300):
        ts = random_set(rng, recurring=n % 2 == 0)
        # each task's work/deadline, where it turns light
        speeds = {*SPEEDS, *(t.work / t.deadline for t in ts if t.work > 0 and t.deadline > 0)}
        configs = [(m, speed) for m in range(1, 9) for speed in speeds]
        rng.shuffle(configs)
        raised = Counter()
        for m, speed in configs:
            plat = Platform(m, speed)
            got = outcome(allocate_federated, ts, plat)
            assert got == outcome(ref_allocate, ts, plat), (n, plat)
            if isinstance(got, tuple):
                kinds["raise"] += 1
            elif isinstance(got, Infeasible):
                kinds[got.reason.split(" ")[0]] += 1
            else:
                kinds["allocated"] += 1
            raised[speed, isinstance(got, tuple)] += 1
        # a speed at which some counts raise and others get a verdict
        kinds["mixed"] += sum(raised[speed, True] < 8 for speed, hit in raised if hit)
    floors = {"allocated": 10000, "task": 9000, "heavy": 1500, "light": 1000,
              "raise": 150, "mixed": 15}
    assert all(kinds[kind] >= floor for kind, floor in floors.items()), kinds


def test_oracle_verdicts_kept_across_calls_match_the_fraction_reference(monkeypatch):
    # one task set decided on every platform in a shuffled order, so its
    # group verdicts kept from earlier calls decide later ones; inside the
    # oracle's domain each result must be the reference's on a fresh copy
    # of the set, and outside it every call must be the same refusal
    rng = random.Random(13)
    kinds = Counter()
    configs = [(m, speed) for m in range(1, 5) for speed in SPEEDS]

    def decide(ts, reference):
        refusal = ref_refusal(ts)
        rng.shuffle(configs)
        for m, speed in configs:
            plat = Platform(m, speed)
            got = outcome(brute_force_federated_oracle, ts, plat)
            if refusal is not None:
                assert got == (ValueError, refusal), (ts, plat)
                kinds["outside"] += 1
                continue
            assert got == outcome(reference, dataclasses.replace(ts), plat), (ts, plat)
            kinds[got if isinstance(got, bool) else "refused"] += 1

    for n in range(300):
        decide(random_set(rng, recurring=n % 2 == 0), ref_oracle)
    assert min(kinds[True], kinds[False]) >= 1000, kinds
    assert kinds["outside"] >= 500, kinds
    # a small step limit: below a speed where a recurring group failed, its
    # scan may look further and be refused, which its kept violation must
    # not hide.  The reference searches in another order, so it may meet a
    # refused group the oracle never scans: the oracle on a fresh copy is
    # the reference here.
    monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 12)
    for n in range(150):
        decide(random_set(rng, recurring=True), brute_force_federated_oracle)
    assert kinds["refused"] >= 50, kinds
    # a negative deadline lies outside the domain (the group would pass at
    # speed 1 and fail at 6 on the instant -1): refused at every speed
    ts = TaskSet("n", (
        DagTask(1, -5, -1, None, (Subtask(1, -5),)),
        DagTask(2, 10, 20, None, (Subtask(1, 10),)),
    ))
    for speed in (1, 6, 1):
        plat = Platform(1, Fraction(speed))
        got = outcome(brute_force_federated_oracle, ts, plat)
        assert got == (ValueError, "oracle refuses task 1: nonpositive deadline -1")


def test_the_oracle_keeps_each_one_shot_groups_least_speed():
    # the kept (a, b) is the least speed a/b at which the group's demand
    # test passes: the reference passes there and fails just below, so
    # neither a violation found at some speed nor a speed that happened
    # to pass will do.  Groups with a recurring task keep nothing, and a
    # set outside the oracle's domain keeps nothing at all.  The fewest
    # processors never scan a light task's solo group, so no one-member
    # group is kept; the last set's two zero-work tasks keep a least
    # speed 0 for their pair
    rng = random.Random(17)
    kinds = Counter()
    sets = [random_set(rng, recurring=n % 3 == 0 or n >= 300) for n in range(500)]
    sets.append(TaskSet("z", (
        DagTask(1, 0, 2, None, (Subtask(1, 0),)),
        DagTask(2, 0, 3, None, (Subtask(1, 0),)),
    )))
    for ts in sets:
        for m in range(1, 5):
            for speed in SPEEDS:
                outcome(brute_force_federated_oracle, ts, Platform(m, speed))
        if ref_refusal(ts) is not None:
            assert ts._ticks.groups == {}, ts
            kinds["outside"] += 1
        for mask, (a, b) in ts._ticks.groups.items():
            assert mask & (mask - 1), (ts, mask)  # two members or more
            items = [of_task(task) for i, task in enumerate(ts) if mask >> i & 1]
            assert all(period is None for _, _, period in items), (ts, mask)
            if a > 0:
                least = Fraction(a, b)
                assert ref_first_violation(items, least) is None, (ts, mask)
                below = least * Fraction(999999, 10**6)
                assert ref_first_violation(items, below) is not None, (ts, mask)
                kinds["several"] += 1
            else:
                assert ref_first_violation(items, Fraction(1, 10**6)) is None, (ts, mask)
                kinds["not positive"] += 1
    assert kinds["several"] >= 200, kinds
    assert kinds["outside"] >= 20, kinds
    assert kinds["not positive"] >= 1, kinds


def off_int_ids(task):
    """``task`` with every subtask id, and each edge endpoint, moved up by
    1/2: ids that are not ints."""
    def moved(sid):
        return sid + Fraction(1, 2)

    return dataclasses.replace(
        task,
        subtasks=tuple(Subtask(moved(st.id), st.wcet) for st in task.subtasks),
        edges=tuple((moved(a), moved(b)) for a, b in task.edges),
    )


# ways out of the oracle's domain; a zero wcet stays inside it
DOMAIN_KINDS = (
    "deadline > period", "nonpositive deadline", "zero wcet", "negative wcet",
    "cycle", "ids not ints", "duplicate subtask ids",
)
# what the oracle's refusal says of each way out
REFUSALS = {
    "deadline > period": "exceeds period",
    "nonpositive deadline": "nonpositive deadline",
    "negative wcet": "negative wcet",
    "cycle": "dependency cycle",
    "ids not ints": "is not an integer",
    "duplicate subtask ids": "duplicate subtask ids",
}


def broken(rng, ts, kind):
    """``ts`` with one task, drawn at random, broken in the way ``kind``
    of ``DOMAIN_KINDS`` names."""
    i = rng.randrange(len(ts))
    task = ts.tasks[i]
    if kind == "duplicate subtask ids" and len(task.subtasks) < 2:
        task = dataclasses.replace(task, subtasks=task.subtasks * 2)
    task = off_int_ids(task) if kind == "ids not ints" else mutated(rng, task, kind)
    return TaskSet(ts.name, ts.tasks[:i] + (task,) + ts.tasks[i + 1:])


def constrained(ts):
    """``ts`` with each recurring task's deadline cut to its period."""
    return TaskSet(ts.name, tuple(
        task if task.period is None or task.deadline <= task.period
        else dataclasses.replace(task, deadline=task.period)
        for task in ts
    ))


def test_the_fewest_processors_decide_the_oracle_inside_its_domain_only():
    # each set is decided on every platform in a shuffled order, so kept
    # needs answer later calls.  Outside the oracle's domain every call is
    # the reference's refusal.  Inside it every result must be the one a
    # fresh copy gives on its first call and the Fraction reference's,
    # and the fewest processors must be the least m the reference accepts,
    # or 5, and never rise with the speed.  Constrained recurring sets lie
    # inside the domain and keep no need.
    rng = random.Random(23)
    kinds = Counter()
    configs = [(m, speed) for m in range(1, 5) for speed in SPEEDS]

    def decide(kind, ts):
        refusal = ref_refusal(ts)
        kinds[f"{kind}, {'inside' if refusal is None else 'outside'}"] += 1
        if kind in REFUSALS and refusal is not None:
            kinds[f"{kind}, said"] += REFUSALS[kind] in refusal
        rng.shuffle(configs)
        accepted = {}
        for m, speed in configs:
            plat = Platform(m, speed)
            got = outcome(brute_force_federated_oracle, ts, plat)
            if refusal is not None:
                assert got == (ValueError, refusal), (ts, plat)
                kinds["refused"] += 1
                continue
            assert got == outcome(brute_force_federated_oracle, dataclasses.replace(ts), plat)
            assert got == outcome(ref_oracle, dataclasses.replace(ts), plat), (ts, plat)
            accepted[m, speed] = got
            kinds[got] += 1
        if refusal is not None:
            assert ts._ticks.refusal == refusal and ts._ticks.needs == []
            return
        recurring = any(task.period is not None for task in ts)
        assert ts._ticks.refusal == ""
        assert not ts._ticks.needs or not recurring, ts._ticks.needs
        needs = []
        for speed in sorted(SPEEDS):
            fresh = dataclasses.replace(ts)
            need = _fewest_processors(fresh, speed.numerator, speed.denominator)
            assert need == min([m for m in range(1, 5) if accepted[m, speed]], default=5)
            needs.append(need)
        assert needs == sorted(needs, reverse=True), (ts, needs)
        kinds[f"need falls{', recurring' * recurring}"] += needs[0] > needs[-1]
        kinds[f"need over the cap{', recurring' * recurring}"] += 5 in needs

    for n in range(240):
        ts = random_set(rng, recurring=False)
        kind = "as drawn"
        if n % 2:
            kind = DOMAIN_KINDS[n // 2 % len(DOMAIN_KINDS)]
            ts = broken(rng, ts, kind)
        decide(kind, ts)
    for _ in range(100):
        ts = constrained(random_set(rng, recurring=True))
        decide("recurring" if any(task.period for task in ts) else "one-shot", ts)
    assert min(kinds[True], kinds[False], kinds["refused"]) >= 100, kinds
    for kind in DOMAIN_KINDS:
        side = "inside" if kind == "zero wcet" else "outside"
        assert kinds[f"{kind}, {side}"] >= 10, kinds
        if kind in REFUSALS:
            assert kinds[f"{kind}, said"] == kinds[f"{kind}, outside"], kinds
    assert kinds["as drawn, inside"] >= 100, kinds
    assert kinds["recurring, inside"] >= 50, kinds
    assert min(kinds["need falls"], kinds["need over the cap"]) >= 50, kinds
    assert min(kinds["need falls, recurring"], kinds["need over the cap, recurring"]) >= 20, kinds


def test_the_oracle_refuses_a_set_outside_its_domain_before_any_scan():
    # each way out of the domain but a zero wcet is refused before any
    # group is scanned or any cluster's makespan kept, and the refusal,
    # kept with the set, is repeated word for word
    rng = random.Random(31)
    for kind in DOMAIN_KINDS:
        if kind == "zero wcet":
            continue
        for _ in range(20):
            ts = broken(rng, random_set(rng, recurring=False), kind)
            refusal = ref_refusal(ts)
            assert refusal is not None and REFUSALS[kind] in refusal, (kind, ts)
            for plat in (Platform(4, Fraction(4)), Platform(1, Fraction(1, 2))):
                with pytest.raises(ValueError) as raised:
                    brute_force_federated_oracle(ts, plat)
                assert str(raised.value) == refusal
                assert ts._ticks.groups == {} and ts._ticks.makespans == {}


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


def mixed_ties(rng):
    """Recurring items with one-shot items due on their step instants
    d + k*period, zero works among them."""
    def work():
        return Fraction(rng.choice((0, rng.randint(0, 8))), rng.choice(WCET_DENOMINATORS))

    items = []
    for _ in range(rng.choice((1, 1, 2))):
        deadline, period = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))), rng.choice(PERIODS)
        items.append((work(), deadline, period))
        items += [(work(), deadline + rng.randint(0, 3) * period, None)
                  for _ in range(rng.randint(1, 3))]
    rng.shuffle(items)
    return items


def test_demand_test_matches_the_fraction_reference(monkeypatch):
    # a small step limit keeps the Fraction reference quick and makes the
    # limit's message, horizon included, part of the comparison
    monkeypatch.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 100)
    kinds = Counter()

    def check(items, speed, used):
        got = outcome(uniprocessor_edf_feasible, items, speed)
        want_pair = outcome(ref_first_violation, items, speed)
        refused = want_pair is not None and isinstance(want_pair[0], type)
        if refused and type(got) is bool:
            # the engine passes a set whose L_a numerator N is 0 with no
            # scan; the reference reaches a verdict only past the step limit
            assert "step instants" in want_pair[1], (items, speed)
            assert ref_la_numerator(items) == 0, (items, speed)
            with monkeypatch.context() as lifted:
                lifted.setattr("fedsched.feasibility.MAX_DEMAND_STEPS", 10**9)
                want_pair = ref_first_violation(items, speed)
            refused = False
            kinds["N = 0 past the step limit"] += 1
        want = want_pair if refused else want_pair is None
        assert got == want, (items, speed)
        # the engine's pair on ticks, scaled back: (demand, t) at the first
        # violation, or the utilization U as a ratio when U > speed
        scale, ticks = fedsched.feasibility._scaled(items)
        pair = outcome(
            fedsched.feasibility._first_violation,
            ticks, speed.numerator, speed.denominator, scale,
        )
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
    rng = random.Random(9)
    for _ in range(600):
        items = mixed_ties(rng)
        check(items, rng.choice(SPEEDS), sum(w / p for w, _, p in items if p is not None))
        kinds["mixed tie"] += 1
    rng = random.Random(10)
    for _ in range(300):
        # deadlines equal to periods at speed U, where no L_a cut applies;
        # periods whose lcm keeps the reference's scan past the limit short
        items = []
        for _ in range(rng.randint(1, 5)):
            period = rng.choice(PERIODS[2:]) * rng.randint(1, 2)
            work = Fraction(rng.randint(0, 12), rng.choice(WCET_DENOMINATORS))
            items.append((work, period, period))
        used = sum(w / p for w, _, p in items)
        check(items, used or rng.choice(SPEEDS), used)
    assert min(kinds.values()) >= 100, kinds


def test_ticks_are_built_once_per_task_set():
    ts = random_set(random.Random(11), recurring=True)
    assert ts._ticks is ts._ticks
    brute_force_federated_oracle(ts, Platform(2, Fraction(1)))
    makespans = dict(ts._ticks.makespans)
    assert makespans  # the oracle's list schedules are kept, in unit-speed ticks
    brute_force_federated_oracle(ts, Platform(2, Fraction(7, 3)))
    assert ts._ticks.makespans.items() >= makespans.items()


# --- validation --------------------------------------------------------------


def scaled(ts, factor):
    """``ts`` with every wcet, total, deadline and period times ``factor``."""
    def times(task):
        return dataclasses.replace(
            task,
            wcet_total=task.wcet_total * factor,
            deadline=task.deadline * factor,
            period=None if task.period is None else task.period * factor,
            subtasks=tuple(Subtask(st.id, st.wcet * factor) for st in task.subtasks),
        )
    return TaskSet(ts.name, tuple(map(times, ts.tasks)))


def mutated(rng, task, kind):
    """``task`` broken in the one way ``kind`` names."""
    subtasks, n = list(task.subtasks), len(task.subtasks)
    j = rng.randrange(n)
    if kind in ("zero wcet", "negative wcet"):
        wcet = 0 if kind == "zero wcet" else -Fraction(rng.randint(1, 9), rng.choice((1, 4, 7)))
        subtasks[j] = Subtask(subtasks[j].id, wcet)
        total = sum(st.wcet for st in subtasks)
        return dataclasses.replace(task, subtasks=tuple(subtasks), wcet_total=total)
    if kind == "work mismatch":  # off by a step finer than the tick, or a whole one
        step = rng.choice((Fraction(1, 7), Fraction(-1, 11), Fraction(1)))
        return dataclasses.replace(task, wcet_total=task.wcet_total + step)
    if kind == "nonpositive deadline":
        return dataclasses.replace(task, deadline=-task.deadline * rng.randint(0, 1))
    if kind == "nonpositive period":
        return dataclasses.replace(task, period=-task.deadline * rng.randint(0, 1))
    if kind == "deadline > period":
        return dataclasses.replace(task, period=task.deadline * Fraction(rng.randint(1, 8), 9))
    if kind == "cycle":
        a, b = rng.choice(task.edges) if task.edges else (j + 1, j + 1)
        return dataclasses.replace(task, edges=task.edges + ((b, a),))
    if kind == "unknown edge endpoint":
        pair = (rng.randint(1, n), n + rng.randint(1, 3))
        return dataclasses.replace(task, edges=task.edges + (pair[::rng.choice((1, -1))],))
    assert kind == "duplicate subtask ids" and n > 1
    subtasks[j] = Subtask(subtasks[(j + 1) % n].id, subtasks[j].wcet)
    return dataclasses.replace(task, subtasks=tuple(subtasks))


# each mutation and the violation it must cause
MUTATIONS = {
    "zero wcet": "nonpositive wcet",
    "negative wcet": "nonpositive wcet",
    "work mismatch": "work mismatch",
    "nonpositive deadline": "nonpositive deadline",
    "nonpositive period": "nonpositive period",
    "deadline > period": "exceeds period",
    "cycle": "dependency cycle",
    "unknown edge endpoint": "unknown subtask",
    "duplicate subtask ids": "duplicate subtask ids",
}


def test_validation_matches_the_fraction_reference():
    rng = random.Random(13)
    kinds = Counter()
    for seed in range(400):
        factor = rng.choice((1, Fraction(1, 6), Fraction(7, 3), Fraction(5, 4)))
        base = scaled(random_task_set(seed), factor)
        mutants = [("clean", base)]
        for kind in MUTATIONS:
            i = rng.randrange(len(base))
            if kind == "duplicate subtask ids" and len(base.tasks[i].subtasks) < 2:
                continue
            tasks = list(base.tasks)
            tasks[i] = mutated(rng, tasks[i], kind)
            mutants.append((kind, TaskSet(base.name, tuple(tasks))))
        for kind, ts in mutants:
            want = [msg for task in ts for msg in ref_validate(task)]
            assert validate_task_set(ts) == want, (seed, kind)
            if kind == "clean":
                assert want == [], seed
            else:
                assert any(MUTATIONS[kind] in msg for msg in want), (seed, kind)
            kinds[kind] += 1
            kinds["tick > 1" if ts._ticks.scale > 1 else "tick 1"] += 1
    for kind in ("clean", "tick > 1", "tick 1", *MUTATIONS):
        assert kinds[kind] >= 150, kinds
