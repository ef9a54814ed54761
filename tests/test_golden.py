"""The SHA-256 of what ``analyze``, ``simulate``, ``federate`` and
``generate`` write to stdout, and of the files ``save_task_set`` writes,
pinned on fixed inputs.

The digests were recorded from the commands as they were before the demand
table replayed hyperperiods and the simulator handed out its runs as
blocks, so every later change to how the output is computed must keep it
byte for byte.  The inputs: the benchmark's four recurring tasks at speeds
1 and 7/3, the 10x10 adversarial family, a set whose processors are busy
all through each hyperperiod (work W equal to the hyperperiod H, where runs
of one subtask meet at every junction), a lone task that fills its
processor, and ``simulate --horizon`` cutting a hyperperiod short.  The
writer's digests were recorded when it handed a built document to
``json.dump``, on those four sets and on ``generate``'s family at three
sizes.

Run it with pytest, or as ``python tests/test_golden.py`` under any
supported Python with ``src`` on the path, which prints each case that
differs and exits 1 if any does.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from fedsched.cli import main
from fedsched.generate import CounterexampleParams, build_counterexample
from fedsched.model import DagTask, Subtask, TaskSet
from fedsched.taskio import save_task_set


def sequential(tid, wcet, deadline, period):
    wcet = Fraction(wcet)
    return DagTask(tid, wcet, Fraction(deadline), Fraction(period), (Subtask(1, wcet),))


def two_subtasks(tid, deadline, period, first, second):
    first, second = Fraction(first), Fraction(second)
    subtasks = (Subtask(1, first), Subtask(2, second))
    return DagTask(tid, first + second, Fraction(deadline), Fraction(period), subtasks)


SETS = {
    # the benchmark's recurring workload: hyperperiod 17017
    "recurring": TaskSet("recurring", (
        sequential(1, 1, 6, 7),
        sequential(2, 2, 10, 11),
        sequential(3, 2, 12, 13),
        sequential(4, 2, 8, "17/2"),
    )),
    "family": build_counterexample(CounterexampleParams(10, 10, Fraction(2))),
    # both processors busy all through each hyperperiod of 4, and task 2's
    # run at the end of one hyperperiod meets its run at the next one's start
    "stitch": TaskSet("stitch", (
        two_subtasks(1, 4, 4, 2, 3),
        two_subtasks(2, 2, 2, 1, "1/2"),
    )),
    # one run from 0 to the last job's end
    "chain": TaskSet("chain", (sequential(1, 3, 3, 3),)),
}

# (command, set, speed, processors, --horizon): exit code, stdout SHA-256
GOLDEN = {
    ("analyze", "recurring", "1", 1, None):
        (0, "fd6b908255129d82b35d909a4d94c9c44b81a39238a6309c5d48ba4e95f5459d"),
    ("analyze", "recurring", "7/3", 1, None):
        (0, "4ed2072ff4b860e15de8f408e02a9a8b2ffd8457a688acca5c05e4f678682602"),
    ("analyze", "family", "1", 10, None):
        (0, "7a7ba74944a38f8bb874da8885be29327a52a94fd325410245e05efd9f0d69be"),
    ("analyze", "family", "7/3", 10, None):
        (0, "e4f9887c11e15f156e2b95a2ebf84a0bd2838cfefd6f7b8c443129bb76820d8a"),
    ("analyze", "stitch", "1", 2, None):
        (0, "44cccbcc97b63f1ad18975ef4461a73fb301971ffd236d649ac1fe8fea311fc8"),
    ("analyze", "chain", "1", 1, None):
        (0, "c02da04af78bf8c4b286d2c54e3ce3dacf56f54383fcb21533cf8acb033df330"),
    ("simulate", "recurring", "1", 1, None):
        (0, "83a999b0694ab6eec7ebbd7d9c6948e23b6aad07738a986074047a39fd2ce329"),
    ("simulate", "recurring", "7/3", 1, None):
        (0, "0f56ccc20c222cd659b6efea49793fa1e2c1c7cad7705c5ef657feb61d3b8877"),
    ("simulate", "family", "1", 10, None):
        (0, "225de997dbf4bb8c79cf1922324e5cff6ebba96fb0d6357d22636efdbe40ef87"),
    ("simulate", "family", "7/3", 10, None):
        (0, "7a6f950823b0e6eb7bce32daef0bf5a584be0105b27510ce38a79ca9ea26c46b"),
    ("simulate", "stitch", "1", 2, None):
        (0, "60b577331b3e01b1fe9aca8c969fab84d52f0867525141a51cd93c1bb4443f37"),
    ("simulate", "chain", "1", 1, None):
        (0, "81e231b2b33d498ffd75915e2dbe03816d70547157bdcce9d73f72b875244403"),
    ("simulate", "recurring", "1", 1, "25000"):
        (0, "f6b9f601fedf73c371f264ec586e6f5b41afd3ca7f6697e274e5253f864c668e"),
    ("simulate", "recurring", "7/3", 1, "40001/2"):
        (0, "29ca748aae9d37ce2ba86e42759ac5640642d1a6e49ee4c2249ba2c140b64f14"),
    ("simulate", "stitch", "1", 2, "43/2"):
        (0, "e359be40c834e2c112481adaf39c593017ee85f67829a9fdc95f4e479abcba47"),
    ("simulate", "chain", "1", 1, "31/2"):
        (0, "eca524963c645de00a553b2cadf3dfdf4ba8cd939ababbb3adcc097db4370d6c"),
    ("federate", "recurring", "1", 1, None):
        (0, "5138ada94514db6bde93a9adc318ec28a359b1c5fdfcac22b465e7b3cb47db89"),
    ("federate", "recurring", "7/3", 1, None):
        (0, "5138ada94514db6bde93a9adc318ec28a359b1c5fdfcac22b465e7b3cb47db89"),
    ("federate", "family", "1", 10, None):
        (1, "8b5f4910a92708670026f0d6f0e25afae4d57f61e40ab52e33504e7f0de5c385"),
    ("federate", "family", "7/3", 10, None):
        (1, "95a6bb7375617e641b99bd3066eb95300a4b9d92b734dfe8a26e021862588801"),
    ("federate", "stitch", "1", 2, None):
        (1, "fb75b9249d3eb0c5d2c6209db9b79239772a98c0229c4a3608475f156024bba8"),
    ("federate", "chain", "1", 1, None):
        (0, "8e0f335b00e90d7831ff4408ad9e369ac542b4601b799829db13090d3953479f"),
}


# set: SHA-256 of the file save_task_set writes
SAVED = {
    "recurring": "48a0c1bc63c4d92b980da8f10a087d7eaeb92cc936c4481b8e158f6cf9ebb93b",
    "family": "ba7b3200ef285c03ea1c8848b7e4aa1d77e2184ad9988d458d58c63dd9076b18",
    "stitch": "705dbea24c91d07154f889c3db971296ec9c7a24a1603b1d62957a4eef066dfa",
    "chain": "9e3e959192996fa132ea2ca6eb3726edfaf7842b692b442099f4f292baa766a3",
}

# generate's (--M, --N, --K): SHA-256 of its stdout
GENERATED = {
    ("10", "10", "2"): "ba7b3200ef285c03ea1c8848b7e4aa1d77e2184ad9988d458d58c63dd9076b18",
    ("64", "64", "2"): "5519a52a12684b6cb23572cdae3a6b74a4827640795d1ff4f09f97da233074db",
    ("3", "5", "5/2"): "3772f1395ba9dd2bf4143b0d155c8f35bf47efddec43854badd2b55f56baf5af",
}


def stdout_of(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and the SHA-256 of its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def differences(folder: Path) -> list[str]:
    """One line per golden case whose exit code or digest differs."""
    paths = {}
    found = []
    for name, ts in SETS.items():
        paths[name] = folder / f"{name}.json"
        save_task_set(ts, str(paths[name]))
        got = hashlib.sha256(paths[name].read_bytes()).hexdigest()
        if got != SAVED[name]:
            found.append(f"save_task_set on {name}: {got}, pinned {SAVED[name]}")
    for (m, n, k), want in GENERATED.items():
        got = stdout_of(["generate", "--M", m, "--N", n, "--K", k])
        if got != (0, want):
            found.append(f"generate --M {m} --N {n} --K {k}: {got}, pinned {(0, want)}")
    for (command, name, speed, processors, horizon), want in GOLDEN.items():
        argv = [command, "-i", str(paths[name]), "--speed", speed, "--processors", str(processors)]
        if horizon is not None:
            argv += ["--horizon", horizon]
        got = stdout_of(argv)
        if got != want:
            found.append(f"{' '.join(argv[:1] + argv[3:])} on {name}: {got}, pinned {want}")
    return found


def test_cli_output_keeps_its_pinned_digests(tmp_path):
    assert differences(tmp_path) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        lines = differences(Path(folder))
    total = len(GOLDEN) + len(SAVED) + len(GENERATED)
    print("\n".join(lines) or f"all {total} digests match")
    sys.exit(1 if lines else 0)
