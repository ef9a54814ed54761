#!/usr/bin/env python3
"""Record the random-oracle workload's expected verdicts.

    python3 perfbench/record_oracle.py

Decides every instance seed in ``range(2000)`` with the fedsched found
under ``src/`` and rewrites ``perfbench/oracle_verdicts.txt`` (about a
minute).  The file in the repository was recorded on the code the
benchmark was defined against; re-record only on purpose, since the
benchmark checks later code against it.
"""

from __future__ import annotations

from pathlib import Path

import workloads

POOL = 2000


def main() -> None:
    fs = workloads.import_fedsched(Path(__file__).resolve().parent.parent)
    configs = " ".join(f"{m}@{s}" for m, s in workloads.ORACLE_CONFIGS)
    lines = [
        "# Verdicts recorded for the random-oracle workload.",
        f"# instance: random_task_set(seed, n_tasks={workloads.ORACLE_TASKS}) with periods stripped",
        f"# bit i of each string is configuration i (processors@speed): {configs}",
        "# columns: seed, allocate_federated feasible, brute_force_federated_oracle feasible",
    ]
    for seed in range(POOL):
        verdicts = workloads.decide(fs, workloads.oracle_instance(fs, seed))
        alloc = "".join("1" if a else "0" for a, _ in verdicts)
        oracle = "".join("1" if o else "0" for _, o in verdicts)
        lines.append(f"{seed} {alloc} {oracle}")
    workloads.VERDICTS_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
