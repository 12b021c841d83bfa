"""Figure 10: accumulated overhead for the longer Do!→TasKy2 adoption.

Users start on the phone app Do!, then move to TasKy2. Three fixed
materializations (Do!, TasKy, TasKy2) are compared against InVerDa's
flexible strategy, which starts at Do!, moves to the intermediate TasKy
materialization, and finally to TasKy2 — intermediate stages are exactly
what fixed handwritten delta code cannot exploit.

    PYTHONPATH=src python benchmarks/bench_fig10_flexible_materialization_3way.py [--paper-scale]
"""

from __future__ import annotations

import random
import sys
import time

from repro.workloads.tasky import build_tasky

from experiment import ExperimentResult, main
from mixes import PAPER_MIX, adoption_curve, run_mix


def _sweep(scenario, *, slices: int, ops_per_slice: int, migrations: dict[float, str]) -> float:
    rng = random.Random(77)
    curve = adoption_curve(slices)
    do = scenario.connect("Do!")
    tasky2 = scenario.connect("TasKy2")
    pending = dict(migrations)
    total = 0.0

    def do_row():
        row = scenario.next_task()
        return {"author": row["author"], "task": row["task"]}

    def tasky2_row():
        authors = tasky2.execute("SELECT id FROM Author").fetchall()
        fk = rng.choice(authors)[0] if authors else None
        row = scenario.next_task()
        return {"task": row["task"], "prio": row["prio"], "author": fk}

    for fraction in curve:
        for threshold in sorted(pending):
            if fraction >= threshold:
                start = time.perf_counter()
                scenario.materialize(pending.pop(threshold))
                total += time.perf_counter() - start
        new_ops = round(ops_per_slice * fraction)
        old_ops = ops_per_slice - new_ops
        start = time.perf_counter()
        if old_ops:
            run_mix(
                do,
                "Todo",
                old_ops,
                PAPER_MIX,
                rng,
                make_row=do_row,
                update_row=lambda row: {"task": row["task"] + "!"},
            )
        if new_ops:
            run_mix(
                tasky2,
                "Task",
                new_ops,
                PAPER_MIX,
                rng,
                make_row=tasky2_row,
                update_row=lambda row: {"prio": rng.randint(1, 5)},
            )
        total += time.perf_counter() - start
    return total


def run(num_tasks: int = 2000, slices: int = 20, ops_per_slice: int = 20) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig10",
        title="Figure 10: accumulated overhead, Do!→TasKy2 adoption (seconds)",
        columns=("strategy", "accumulated_s"),
    )
    configs = [
        ("fixed: Do! materialized", "Do!", {}),
        ("fixed: TasKy materialized", None, {}),
        ("fixed: TasKy2 materialized", "TasKy2", {}),
        ("flexible (Do!→TasKy→TasKy2)", "Do!", {0.35: "TasKy", 0.7: "TasKy2"}),
    ]
    for label, initial_materialization, migrations in configs:
        scenario = build_tasky(num_tasks)
        if initial_materialization is not None:
            scenario.materialize(initial_materialization)
        total = _sweep(
            scenario, slices=slices, ops_per_slice=ops_per_slice, migrations=migrations
        )
        result.add(label, total)
    result.note(
        "paper shape: flexible materialization (via the intermediate TasKy "
        "stage) stays below every fixed choice over the whole adoption"
    )
    return result


def test_fig10(benchmark, print_result):
    result = benchmark.pedantic(
        lambda: run(num_tasks=800, slices=8, ops_per_slice=8),
        rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 4
    print_result(result)


if __name__ == "__main__":
    sys.exit(main(run, {"num_tasks": 100_000, "slices": 1000, "ops_per_slice": 1000}))
