"""Figure 9: accumulated overhead under a shifting TasKy→TasKy2 workload.

The workload mix (50 % reads, 20 % inserts, 20 % updates, 10 % deletes)
moves from 100 % TasKy to 100 % TasKy2 along the Technology Adoption Life
Cycle. Fixed materializations pay growing propagation costs; InVerDa's
flexible materialization migrates mid-way (migration cost included).

    PYTHONPATH=src python benchmarks/bench_fig09_flexible_materialization.py [--paper-scale]
"""

from __future__ import annotations

import random
import statistics
import sys
import time

from repro.workloads.tasky import build_tasky

from experiment import ExperimentResult, main
from mixes import PAPER_MIX, adoption_curve, run_mix

#: One round's timings swing with the host; a strategy's median over
#: several rounds (each round runs all three strategies in turn) does not.
ROUNDS = 3


def _run_adoption(
    scenario,
    *,
    slices: int,
    ops_per_slice: int,
    strategy: str,
    switch_at: float = 0.5,
) -> float:
    """Total seconds spent executing the whole adoption sweep."""
    rng = random.Random(1234)
    curve = adoption_curve(slices)
    tasky = scenario.connect("TasKy")
    tasky2 = scenario.connect("TasKy2")
    total = 0.0
    switched = False

    def tasky_row():
        return scenario.next_task()

    def tasky2_row():
        authors = tasky2.execute("SELECT id FROM Author").fetchall()
        fk = rng.choice(authors)[0] if authors else None
        row = scenario.next_task()
        return {"task": row["task"], "prio": row["prio"], "author": fk}

    for fraction in curve:
        if strategy == "flexible" and not switched and fraction >= switch_at:
            start = time.perf_counter()
            scenario.materialize("TasKy2")
            total += time.perf_counter() - start
            switched = True
        new_ops = round(ops_per_slice * fraction)
        old_ops = ops_per_slice - new_ops
        start = time.perf_counter()
        if old_ops:
            run_mix(
                tasky,
                "Task",
                old_ops,
                PAPER_MIX,
                rng,
                make_row=tasky_row,
                update_row=lambda row: {"prio": rng.randint(1, 5)},
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
        experiment="fig9",
        title="Figure 9: accumulated overhead, TasKy→TasKy2 adoption (seconds)",
        columns=("strategy", "materialization", "accumulated_s"),
    )
    configs = [
        ("fixed", "initial (TasKy)"),
        ("fixed-evolved", "evolved (TasKy2)"),
        ("flexible", "flexible (InVerDa)"),
    ]
    for strategy, label in configs:
        scenario = build_tasky(num_tasks)
        if strategy == "fixed-evolved":
            scenario.materialize("TasKy2")
        total = _run_adoption(
            scenario,
            slices=slices,
            ops_per_slice=ops_per_slice,
            strategy="flexible" if strategy == "flexible" else "fixed",
        )
        result.add(strategy, label, total)
    result.note(
        "paper shape: the flexible materialization (including migration "
        "cost) beats both fixed materializations over the full adoption"
    )
    result.note(
        f"{num_tasks} tasks, {slices} slices x {ops_per_slice} ops "
        "(paper: 100,000 tasks, 1000 x 1000; use --paper-scale)"
    )
    return result


def test_fig9(benchmark, print_result):
    results = benchmark.pedantic(
        lambda: [
            run(num_tasks=300, slices=8, ops_per_slice=6)
            for _ in range(ROUNDS)
        ],
        rounds=1,
        iterations=1,
    )
    seconds: dict[str, list[float]] = {}
    for result in results:
        for strategy, _, total in result.rows:
            seconds.setdefault(strategy, []).append(total)
    by_strategy = {strategy: statistics.median(totals) for strategy, totals in seconds.items()}
    # The flexible strategy must not lose to the worse fixed choice.
    assert by_strategy["flexible"] <= max(by_strategy["fixed"], by_strategy["fixed-evolved"])
    print_result(results[-1])


if __name__ == "__main__":
    sys.exit(main(run, {"num_tasks": 100_000, "slices": 1000, "ops_per_slice": 1000}))
