"""Figure 11: access cost per schema version under all five TasKy
materializations, for three workload mixes (paper mix / read-only /
write-only).

    PYTHONPATH=src python benchmarks/bench_fig11_materialization_matrix.py [--paper-scale]
"""

from __future__ import annotations

import random
import sys
import time

from repro.catalog.materialization import enumerate_valid_materializations
from repro.workloads.tasky import build_tasky

from experiment import ExperimentResult, main
from mixes import PAPER_MIX, READ_ONLY, WRITE_ONLY, WorkloadMix, run_mix

_MAT_LABELS = {
    frozenset(): "[]",
    frozenset({"Split"}): "[S]",
    frozenset({"Split", "DropColumn"}): "[S,DC]",
    frozenset({"Decompose"}): "[D]",
    frozenset({"Decompose", "RenameColumn"}): "[D,RC]",
}


def _label(schema) -> str:
    kinds = frozenset(smo.smo_type for smo in schema)
    return _MAT_LABELS.get(kinds, "[" + ",".join(sorted(kinds)) + "]")


def _workload_cost(scenario, version: str, mix: WorkloadMix, ops: int) -> float:
    rng = random.Random(5)
    connection = scenario.connect(version)
    table = "Todo" if version == "Do!" else "Task"

    def make_row():
        row = scenario.next_task()
        if version == "Do!":
            return {"author": row["author"], "task": row["task"]}
        if version == "TasKy2":
            authors = (
                connection.execute("SELECT id FROM Author").fetchall()
                if "Author" in connection.table_names()
                else []
            )
            fk = rng.choice(authors)[0] if authors else None
            return {"task": row["task"], "prio": row["prio"], "author": fk}
        return row

    def update_row(row):
        if version == "Do!":
            return {"task": row["task"] + "!"}
        return {"prio": rng.randint(1, 5)}

    start = time.perf_counter()
    run_mix(connection, table, ops, mix, rng, make_row=make_row, update_row=update_row)
    return time.perf_counter() - start


def run(num_tasks: int = 2000, ops: int = 30) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig11",
        title="Figure 11: workload cost on each version x materialization (seconds)",
        columns=("mix", "materialization", "TasKy", "Do!", "TasKy2"),
    )
    mixes = [("paper mix 50/20/20/10", PAPER_MIX), ("100% reads", READ_ONLY), ("100% writes", WRITE_ONLY)]
    base = build_tasky(10)
    schemas = enumerate_valid_materializations(base.engine.genealogy)
    labels = [_label(schema) for schema in schemas]
    for mix_name, mix in mixes:
        for schema_index, schema in enumerate(schemas):
            scenario = build_tasky(num_tasks)
            own_schemas = enumerate_valid_materializations(scenario.engine.genealogy)
            scenario.engine.apply_materialization(own_schemas[schema_index])
            costs = [
                _workload_cost(scenario, version, mix, ops)
                for version in ("TasKy", "Do!", "TasKy2")
            ]
            result.add(mix_name, labels[schema_index], *costs)
    result.note(
        "paper shape: each version is fastest when its own table versions "
        "are materialized; the globally best schema depends on the mix"
    )
    return result


def test_fig11(benchmark, print_result):
    result = benchmark.pedantic(
        lambda: run(num_tasks=600, ops=8),
        rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 15  # 3 mixes x 5 materializations
    print_result(result)


if __name__ == "__main__":
    sys.exit(main(run, {"num_tasks": 100_000, "ops": 300}))
