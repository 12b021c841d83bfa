"""Ablation benches for the memory engine's design choices.

- *whole extent vs key-restricted read*: the memory engine's two reads
  through a virtualized SPLIT, both evaluating its γ_tgt rule set — the
  whole extent, and the read of one key a one-row write makes, which
  evaluates the key-local rules over that key's rows alone;
- *keyed vs whole-extent put*: single-row inserts through the same SPLIT's
  put, evaluating its key-local γ_tgt rule set over the changed key's rows
  (the put the engine runs) and over whole extents.

    PYTHONPATH=src python benchmarks/bench_ablation.py [--paper-scale]
"""

from __future__ import annotations

import random
import sys

from repro.bidel.smo.base import TableChange
from repro.core.context import EngineMapContext
from repro.workloads.tasky import build_tasky, random_task

from experiment import ExperimentResult, main, time_call, time_once


def run(num_tasks: int = 3000, writes: int = 50) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation",
        title="Ablations: whole-extent vs key-restricted rule reads; keyed vs whole-extent put (ms)",
        columns=("case", "variant", "ms"),
    )
    scenario = build_tasky(num_tasks, with_tasky2=False)
    engine = scenario.engine
    split_smo = next(
        smo for smo in engine.genealogy.evolution_smos() if smo.smo_type == "Split"
    )
    source_tv, target_tv = split_smo.sources[0], split_smo.targets[0]

    # Reads: γ_tgt of the SPLIT over the whole extent vs over one key's rows.
    whole_ms = time_call(
        lambda: engine.read_table_version(target_tv, cache={}), repeat=3
    ) * 1000
    key = next(iter(engine.read_table_version(target_tv, cache={})))
    key_ms = time_call(
        lambda: engine.read_table_version_keys(target_tv, {key}, cache={}), repeat=3
    ) * 1000
    result.add("read through SPLIT", "whole extent (rules)", whole_ms)
    result.add("read through SPLIT", "one key (key-restricted rules)", key_ms)

    # Writes: one-row inserts at the SPLIT's source, its partitions stored,
    # through the keyed put and through the whole-extent put.
    scenario.materialize("Do!")
    semantics = split_smo.semantics
    rng = random.Random(11)

    def inserts(put, first_key: int):
        def run() -> None:
            for index in range(writes):
                row = random_task(rng, first_key + index)
                changes = {
                    "U": TableChange(
                        upserts={engine.allocate_key(): source_tv.schema.row_from_mapping(row)}
                    )
                }
                ctx = EngineMapContext(
                    engine, split_smo, output_side="target", cache={}, changes=changes
                )
                engine._dispatch(
                    split_smo, put(changes, ctx), direction="forward", cache={},
                    visited={split_smo.uid: "forward"},
                )

        return run

    keyed_put_ms = time_once(
        inserts(lambda changes, ctx: semantics.put(True, changes, ctx), 20_000_000)
    ) * 1000
    whole_put_ms = time_once(
        inserts(lambda changes, ctx: semantics._put(True, changes, ctx, None), 30_000_000)
    ) * 1000
    result.add(f"{writes} inserts via SPLIT", "keyed put", keyed_put_ms)
    result.add(f"{writes} inserts via SPLIT", "whole-extent put", whole_put_ms)
    result.note(
        "design ablation: the rules are the only semantics the memory engine "
        "runs; key-restricted reads and keyed puts only buy performance"
    )
    return result


def test_ablation(benchmark, print_result):
    result = benchmark.pedantic(
        lambda: run(num_tasks=1000, writes=20),
        rounds=1,
        iterations=1,
    )
    by_case = {}
    for case, variant, ms in result.rows:
        by_case.setdefault(case, {})[variant] = ms
    writes = by_case[next(k for k in by_case if "inserts" in k)]
    assert writes["keyed put"] <= writes["whole-extent put"]
    print_result(result)


if __name__ == "__main__":
    sys.exit(main(run, {"num_tasks": 50_000, "writes": 200}))
