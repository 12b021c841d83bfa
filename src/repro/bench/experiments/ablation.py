"""Ablation benches for the design choices called out in DESIGN.md.

- *rules vs fast path*: reads served by evaluating the declarative Datalog
  rule sets directly, versus the hand-specialised state maps the engine
  uses (both derive from the same rules; the tests prove they agree).
- *delta vs full put*: single-row writes propagated key-locally versus the
  always-correct whole-state lens put.
"""

from __future__ import annotations

import random

from repro.bench.harness import Experiment, ExperimentResult, register, time_call, time_once
from repro.bidel.smo.base import FixedContext, TableChange
from repro.datalog.evaluate import evaluate
from repro.workloads.tasky import build_tasky, random_task


def run(num_tasks: int = 3000, writes: int = 50) -> ExperimentResult:
    result = ExperimentResult(
        experiment="ablation",
        title="Ablations: rule evaluation vs fast path; delta vs full put (ms)",
        columns=("case", "variant", "ms"),
    )
    scenario = build_tasky(num_tasks, with_tasky2=False)
    engine = scenario.engine
    split_smo = next(
        smo for smo in engine.genealogy.evolution_smos() if smo.smo_type == "Split"
    )
    semantics = split_smo.semantics
    source_tv = split_smo.sources[0]
    extent = engine.read_table_version(source_tv, cache={})

    # Reads: γ_tgt of the SPLIT via the fast path vs the Datalog evaluator.
    ctx = FixedContext({"U": extent})
    fast_ms = time_call(lambda: semantics.map_forward(ctx), repeat=3) * 1000
    rules = semantics.gamma_tgt_rules()
    facts = {"U": {(key, *row) for key, row in extent.items()}}
    rules_ms = time_call(lambda: evaluate(rules, facts), repeat=3) * 1000
    result.add("read through SPLIT", "fast path (state map)", fast_ms)
    result.add("read through SPLIT", "Datalog rule evaluation", rules_ms)

    # Writes: key-local delta propagation vs whole-state put.
    rng = random.Random(11)
    tasky_cursor = scenario.connect("TasKy").cursor()

    def delta_writes() -> None:
        for index in range(writes):
            row = random_task(rng, 20_000_000 + index)
            tasky_cursor.execute(
                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                (row["author"], row["task"], row["prio"]),
            )

    delta_ms = time_once(delta_writes) * 1000

    def full_put_writes() -> None:
        for index in range(writes):
            row = random_task(rng, 30_000_000 + index)
            key = engine.allocate_key()
            change = TableChange(upserts={key: source_tv.schema.row_from_mapping(row)})
            out = engine._full_put(
                split_smo, {"U": change}, direction="forward", cache={}
            )
            engine._dispatch(
                split_smo, out, direction="forward", cache={}, visited={split_smo.uid: "forward"}
            )

    # Only meaningful when the split target is materialized; flip it.
    scenario.materialize("Do!") if "Do!" in engine.version_names() else None
    full_ms = time_once(full_put_writes) * 1000
    result.add(f"{writes} inserts via SPLIT", "key-local delta", delta_ms)
    result.add(f"{writes} inserts via SPLIT", "whole-state lens put", full_ms)
    result.note(
        "design ablation: declarative rules are the semantics of record; "
        "the fast path and delta propagation only buy performance"
    )
    return result


register(
    Experiment(
        name="ablation",
        title="Rules vs fast path; delta vs full put",
        paper_artifact="DESIGN.md",
        runner=run,
        quick_kwargs={"num_tasks": 3000, "writes": 50},
        paper_kwargs={"num_tasks": 50_000, "writes": 200},
    )
)
