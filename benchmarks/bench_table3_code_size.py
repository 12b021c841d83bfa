"""Table 3: code-size ratio between SQL delta code and BiDEL scripts
(timed unit: script generation).

``tasky_generated_scripts`` packages the three TasKy artifacts the paper
sizes (initial schema, evolution, migration).  The SQL side is read off
the live generator (:mod:`repro.backend.codegen`) on an attached backend,
so the text that is sized is the text that is installed and runs — the
SQL a developer would otherwise write and maintain by hand.

    PYTHONPATH=src python benchmarks/bench_table3_code_size.py
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.backend import codegen, online
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import materialization_for_versions
from repro.core.engine import InVerDa
from repro.workloads.tasky import (
    DO_SCRIPT,
    MIGRATION_SCRIPT,
    TASKY2_SCRIPT,
    TASKY_INITIAL_SCRIPT,
)

from codemetrics import measure_code
from experiment import ExperimentResult, main
from handwritten import HANDWRITTEN_TASKY_INITIAL_SQL, HANDWRITTEN_TASKY_MIGRATION_SQL


@dataclass
class TaskyScripts:
    """The three artifacts Table 3 measures, in both languages."""

    bidel_initial: str
    bidel_evolution: str
    bidel_migration: str
    sql_initial: str
    sql_evolution: str
    sql_migration: str


def script(statements: list[str]) -> str:
    """``;``-terminated statements, one after the other."""
    return "".join(statement + ";\n" for statement in statements)


def tasky_generated_scripts() -> TaskyScripts:
    engine = InVerDa()
    engine.execute(TASKY_INITIAL_SCRIPT)
    engine.execute(DO_SCRIPT)
    engine.execute(TASKY2_SCRIPT)

    def delta_code() -> list[str]:
        return codegen.view_statements(engine) + codegen.trigger_statements(engine)

    backend = LiveSqliteBackend.attach(engine)
    try:
        evolution = delta_code()
        # MATERIALIZE = stage the new physical tables from the old views,
        # swap them in, and regenerate every version's delta code.
        tasky2 = engine.genealogy.schema_version("TasKy2")
        schema = materialization_for_versions(
            engine.genealogy, list(tasky2.tables.values())
        )
        move = online.Move(online.build_plan(engine, schema))
        stage, swap = online.cutover_statements(engine, schema, move)
        engine.execute(MIGRATION_SCRIPT)
        migration = stage + swap + delta_code()
    finally:
        backend.close()

    return TaskyScripts(
        bidel_initial=TASKY_INITIAL_SCRIPT.strip() + "\n",
        bidel_evolution=(DO_SCRIPT.strip() + "\n" + TASKY2_SCRIPT.strip() + "\n"),
        bidel_migration=MIGRATION_SCRIPT,
        sql_initial=HANDWRITTEN_TASKY_INITIAL_SQL,
        sql_evolution=script(evolution),
        sql_migration=script(migration),
    )


def run() -> ExperimentResult:
    scripts = tasky_generated_scripts()
    result = ExperimentResult(
        experiment="table3",
        title="Table 3: SQL vs BiDEL code size for TasKy",
        columns=("artifact", "language", "lines", "statements", "characters", "ratio(lines)"),
    )
    pairs = [
        ("initially", scripts.bidel_initial, scripts.sql_initial),
        ("evolution", scripts.bidel_evolution, scripts.sql_evolution),
        ("migration", scripts.bidel_migration, scripts.sql_migration),
    ]
    for artifact, bidel_code, sql_code in pairs:
        bidel = measure_code(bidel_code)
        sql = measure_code(sql_code)
        ratio = sql.ratio_to(bidel)
        result.add(artifact, "BiDEL", bidel.lines, bidel.statements, bidel.characters, 1.0)
        result.add(artifact, "SQL", sql.lines, sql.statements, sql.characters, ratio.lines)
    result.note(
        "paper ratios: evolution x119.67 LoC, migration x182.00 LoC; the SQL "
        "column here is the delta code the live backend installs and runs "
        "(repro.backend.codegen: views + INSTEAD OF triggers; for the "
        "migration, stage + swap + every version's regenerated delta code)"
    )
    result.note(
        "hand-written data movement alone for the same migration: "
        f"{measure_code(HANDWRITTEN_TASKY_MIGRATION_SQL).lines} lines, before "
        "any view or trigger is rewritten against the new tables"
    )
    return result


def test_table3(benchmark, print_result):
    scripts = benchmark(tasky_generated_scripts)
    bidel = measure_code(scripts.bidel_evolution)
    sql = measure_code(scripts.sql_evolution)
    # The SQL delta code must be substantially larger than the BiDEL script.
    assert sql.lines > 3 * bidel.lines
    assert sql.characters > 3 * bidel.characters
    print_result(run())


if __name__ == "__main__":
    sys.exit(main(run, {}))
