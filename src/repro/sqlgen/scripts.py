"""Whole-scenario delta-code scripts (the Table-3 comparison inputs).

``tasky_generated_scripts`` packages the three TasKy artifacts the paper
sizes in Table 3 (initial schema, evolution, migration).  The SQL side is
read off the live generator (:mod:`repro.backend.codegen`) on an attached
backend, so the text that is sized is the text that is installed and runs
— the SQL a developer would otherwise write and maintain by hand.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    from repro.backend import codegen, online
    from repro.backend.sqlite import LiveSqliteBackend
    from repro.catalog.materialization import materialization_for_versions
    from repro.core.engine import InVerDa
    from repro.sqlgen.handwritten import HANDWRITTEN_TASKY_INITIAL_SQL
    from repro.workloads.tasky import (
        DO_SCRIPT,
        MIGRATION_SCRIPT,
        TASKY2_SCRIPT,
        TASKY_INITIAL_SCRIPT,
    )

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
