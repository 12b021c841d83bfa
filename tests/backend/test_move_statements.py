"""Statement witness of MATERIALIZE on both schedules.

A trace callback on the administrative handle records every top-level
statement each move issues (trigger-body lines, which SQLite reports as
``--`` comments, are dropped) over the sargable chain — 1 000 rows, data
at S4 — moved offline to S8, online back to S4, online to S8 and offline
back to S4.  Each move issues exactly the statements pinned here, and a
move copies only what changes place: a table version physical before and
after it (``Odd``) is never created, filled, renamed or captured; tables
are staged under their final names, so an offline move renames nothing
and an online one renames exactly the tables its chunks copied.  The
offline move is one transaction with none of the online schedule's
machinery: no count check, no change capture, no journal.
"""

from __future__ import annotations

import re

import pytest

from repro.backend import online
from repro.persist.store import BACKFILL_TABLE
from tests.backend.test_sargable import build_chain

#: (id, statement, target version, statements the move issues, of which
#: ``ALTER TABLE``)
MOVES = [
    ("offline-S8", "MATERIALIZE 'S8';", "S8", 113, 0),
    ("online-S4", "MATERIALIZE ONLINE 'S4';", "S4", 162, 1),
    ("online-S8", "MATERIALIZE ONLINE 'S8';", "S8", 182, 2),
    ("offline-S4", "MATERIALIZE 'S4';", "S4", 118, 0),
]


def physical(engine) -> set:
    return {
        tv for tv in engine.genealogy.table_versions.values() if engine._is_physical(tv)
    }


@pytest.fixture(scope="module")
def traces():
    """{move id: (statements, its plan, table versions physical before
    and after it)}."""
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(1000)])
    recorded: dict = {}
    try:
        for name, statement, target, *_counts in MOVES:
            before = physical(engine)
            plan = online.build_plan(engine, engine.resolve_materialization([target]))
            seen: list[str] = []
            backend.connection.set_trace_callback(seen.append)
            try:
                engine.execute(statement)
            finally:
                backend.connection.set_trace_callback(None)
            trace = [s for s in seen if not s.lstrip().startswith("--")]
            recorded[name] = (trace, plan, before & physical(engine))
    finally:
        backend.close()
    return recorded


@pytest.mark.parametrize("name, count", [(m[0], m[3]) for m in MOVES])
def test_move_issues_its_statements(traces, name, count):
    assert len(traces[name][0]) == count, traces[name][0]


@pytest.mark.parametrize("name, count", [(m[0], m[4]) for m in MOVES])
def test_only_the_tables_the_chunks_copied_are_renamed(traces, name, count):
    trace, plan, _stays = traces[name]
    renames = [s for s in trace if s.startswith("ALTER TABLE")]
    copied = plan.trackable() if name.startswith("online") else []
    assert renames == [
        f"ALTER TABLE {table.stage} RENAME TO {table.data}" for table in copied
    ]
    assert len(renames) == count


@pytest.mark.parametrize("name", [m[0] for m in MOVES])
def test_a_table_that_stays_physical_stays_put(traces, name):
    trace, plan, stays = traces[name]
    assert {tv.name for tv in stays} == {"Odd"}
    assert not {table.uid for table in plan.tables} & {tv.uid for tv in stays}
    for tv in stays:
        stage = f"{online.TRANSITIONAL_PREFIX}__{tv.uid}__"
        # The delta code (views and INSTEAD OF triggers) reads and writes
        # it; nothing else may name it as a target, nor its staging table.
        target = re.compile(
            rf"\b(TABLE|INTO|ON|TO)\s+(IF\s+\w+\s+\w+\s+)?{tv.data_table_name}\b"
        )
        moved = [
            s
            for s in trace
            if not s.startswith(("CREATE VIEW", "CREATE TRIGGER tg__"))
            and (target.search(s) or stage in s)
        ]
        assert moved == [], moved


@pytest.mark.parametrize("name", ["offline-S8", "offline-S4"])
def test_offline_move_is_one_transaction_without_capture(traces, name):
    trace = traces[name][0]
    assert [s for s in trace if s.split()[0] == "BEGIN"] == ["BEGIN"]
    assert not [s for s in trace if "SELECT COUNT(*)" in s]
    capture = (online.DIRTY_TABLE, f"{online.TRANSITIONAL_PREFIX}__cap__")
    assert not [s for s in trace if any(text in s for text in capture)]
    # It reads the journal once (nothing to supersede) and never writes it.
    journal = [s for s in trace if BACKFILL_TABLE in s]
    assert len(journal) == 1 and journal[0].startswith("SELECT"), journal


def test_online_move_keeps_its_schedule(traces):
    trace = traces["online-S4"][0]
    assert sum(s.split()[0] == "BEGIN" for s in trace) == 3  # prepare, chunk, cutover
    assert [s for s in trace if "SELECT COUNT(*)" in s]
    assert [s for s in trace if s.startswith(f"DELETE FROM {BACKFILL_TABLE}")]
