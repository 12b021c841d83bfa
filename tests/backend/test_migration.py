"""MATERIALIZE as an in-place SQL migration: every version's visible
contents must be untouched (identifiers included), while the physical
table layout actually moves."""

from __future__ import annotations

import pytest

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.sql.connection import connect
from repro.workloads.tasky import build_tasky
from tests.testing.compare import visible_state


def _physical_layout(backend: LiveSqliteBackend) -> set[str]:
    return {
        name
        for name in backend.table_names()
        if name.startswith("d__") or name.startswith("aux__")
    }


def test_tasky_migration_cycle_preserves_contents():
    scenario = build_tasky(40)
    engine = scenario.engine
    backend = LiveSqliteBackend.attach(engine)
    conn = connect(engine, "TasKy", autocommit=True)
    before = visible_state(engine, backend)
    layouts = set()
    for target in ("TasKy2", "Do!", "TasKy"):
        conn.execute(f"MATERIALIZE '{target}';")
        layouts.add(frozenset(_physical_layout(backend)))
        assert visible_state(engine, backend) == before, f"contents moved at {target}"
    # The data actually migrated: three targets, three distinct layouts.
    assert len(layouts) == 3


def test_migration_walk_over_all_valid_schemas():
    scenario = build_tasky(25)
    engine = scenario.engine
    backend = LiveSqliteBackend.attach(engine)
    before = visible_state(engine, backend)
    schemas = enumerate_valid_materializations(engine.genealogy)
    assert len(schemas) == 5  # the paper's Table 2
    for schema in schemas:
        engine.apply_materialization(schema)
        assert visible_state(engine, backend) == before


def test_writes_keep_working_after_migration():
    scenario = build_tasky(10)
    engine = scenario.engine
    LiveSqliteBackend.attach(engine)
    conn = connect(engine, "TasKy", autocommit=True)
    conn.execute("MATERIALIZE 'TasKy2';")
    conn.execute("INSERT INTO Task(author, task, prio) VALUES ('Post', 'migration write', 1)")
    do = connect(engine, "Do!", autocommit=True)
    rows = do.execute("SELECT author, task FROM Todo WHERE author = 'Post'").fetchall()
    assert rows == [("Post", "migration write")]
    tasky2 = connect(engine, "TasKy2", autocommit=True)
    authors = tasky2.execute("SELECT name FROM Author WHERE name = 'Post'").fetchall()
    assert authors == [("Post",)]


@pytest.mark.parametrize("first,second", [("split", "add_column"), ("decompose_pk", "drop_column")])
def test_micro_chain_migrations(first, second):
    from micro import build_two_smo_scenario

    engine = build_two_smo_scenario(first, second, rows=30)
    backend = LiveSqliteBackend.attach(engine)
    before = visible_state(engine, backend)
    for schema in enumerate_valid_materializations(engine.genealogy):
        engine.apply_materialization(schema)
        assert visible_state(engine, backend) == before


def test_attach_hands_the_rows_over(tmp_path):
    """After attach the engine is catalog + storage layout: its in-memory
    tables hold no rows — so no MATERIALIZE re-derives them — while every
    version keeps serving all of them through the backend."""
    rows = 5000
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Item(k INTEGER, grp INTEGER, note TEXT);"
    )
    conn = repro.connect(engine, "v1", autocommit=True)
    conn.executemany(
        "INSERT INTO Item(k, grp, note) VALUES (?, ?, ?)",
        [(i, i % 7, f"n{i}") for i in range(rows)],
    )
    conn.close()
    engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN dbl AS k * 2 INTO Item;")
    engine.execute("CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN note IN Item TO memo;")
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "items.db"))

    def check(context: str) -> None:
        held = {name: len(table) for name, table in engine.database.tables.items()}
        assert held and not any(held.values()), f"{context}: engine memory holds {held}"
        for version in ("v1", "v2", "v3"):
            assert len(backend.select(version, "Item")) == rows, f"{context}: {version}"

    try:
        check("attached")
        layout = set(engine.database.tables)
        engine.execute("MATERIALIZE 'v3';")
        check("offline move")
        assert set(engine.database.tables) != layout
        engine.execute("MATERIALIZE ONLINE 'v1';")
        check("online move")
        assert set(engine.database.tables) == layout
    finally:
        backend.close()
