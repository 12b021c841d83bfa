"""Read parity and generated-artifact structure of the live backend."""

from __future__ import annotations

import pytest

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.workloads.tasky import build_tasky
from tests.testing import DualSystem
from tests.testing.compare import assert_states_match, visible_state


def test_tasky_read_parity_every_version():
    scenario = build_tasky(30)
    # Read before attaching: attach hands the engine's rows to SQLite.
    expected = visible_state(scenario.engine)
    assert any(expected.values())
    backend = LiveSqliteBackend.attach(scenario.engine)
    state = visible_state(scenario.engine, backend)
    # The engine's own reads agree with SQLite's generated views verbatim
    # (same identifiers: the backend was attached to this very engine).
    for key, rows in expected.items():
        assert state[key] == rows, key


def test_condition_decompose_reads():
    """The condition SMOs have no rule-generated views; the backend's
    templates must still serve them (the old snapshot backend could not)."""
    ds = DualSystem()
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Pair(x INTEGER, y INTEGER);"
    )
    ds.attach()
    ds.runmany(
        "v1",
        "INSERT INTO Pair(x, y) VALUES (?, ?)",
        [(1, 1), (2, 2), (3, 4), (5, 5)],
    )
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH "
        "DECOMPOSE TABLE Pair INTO Xs(x), Ys(y) ON x = y;"
    )
    ds.check("cond reads")
    ds.close()


def test_generated_sql_contains_views_and_triggers():
    scenario = build_tasky(5)
    backend = LiveSqliteBackend.attach(scenario.engine)
    sql = backend.generated_sql()
    assert sql.count("CREATE VIEW") == 6  # one per table version (3 versions)
    assert "INSTEAD OF INSERT" in sql
    assert "INSTEAD OF UPDATE" in sql
    assert "INSTEAD OF DELETE" in sql


def test_sqlite_master_round_trip_on_evolution():
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
    backend = LiveSqliteBackend.attach(engine)
    views_before = {
        row[0]
        for row in backend.connection.execute(
            "SELECT name FROM sqlite_master WHERE type='view'"
        )
    }
    engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a INTO R;")
    views_after = {
        row[0]
        for row in backend.connection.execute(
            "SELECT name FROM sqlite_master WHERE type='view'"
        )
    }
    assert views_before < views_after


def test_drop_schema_version_removes_scaffolding():
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a TEXT, w TEXT);")
    backend = LiveSqliteBackend.attach(engine)
    engine.execute(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH "
        "DECOMPOSE TABLE R INTO S(a), T(w) ON FK ref;"
    )
    assert any(name.startswith("put__") for name in backend.table_names())
    engine.execute("DROP SCHEMA VERSION v2;")
    leftovers = [
        name
        for name in backend.table_names()
        if name.startswith(("put__", "aux__"))
    ]
    assert leftovers == []


def test_drop_schema_version_regenerates():
    ds = DualSystem()
    ds.execute_ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
    ds.attach()
    ds.runmany("v1", "INSERT INTO R(a) VALUES (?)", [(1,), (2,)])
    ds.execute_ddl("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a * 2 INTO R;")
    ds.run("v2", "INSERT INTO R(a, b) VALUES (3, 9)")
    ds.execute_ddl("DROP SCHEMA VERSION v2;")
    ds.check("after drop")
    ds.run("v1", "INSERT INTO R(a) VALUES (4)")
    ds.check("write after drop")
    ds.close()
