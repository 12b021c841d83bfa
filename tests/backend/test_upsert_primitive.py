"""The write primitive of the delta code: ``INSERT`` into a generated view
is an upsert.

Every handler emits one ``INSERT INTO <view> (p, ...)`` per hop and relies
on the target view's ``INSTEAD OF INSERT`` program doing what its UPDATE
does, so codegen renders one upsert program per view and the UPDATE
trigger hands its row to it.  A handler (or a SQLite) that told the two
apart would break that silently; these tests name it:

(a) on every view of every differential chain, under every valid
    materialization and both view emissions, ``INSERT`` of an existing
    ``p`` leaves every stored table exactly as the ``UPDATE`` does, and
    ``INSERT`` of a fresh row equals the memory engine;
(b) the installed UPDATE trigger is one ``INSERT`` into its own view,
    keyed by the ``p``-immutability check — or, where the INSERT trigger's
    program is one statement, that statement under the same key;
(c) no view target takes a conflict clause (SQLite would apply it to
    every statement of the triggers the write fires), and there are
    exactly two write programs.

(a) depends on the bundled SQLite's handling of ``INSERT`` on views with
``INSTEAD OF`` triggers, so failures name the version.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest

from repro.backend import codegen
from repro.backend.emit import q, qcols
from repro.backend.handlers import HandlerContext, handler_for
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.errors import BackendError
from repro.relational.types import DataType
from tests.backend.test_differential import CHAINS, WORDS, _apply_materialization
from tests.testing import DualSystem, NestedEmissionBackend
from tests.testing.compare import generated_id_spaces

SQLITE = f"SQLite {sqlite3.sqlite_version}"

# The differential chains plus the condition lens (generated identifiers
# on both sides, a staged put on every write).
ALL_CHAINS = {
    **CHAINS,
    "condition_decompose": (
        "CREATE TABLE Pair(x INTEGER, y INTEGER)",
        {"Pair": ["x", "y"]},
        ["DECOMPOSE TABLE Pair INTO Xs(x), Ys(y) ON x = y"],
    ),
}
EMISSIONS = {"composed": LiveSqliteBackend, "nested": NestedEmissionBackend}


def _build(name: str, backend_class, rng: random.Random) -> DualSystem:
    create, load, evolutions = ALL_CHAINS[name]
    ds = DualSystem()
    ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH {create};")
    ds.backend = backend_class.attach(ds.sq)
    for table, columns in load.items():
        rows = [
            tuple(
                rng.choice(WORDS) if c in ("author", "task", "w") else rng.randint(0, 6)
                for c in columns
            )
            for _ in range(6)
        ]
        if name == "condition_decompose":
            rows = [(i, i) for i in range(1, 7)]
        ds.runmany(
            "v1",
            f"INSERT INTO {table}({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})",
            rows,
        )
    for step, evolution in enumerate(evolutions, start=2):
        source = f"v{step - 1}"
        if isinstance(evolution, tuple):
            evolution, source = evolution
        ds.execute_ddl(f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};")
    return ds


def _stored_state(connection) -> dict[str, list[tuple]]:
    """Every table of the database — data, aux, scratch, sequences."""
    tables = [
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
    ]
    return {
        table: sorted(
            connection.execute(f"SELECT * FROM {q(table)}").fetchall(),
            key=lambda row: [(v is None, str(type(v)), v) for v in row],
        )
        for table in tables
    }


def _outcome(connection, sql: str, parameters: tuple):
    """The stored state ``sql`` leads to (or the error it raises), undone."""
    connection.execute("SAVEPOINT probe")
    try:
        try:
            connection.execute(sql, parameters)
        except sqlite3.DatabaseError as exc:
            return f"{type(exc).__name__}: {exc}"
        return _stored_state(connection)
    finally:
        connection.execute("ROLLBACK TO probe")
        connection.execute("RELEASE probe")


def _changed(tv, identifiers, row: tuple, rng: random.Random) -> tuple:
    """``row`` with every payload column changed; generated identifiers
    (and the key they mirror) stay — rewriting those is a put conflict,
    not an upsert."""
    values = []
    for column, value in zip(tv.schema.columns, row):
        if column.name in identifiers or column.name == tv.key_column:
            values.append(value)
        elif column.dtype == DataType.TEXT:
            values.append(rng.choice([w for w in WORDS if w != value]))
        else:
            values.append((value or 0) + rng.randint(1, 3))
    return tuple(values)


def _check_views(ds: DualSystem, rng: random.Random, context: str) -> int:
    connection = ds.backend.connection
    identifiers = generated_id_spaces(ds.sq.genealogy)
    compared = 0
    for tv in codegen.active_table_versions(ds.sq):
        columns = tv.schema.column_names
        collist = ", ".join(qcols(columns))
        rows = connection.execute(
            f"SELECT p, {collist} FROM {q(tv.view_name)} ORDER BY p LIMIT 3"
        ).fetchall()
        for p, *row in rows:
            new = _changed(tv, identifiers.get(tv.uid, {}), tuple(row), rng)
            updated = _outcome(
                connection,
                f"UPDATE {q(tv.view_name)} "
                f"SET {', '.join(f'{c} = ?' for c in qcols(columns))} WHERE p = ?",
                (*new, p),
            )
            inserted = _outcome(
                connection,
                f"INSERT INTO {q(tv.view_name)} (p, {collist}) "
                f"VALUES ({', '.join('?' for _ in range(len(columns) + 1))})",
                (p, *new),
            )
            assert not isinstance(updated, str), (
                f"[{context}] {SQLITE}: UPDATE {tv.view_name} p={p} {new}: {updated}"
            )
            assert inserted == updated, (
                f"[{context}] {SQLITE}: INSERT of the existing p={p} into "
                f"{tv.view_name} {new} does not equal the UPDATE"
            )
            compared += 1
    return compared


def _insert_fresh_rows(ds: DualSystem, rng: random.Random, context: str) -> None:
    for version in sorted(ds.mem.genealogy.active_versions(), key=lambda v: v.name):
        for table in sorted(version.table_names()):
            tv = version.table_version(table)
            columns = [c for c in tv.schema.columns if c.name != tv.key_column]
            values = tuple(
                rng.choice(WORDS) if c.dtype == DataType.TEXT else rng.randint(0, 6)
                for c in columns
            )
            sql = (
                f"INSERT INTO {table}({', '.join(c.name for c in columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})"
            )
            ds.run(version.name, sql, values)
            ds.check(f"{context} {SQLITE} {version.name}: {sql} {values}")


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("name", sorted(ALL_CHAINS))
def test_insert_into_a_view_is_an_upsert(name, emission):
    rng = random.Random(11)
    ds = _build(name, EMISSIONS[emission], rng)
    try:
        compared = _check_views(ds, rng, f"{name}/{emission}/initial")
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        for index in range(count):
            _apply_materialization(ds, index)
            context = f"{name}/{emission}/materialization-{index}"
            compared += _check_views(ds, rng, context)
            _insert_fresh_rows(ds, rng, context)
        assert compared > count
    finally:
        ds.close()


def _trigger_bodies(connection) -> dict[str, str]:
    """Trigger name -> the text between BEGIN and END, as installed."""
    return {
        name: sql[sql.index("\nBEGIN\n") + len("\nBEGIN\n") : sql.rindex("\nEND")]
        for name, sql in connection.execute(
            "SELECT name, sql FROM sqlite_master WHERE type = 'trigger'"
        )
    }


@pytest.mark.parametrize("name", sorted(ALL_CHAINS))
def test_insert_and_update_triggers_share_one_program(name):
    ds = _build(name, LiveSqliteBackend, random.Random(3))
    try:
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        for index in range(count):
            _apply_materialization(ds, index)
            bodies = _trigger_bodies(ds.backend.connection)
            views = codegen.active_table_versions(ds.sq)
            assert len(bodies) == 3 * len(views)
            for tv in views:
                new = ", ".join(f"NEW.{c}" for c in qcols(tv.schema.column_names))
                delegation = (
                    f"  INSERT INTO {q(tv.view_name)} VALUES ({codegen.IMMUTABLE_KEY}, {new});"
                )
                insert = bodies[tv.trigger_name("INSERT")]
                inlined = insert.replace("VALUES (NEW.p", f"VALUES ({codegen.IMMUTABLE_KEY}", 1)
                one_statement = ";\n" not in insert and inlined != insert
                assert bodies[tv.trigger_name("UPDATE")] in (
                    (delegation, inlined) if one_statement else (delegation,)
                ), f"{name}/materialization-{index}: {tv.view_name}"
    finally:
        ds.close()


@pytest.mark.parametrize("name", sorted(ALL_CHAINS))
def test_no_view_target_takes_a_conflict_clause(name):
    ds = _build(name, LiveSqliteBackend, random.Random(3))
    try:
        views = {tv.view_name for tv in codegen.active_table_versions(ds.sq)}
        script = "\n".join(codegen.trigger_statements(ds.sq))
        replaced = set(re.findall(r"INSERT OR REPLACE INTO (\w+)", script))
        assert replaced and not replaced & views
        # ... and none re-emulates the upsert with a second look at itself.
        probed = set(re.findall(r"WHERE NOT EXISTS \(SELECT 1 FROM (\w+) WHERE p IS", script))
        assert not probed & views
        assert "WHERE 1" not in script
    finally:
        ds.close()


def test_there_are_exactly_two_write_programs():
    ds = _build("columns_then_split", LiveSqliteBackend, random.Random(3))
    try:
        ctx = HandlerContext(ds.sq)
        for tv in codegen.active_table_versions(ds.sq):
            route = codegen.route_for(ds.sq, tv)
            if route is None:
                continue
            handler = handler_for(ctx, route[0])
            assert handler.write_statements(tv, "UPSERT")
            assert handler.write_statements(tv, "DELETE")
            for op in ("INSERT", "UPDATE", "upsert"):
                with pytest.raises(BackendError, match="no write program"):
                    handler.write_statements(tv, op)
    finally:
        ds.close()
