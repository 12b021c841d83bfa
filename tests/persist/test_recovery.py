"""Recovering engines from persisted catalogs: replay, verify, reuse."""

from __future__ import annotations

import itertools
import json
import re
import sqlite3
from typing import NamedTuple
from unittest.mock import ANY

import pytest

import repro
from repro.backend import codegen, emit, handlers
from repro.backend.compose import ViewComposer
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import CatalogCorruptError, CatalogError
from repro.workloads.tasky import build_tasky
from tests.backend.test_incremental_delta import (
    assert_installed_is_rendered,
    installed_text,
)

SCRIPT = """
CREATE SCHEMA VERSION v1 WITH
CREATE TABLE R(a INTEGER, b TEXT);
CREATE SCHEMA VERSION v2 FROM v1 WITH
ADD COLUMN c AS a * 2 INTO R;
"""


def stamp_2_upsert_row(
    target, columns, key_sql, value_sqls, *, guard=None, source=None, plain_table=False
):
    """``emit.upsert_row`` as emission stamp 2 rendered a view target: an
    UPDATE of the row, then an insert-if-absent (a row read from a ``FROM``
    item, which stamp 2 never rendered, keeps today's form)."""
    if plain_table or source is not None:
        return emit.upsert_row(
            target, columns, key_sql, value_sqls,
            guard=guard, source=source, plain_table=plain_table,
        )
    sets = ", ".join(f"{emit.q(c)} = {v}" for c, v in zip(columns, value_sqls))
    collist = ", ".join(["p", *emit.qcols(columns)])
    values = ", ".join([key_sql, *value_sqls])
    guard_sql = f" AND ({guard})" if guard is not None else ""
    return (
        f"UPDATE {target} SET {sets} WHERE p IS {key_sql}{guard_sql};\n  "
        f"INSERT INTO {target} ({collist}) SELECT {values} "
        f"WHERE NOT EXISTS (SELECT 1 FROM {target} WHERE p IS {key_sql}){guard_sql}"
    )


class Stamp3Composer(ViewComposer):
    """FROM aliases as emission stamp 3 numbered them: from one counter
    running through the whole script, not restarting with every view."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._run_wide = itertools.count()

    def _alias(self) -> str:
        return f"f{next(self._run_wide)}"


STAMP_4_CHECK = (
    "SELECT RAISE(ABORT, 'the row identifier p is immutable') WHERE NEW.p IS NOT OLD.p"
)


class Stamp4Renderer(codegen.Renderer):
    """UPDATE triggers as emission stamp 4 rendered them: the immutability
    check followed by the INSERT trigger's program."""

    def triggers(self, tv):
        insert, _update, delete = super().triggers(tv)
        update = (
            insert.replace(tv.trigger_name("INSERT"), tv.trigger_name("UPDATE"), 1)
            .replace("INSTEAD OF INSERT", "INSTEAD OF UPDATE", 1)
            .replace("\nBEGIN\n", f"\nBEGIN\n  {STAMP_4_CHECK};\n", 1)
        )
        return [insert, update, delete]


class Stamp5Renderer(codegen.Renderer):
    """Triggers as emission stamp 5 rendered them: every write into a view
    fires that view's trigger, none is inlined."""

    def row_program(self, *_hop):
        return None


class _Stamp6Row(NamedTuple):
    exists: object
    refs: dict
    source: str | None
    values: list


#: The stamp-6 partition program read the twin's row one scalar subquery
#: per column (its keeper's unified-view read is still rendered at S).
STAMP_6_TWIN = re.compile(r"\(SELECT (?!1\b)\w+ FROM put__\w+\)")


def stamp_6_to_unified(self, tv, op):
    """``PartitionHandler._to_unified`` as emission stamp 6 rendered it: the
    keeper tests the unified view's row, every aux membership is an
    ``INSERT OR REPLACE`` under its guard plus a ``DELETE`` under the
    negated guard, and the twin's row is one scalar subquery per column."""
    lens = self._lens()
    unified, first, second = self._tvs()
    roles, columns = lens.roles, lens.schema.column_names
    c_first, c_second = lens.c_first, lens.c_second
    key = "OLD.p" if op == "DELETE" else "NEW.p"
    new = emit.new_refs(columns)
    own = _Stamp6Row(op != "DELETE", new, None, list(new.values()))
    twin = _Stamp6Row(False, {}, None, [])
    twin_tv, alias = (second, "s") if tv is first else (first, "f")
    statements = []
    if twin_tv is not None:
        put = self.smo.put_table_name(self.role_of(twin_tv))
        statements += [
            f"DELETE FROM {put}",
            f"INSERT INTO {put} SELECT p, {', '.join(emit.qcols(columns))} "
            f"FROM {self.ctx.view(twin_tv)} WHERE p IS {key}",
        ]
        twin = _Stamp6Row(
            f"EXISTS (SELECT 1 FROM {put})",
            emit.new_refs(columns, row=alias),
            f"{put} {alias}",
            [f"(SELECT {emit.q(c)} FROM {put})" for c in columns],
        )
    f_row, s_row = (own, twin) if tv is first else (twin, own)

    def some(test, *rows):
        if not all(row.exists for row in rows):
            return False
        condition = test(*(row.refs for row in rows))
        sources = ", ".join(row.source for row in rows if row.source is not None)
        return f"EXISTS (SELECT 1 FROM {sources} WHERE {condition})" if sources else condition

    guarded, both, negated = handlers._guarded, handlers._all, handlers._not
    statements += guarded(f_row.exists, self.ctx.upsert, unified, key, f_row.values)
    statements += guarded(
        both(negated(f_row.exists), s_row.exists), self.ctx.upsert, unified, key, s_row.values
    )
    drefs = emit.new_refs(columns, row="d")
    neither = [handlers.cond_not_true(c, drefs) for c in (c_first, c_second) if c is not None]
    keeper = (
        f"EXISTS (SELECT 1 FROM {self.ctx.view(unified)} d WHERE d.p IS {key} "
        f"AND {' AND '.join(neither)})"
    )
    statements += guarded(
        both(negated(f_row.exists), negated(s_row.exists), negated(keeper)),
        self.ctx.delete, unified, key,
    )
    cond_true, cond_not_true = handlers.cond_true, handlers.cond_not_true
    members = [(roles.rstar, some(lambda f: cond_not_true(c_first, f), f_row), None)]
    if roles.second is not None and c_second is not None:
        splus = (
            f"SELECT {', '.join([key, *s_row.refs.values()])} "
            f"FROM {twin.source} WHERE {emit.rows_differ(f_row.refs, s_row.refs)}"
        )
        members += [
            (roles.rminus, both(
                negated(f_row.exists), some(lambda s: cond_true(c_first, s), s_row)
            ), None),
            (roles.splus, some(emit.rows_differ, f_row, s_row), splus),
            (roles.sminus, both(
                negated(s_row.exists), some(lambda f: cond_true(c_second, f), f_row)
            ), None),
            (roles.sstar, some(lambda s: cond_not_true(c_second, s), s_row), None),
        ]
    for role, present, payload in members:
        aux = self.smo.aux_table_name(role)
        if present is not False:
            where = "" if present is True else f" WHERE {present}"
            collist = ", ".join(["p", *emit.qcols(columns if payload else ())])
            select = payload or f"SELECT {key}{where}"
            statements.append(f"INSERT OR REPLACE INTO {aux} ({collist}) {select}")
        statements += guarded(negated(present), emit.delete_row, aux, key)
    return statements


def build_tasky_file(path: str):
    scenario = build_tasky(20)
    backend = LiveSqliteBackend.attach(scenario.engine, database=path)
    backend.close()
    return scenario.engine


class TestReopen:
    def test_serves_every_version_with_data(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        original = build_tasky_file(path)
        engine = repro.open(path)
        try:
            assert engine.version_names() == original.version_names()
            for name in engine.version_names():
                assert engine.genealogy.schema_version(name).describe() == (
                    original.genealogy.schema_version(name).describe()
                )
            conn = repro.connect(engine, "TasKy")
            assert len(conn.execute("SELECT author, task FROM Task").fetchall()) == 20
            conn.close()
        finally:
            engine.live_backend.close()

    def test_version_order_survives_restart(self, tmp_path):
        # Regression: genealogy iteration is insertion-ordered, and the
        # persisted catalog must preserve it — a name-sorted order would
        # reshuffle fingerprints and log positions between runs.
        path = str(tmp_path / "tasky.db")
        original = build_tasky_file(path)
        assert original.version_names() == ["TasKy", "Do!", "TasKy2"]
        engine = repro.open(path)
        try:
            assert engine.version_names() == ["TasKy", "Do!", "TasKy2"]
            assert engine.catalog_fingerprint() == original.catalog_fingerprint()
            assert engine.catalog_generation == original.catalog_generation
        finally:
            engine.live_backend.close()

    def test_recovery_survives_materialization_and_drop(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        scenario = build_tasky(10)
        backend = LiveSqliteBackend.attach(scenario.engine, database=path)
        scenario.engine.execute("MATERIALIZE 'TasKy2';")
        scenario.engine.drop_schema_version("TasKy")
        backend.close()
        engine = repro.open(path)
        try:
            assert engine.version_names() == ["Do!", "TasKy2"]
            assert {
                smo.uid for smo in engine.genealogy.evolution_smos() if smo.materialized
            } == {
                smo.uid
                for smo in scenario.engine.genealogy.evolution_smos()
                if smo.materialized
            }
            conn = repro.connect(engine, "TasKy2")
            assert len(conn.execute("SELECT task, prio FROM Task").fetchall()) == 10
            conn.close()
        finally:
            engine.live_backend.close()

    def test_reopen_after_dropping_version_behind_fk_smo(self, tmp_path):
        # Regression: the drop removed the SMO's shared ID table from the
        # file but not from the engine's layout, so the next open refused
        # the file ("physical table 'aux__1__ID' is missing").
        path = str(tmp_path / "fk.db")
        engine = repro.open(path)
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Task(author TEXT, task TEXT);"
        )
        conn = repro.connect(engine, "v1", autocommit=True)
        conn.execute("INSERT INTO Task(author, task) VALUES ('Ann', 'Write paper')")
        conn.close()
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Task "
            "INTO Task(task), Author(author) ON FOREIGN KEY author;"
        )
        engine.execute("DROP SCHEMA VERSION v2;")
        assert not any("aux__" in name for name in engine.database.table_names())
        engine.live_backend.close()
        again = repro.open(path)
        try:
            conn = repro.connect(again, "v1")
            assert conn.execute("SELECT author, task FROM Task").fetchall() == [
                ("Ann", "Write paper")
            ]
            conn.close()
        finally:
            again.live_backend.close()

    def test_open_missing_file_with_create_false(self, tmp_path):
        with pytest.raises(CatalogError, match="no persisted catalog"):
            repro.open(str(tmp_path / "nope.db"), create=False)

    def test_open_starts_empty_then_persists(self, tmp_path):
        path = str(tmp_path / "grow.db")
        engine = repro.open(path)
        engine.execute(SCRIPT)
        engine.live_backend.close()
        again = repro.open(path, create=False)
        try:
            assert again.version_names() == ["v1", "v2"]
        finally:
            again.live_backend.close()


class TestDeltaCodeReuse:
    def test_reopen_reuses_views_without_duplicates(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        engine = repro.open(path)
        backend = engine.live_backend
        try:
            assert backend.recovered
            assert backend.delta_reused
            views, triggers = codegen.generated_object_names(backend.connection)
            engine2 = None
            backend.close()
            engine2 = repro.open(path)
            backend2 = engine2.live_backend
            try:
                assert backend2.delta_reused
                assert (
                    codegen.generated_object_names(backend2.connection)
                    == (views, triggers)
                )
            finally:
                backend2.close()
        finally:
            if not backend._closed:
                backend.close()

    def test_legacy_delta_flatten_key_is_ignored(self, tmp_path):
        """Files written while the view emission was a persisted knob carry
        a ``delta_flatten`` meta row; it no longer decides anything."""
        import sqlite3

        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        handle = sqlite3.connect(path)
        handle.execute(
            "INSERT INTO _repro_catalog_meta (key, value) "
            "VALUES ('delta_flatten', 'false')"
        )
        handle.commit()
        handle.close()
        engine = repro.open(path)
        try:
            backend = engine.live_backend
            assert backend.recovered and backend.delta_reused
            assert not hasattr(backend.store.load(), "delta_flatten")
            conn = repro.connect(engine, "Do!")
            conn.execute("SELECT author, task FROM Todo").fetchall()
            conn.close()
        finally:
            engine.live_backend.close()

    @pytest.mark.parametrize(
        "older", ["unstamped", "stamp-2", "stamp-3", "stamp-4", "stamp-5", "stamp-6"]
    )
    def test_file_written_by_an_older_emitter_regenerates_once(
        self, tmp_path, monkeypatch, older
    ):
        """Delta code is reused only when this library's emitter wrote
        it: a file without the emission stamp, still holding the plain
        UNION views — or one stamped 2, whose triggers upsert a view in
        two statements, or 3, whose views number their aliases across
        the whole script, or 4, whose UPDATE triggers repeat the INSERT
        trigger's program, or 5, whose triggers fire one another through
        hops that only rename or recompute columns, or 6, whose partition
        keeper re-reads the unified view — is regenerated on open, once."""
        import sqlite3

        from repro.workloads.orders import build_orders

        path = str(tmp_path / "orders.db")
        two_statement = "WHERE NOT EXISTS (SELECT 1 FROM v"
        with monkeypatch.context() as patch:
            if older == "stamp-2":
                patch.setattr(handlers, "upsert_row", stamp_2_upsert_row)
                patch.setattr(codegen, "EMISSION_STAMP", 2)
            if older == "stamp-3":
                patch.setattr(codegen, "ViewComposer", Stamp3Composer)
                patch.setattr(codegen, "EMISSION_STAMP", 3)
            if older == "stamp-4":
                patch.setattr(codegen, "Renderer", Stamp4Renderer)
                patch.setattr(codegen, "EMISSION_STAMP", 4)
            if older == "stamp-5":
                patch.setattr(codegen, "Renderer", Stamp5Renderer)
                patch.setattr(codegen, "EMISSION_STAMP", 5)
            if older == "stamp-6":
                patch.setattr(handlers.PartitionHandler, "_to_unified", stamp_6_to_unified)
                patch.setattr(codegen, "EMISSION_STAMP", 6)
            backend = LiveSqliteBackend.attach(
                build_orders(2, 8, 2).engine, database=path
            )
            backend.close()

        def trigger_script(connection):
            return "\n".join(
                sql
                for (sql,) in connection.execute(
                    "SELECT sql FROM sqlite_master WHERE type = 'trigger'"
                )
            )

        def contents(connection):
            return {
                name: sorted(connection.execute(f"SELECT * FROM {name}").fetchall())
                for (name,) in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'view'"
                ).fetchall()
            }

        def view_script(connection):
            return dict(connection.execute(
                "SELECT name, sql FROM sqlite_master WHERE type = 'view'"
            ).fetchall())

        handle = sqlite3.connect(path)
        before = contents(handle)
        stamp_3_views = view_script(handle)
        compounds = handle.execute(
            "SELECT name, sql FROM sqlite_master WHERE type = 'view' "
            "AND sql LIKE '%UNION ALL%'"
        ).fetchall()
        assert compounds
        if older == "stamp-2":
            assert two_statement in trigger_script(handle)
        if older == "stamp-4":
            assert STAMP_4_CHECK in trigger_script(handle)
        if older == "stamp-6":
            assert STAMP_6_TWIN.search(trigger_script(handle))
        for name, sql in compounds if older == "unstamped" else ():
            # Dropping a view drops its INSTEAD OF triggers with it.
            triggers = handle.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'trigger' AND tbl_name = ?",
                (name,),
            ).fetchall()
            handle.execute(f"DROP VIEW {name}")
            handle.execute(sql.replace("\nUNION ALL\n", "\nUNION\n"))
            for (trigger,) in triggers:
                handle.execute(trigger)
        if older == "unstamped":
            handle.execute("DELETE FROM _repro_catalog_meta WHERE key = 'delta_emission'")
        handle.commit()
        assert contents(handle) == before
        handle.close()

        engine = repro.open(path)
        try:
            backend = engine.live_backend
            assert backend.recovered and not backend.delta_reused
            installed = view_script(backend.connection)
            for name, _sql in compounds:
                assert "\nUNION ALL\n" in installed[name]
            if older == "stamp-3":
                # Same views, renumbered: the last one no longer continues
                # where the one before it stopped.
                assert installed.keys() == stamp_3_views.keys()
                assert installed != stamp_3_views
                assert backend.last_install["dropped"] > 0
            if older == "stamp-4":
                # Every UPDATE trigger, and nothing else, is replaced.
                views = len(installed)
                assert backend.last_install["dropped"] == views
                assert backend.last_install["created"] == views
            if older == "stamp-5":
                # Same views; the triggers that wrote a one-statement hop
                # are replaced.
                assert installed == stamp_3_views
                assert backend.last_install["created"] == backend.last_install["dropped"] > 0
            if older == "stamp-6":
                # Same views; the partitions' INSERT and DELETE triggers are
                # replaced.
                assert installed == stamp_3_views
                assert backend.last_install["created"] == backend.last_install["dropped"] == 4
            assert two_statement not in trigger_script(backend.connection)
            assert STAMP_4_CHECK not in trigger_script(backend.connection)
            assert not STAMP_6_TWIN.search(trigger_script(backend.connection))
            assert contents(backend.connection) == before
            assert backend.store.load().delta_emission == codegen.EMISSION_STAMP
        finally:
            engine.live_backend.close()
        engine = repro.open(path)
        try:
            assert engine.live_backend.delta_reused
        finally:
            engine.live_backend.close()

    def test_reattach_same_engine_is_idempotent(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        scenario = build_tasky(5)
        backend = LiveSqliteBackend.attach(scenario.engine, database=path)
        views, triggers = codegen.generated_object_names(backend.connection)
        backend.close()
        again = LiveSqliteBackend.attach(scenario.engine, database=path)
        try:
            assert again.recovered and again.delta_reused
            assert codegen.generated_object_names(again.connection) == (views, triggers)
            conn = repro.connect(scenario.engine, "TasKy", backend=again)
            assert len(conn.execute("SELECT author, task FROM Task").fetchall()) == 5
            conn.close()
        finally:
            again.close()

    def test_second_attach_while_attached_is_refused(self, tmp_path):
        """One engine, one live backend.  A second attach used to be
        accepted, and the next evolution then failed with a raw
        ``IntegrityError`` after the first backend had committed it."""
        path = str(tmp_path / "one.db")
        engine = repro.InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine, database=path)
        try:
            with pytest.raises(CatalogError, match=r"close\(\)"):
                LiveSqliteBackend.attach(engine, database=path)
            assert engine.live_backend is backend
            engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO b;")
            assert backend.catalog_stats()["on_disk_generation"] == engine.catalog_generation
        finally:
            backend.close()

    def test_attached_engine_cannot_seed_another_database(self, tmp_path):
        """The rows went to the first database; attaching the engine to a
        fresh one used to serve the pre-attach snapshot, silently losing
        every write since."""
        first, second = str(tmp_path / "first.db"), str(tmp_path / "second.db")
        engine = repro.InVerDa()
        engine.execute(SCRIPT)
        conn = repro.connect(engine, "v1", autocommit=True)
        conn.execute("INSERT INTO R(a, b) VALUES (1, 'before')")
        conn.close()
        backend = LiveSqliteBackend.attach(engine, database=first)
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        conn.execute("INSERT INTO R(a, b) VALUES (2, 'after')")
        conn.close()
        backend.close()
        with pytest.raises(CatalogError, match=r"repro\.open"):
            LiveSqliteBackend.attach(engine, database=second)
        reopened = repro.open(first)
        try:
            conn = repro.connect(reopened, "v2")
            assert conn.execute("SELECT a FROM R ORDER BY a").fetchall() == [(1,), (2,)]
            conn.close()
        finally:
            reopened.live_backend.close()

    def test_reattach_different_catalog_refused(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        other = repro.InVerDa()
        other.execute(SCRIPT)
        with pytest.raises(CatalogError, match="different catalog"):
            LiveSqliteBackend.attach(other, database=path)


class TestCorruption:
    def _corrupt(self, path: str) -> str:
        """Drop one physical data table behind the catalog's back."""
        import sqlite3

        connection = sqlite3.connect(path)
        (name,) = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name LIKE 'd_%' ORDER BY name LIMIT 1"
        ).fetchone()
        connection.executescript(f'DROP TABLE "{name}"')
        connection.close()
        return name

    def test_missing_table_detected(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        name = self._corrupt(path)
        with pytest.raises(CatalogCorruptError, match=name):
            repro.open(path)

    def test_repair_recreates_missing_table_empty(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        self._corrupt(path)
        engine = repro.open(path, repair=True)
        try:
            conn = repro.connect(engine, "TasKy")
            conn.execute("SELECT author, task, prio FROM Task").fetchall()
            conn.close()
        finally:
            engine.live_backend.close()

    def test_force_skips_verification(self, tmp_path):
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        self._corrupt(path)
        engine = repro.open(path, force=True)
        assert engine.version_names() == ["TasKy", "Do!", "TasKy2"]
        engine.live_backend.close()


SPLIT = "CREATE SCHEMA VERSION v3 FROM v2 WITH SPLIT TABLE R INTO Odd WITH a % 2 = 1;"


def read_mark(path: str):
    """The ``verified_at`` meta row of a closed file, as stored."""
    handle = sqlite3.connect(path)
    try:
        row = handle.execute(
            "SELECT value FROM _repro_catalog_meta WHERE key = 'verified_at'"
        ).fetchone()
    finally:
        handle.close()
    return None if row is None else row[0]


def tamper(path: str, *statements: str) -> None:
    handle = sqlite3.connect(path)
    try:
        for statement in statements:
            assert handle.execute(statement).rowcount != 0, statement
        handle.commit()
    finally:
        handle.close()


def hand_edit_a_view(path: str) -> None:
    """Another body under the same name, every trigger put back."""
    handle = sqlite3.connect(path)
    try:
        (sql,) = handle.execute(
            "SELECT sql FROM sqlite_master WHERE name = 'v1__R'"
        ).fetchone()
        triggers = handle.execute(
            "SELECT sql FROM sqlite_master WHERE type = 'trigger' AND tbl_name = 'v1__R'"
        ).fetchall()
        handle.execute("DROP VIEW v1__R")
        handle.execute(sql.replace("AS\nSELECT", "AS\nSELECT DISTINCT", 1))
        for (trigger,) in triggers:
            handle.execute(trigger)
        handle.commit()
    finally:
        handle.close()


def evolve_once(path: str) -> None:
    engine = repro.open(path)
    engine.execute("CREATE SCHEMA VERSION v4 FROM v3 WITH RENAME COLUMN b IN Odd TO bb;")
    engine.live_backend.close()


def drop_a_data_table(path: str) -> None:
    handle = sqlite3.connect(path)
    (name,) = handle.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' AND name LIKE 'd\\_\\_%' ESCAPE '\\'"
    ).fetchone()
    handle.close()
    tamper(path, f'DROP TABLE "{name}"')


TAMPERS = {
    "hand-edited view body": (hand_edit_a_view, {}),
    "stripped trigger": (lambda path: tamper(path, "DROP TRIGGER tg__2__delete"), {}),
    "older emission stamp": (
        lambda path: tamper(
            path, "UPDATE _repro_catalog_meta SET value = '3' WHERE key = 'delta_emission'"
        ),
        {},
    ),
    "log payload edited in place": (
        lambda path: tamper(
            path,
            "UPDATE _repro_catalog_log SET payload = "
            "replace(payload, '((a % 2) = 1)', '((a % 2) = 0)') WHERE seq = 3",
        ),
        {},
    ),
    "committed transition": (evolve_once, {}),
    "mark deleted": (
        lambda path: tamper(
            path, "DELETE FROM _repro_catalog_meta WHERE key = 'verified_at'"
        ),
        {},
    ),
    "mark is garbage": (
        lambda path: tamper(
            path, "UPDATE _repro_catalog_meta SET value = '{not json' WHERE key = 'verified_at'"
        ),
        {},
    ),
    "mark is not a mark": (
        lambda path: tamper(
            path, "UPDATE _repro_catalog_meta SET value = '[1, 2]' WHERE key = 'verified_at'"
        ),
        {},
    ),
    "repair after a dropped table": (drop_a_data_table, {"repair": True}),
}


class TestVerifiedAtMark:
    """An open skips the static verifier exactly when a mark vouches for
    the file as it is; anything else runs it in full and leaves a mark."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.check import delta

        calls: list[dict] = []
        real = delta.verify_delta_code

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(delta, "verify_delta_code", counting)
        return calls

    @staticmethod
    def outcomes(engine) -> tuple[float, float]:
        counter = engine.metrics.get("repro_recovery_verify_total")
        if counter is None:
            return (0, 0)
        return counter.value(outcome="full"), counter.value(outcome="skipped")

    @staticmethod
    def build(path: str) -> None:
        engine = repro.open(path)
        engine.execute(SCRIPT + SPLIT)
        conn = repro.connect(engine, "v1", autocommit=True)
        conn.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)", [(i, f"r{i}") for i in range(8)]
        )
        conn.close()
        engine.live_backend.close()

    def marked(self, tmp_path, calls) -> str:
        """A file whose last open verified in full and left a mark."""
        path = str(tmp_path / "marked.db")
        self.build(path)
        assert read_mark(path) is None  # a plain install verifies and marks nothing
        engine = repro.open(path)
        try:
            assert len(calls) == 1 and calls[0]["backend"] is engine.live_backend
            assert self.outcomes(engine) == (1, 0)
            assert engine.live_backend.delta_reused
            assert engine.last_check["scope"] == "recovery"
            assert engine.last_check["errors"] == 0
            assert "verify_delta_ms" in engine.live_backend.recovery_phases
        finally:
            engine.live_backend.close()
        mark = json.loads(read_mark(path))
        assert mark["generation"] == 3 and mark["summary"]["errors"] == 0
        del calls[:]
        return path

    def test_second_open_skips_the_verifier(self, tmp_path, calls):
        path = self.marked(tmp_path, calls)
        before = read_mark(path)
        engine = repro.open(path)
        try:
            backend = engine.live_backend
            assert calls == []
            assert self.outcomes(engine) == (0, 1)
            assert backend.recovered and backend.delta_reused
            assert engine.last_check["scope"] == "recovery"
            assert engine.last_check["errors"] == 0
            assert engine.last_check["verified_at"] == engine.catalog_generation
            phases = backend.catalog_stats()["recovery"]
            assert phases["verify_skipped"] is True and "verify_delta_ms" not in phases
            assert phases["install"] is None
            conn = repro.connect(engine, "v3")
            assert conn.execute("SELECT a FROM Odd ORDER BY a").fetchall() == [
                (1,), (3,), (5,), (7,)
            ]
            conn.close()
            assert_installed_is_rendered(backend, "skipped open")
        finally:
            engine.live_backend.close()
        assert read_mark(path) == before

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_anything_else_falls_to_the_full_path(self, tmp_path, calls, case):
        path = self.marked(tmp_path, calls)
        change, options = TAMPERS[case]
        change(path)
        del calls[:]  # evolve_once opens the file itself
        engine = repro.open(path, **options)
        try:
            backend = engine.live_backend
            assert len(calls) == 1, case
            assert self.outcomes(engine) == (1, 0)
            assert engine.last_check["scope"] == "recovery"
            assert engine.last_check["errors"] == 0
            assert "verified_at" not in engine.last_check
            assert_installed_is_rendered(backend, case)
            if case == "hand-edited view body":
                # Every name was there: the parent reused this file as it
                # was.  The diff re-creates the view and its triggers.
                assert not backend.delta_reused
                assert backend.last_install == {"created": 4, "dropped": 4, "kept": 8, "bytes": ANY}
                counter = engine.metrics.get("repro_delta_objects_total")
                assert counter.value(action="created") == 4
            if case == "stripped trigger":
                assert backend.last_install == {"created": 1, "dropped": 0, "kept": 11, "bytes": ANY}
            if case == "log payload edited in place":
                # Same shapes, so the fingerprints still match; only the
                # log digest under the mark sees the edit.
                assert "= 0" in installed_text(backend.connection)["v2__Odd"]
        finally:
            engine.live_backend.close()
        # A fresh mark: the one the next open goes by.
        assert json.loads(read_mark(path))["summary"]["errors"] == 0
        del calls[:]
        engine = repro.open(path)
        try:
            assert calls == [] and self.outcomes(engine) == (0, 1), case
        finally:
            engine.live_backend.close()

    def test_force_neither_honours_nor_writes_a_mark(self, tmp_path, calls):
        path = str(tmp_path / "forced.db")
        self.build(path)
        for _ in range(2):
            engine = repro.open(path, force=True)
            try:
                assert calls == [] and self.outcomes(engine) == (0, 0)
                assert engine.last_check is None
            finally:
                engine.live_backend.close()
            assert read_mark(path) is None
        path = self.marked(tmp_path, calls)
        before = read_mark(path)
        engine = repro.open(path, force=True)
        try:
            assert calls == [] and self.outcomes(engine) == (0, 0)
            assert engine.last_check is None
        finally:
            engine.live_backend.close()
        assert read_mark(path) == before

    def test_read_only_file_opens_without_a_mark(self, tmp_path, calls):
        path = str(tmp_path / "readonly.db")
        self.build(path)
        for _ in range(2):
            engine = repro.open(f"file:{path}?mode=ro")
            try:
                assert len(calls) == 1 and self.outcomes(engine) == (1, 0)
                assert engine.last_check["errors"] == 0
                conn = repro.connect(engine, "v2")
                assert len(conn.execute("SELECT a, c FROM R").fetchall()) == 8
                conn.close()
            finally:
                engine.live_backend.close()
            del calls[:]
            assert read_mark(path) is None

    def test_file_without_the_mark_key_verifies_once(self, tmp_path, calls):
        """What a file written before the mark existed looks like: every
        meta key but ``verified_at``."""
        path = str(tmp_path / "tasky.db")
        build_tasky_file(path)
        assert read_mark(path) is None
        for expected in ((1, 0), (0, 1)):
            engine = repro.open(path)
            try:
                assert self.outcomes(engine) == expected
                assert engine.live_backend.delta_reused
            finally:
                engine.live_backend.close()
        assert len(calls) == 1

    def test_transition_gate_marks_and_a_plain_transition_does_not(self, tmp_path, calls):
        path = str(tmp_path / "gated.db")
        engine = repro.InVerDa()
        backend = LiveSqliteBackend.attach(engine, database=path, verify_transitions=True)
        engine.execute(SCRIPT)
        mark = json.loads(read_mark(path))
        assert mark["generation"] == engine.catalog_generation
        assert len(calls) == 2 and all(call["backend"] is backend for call in calls)
        backend.close()
        del calls[:]
        engine = repro.open(path)  # no gate from here on
        try:
            assert calls == [] and self.outcomes(engine) == (0, 1)
            engine.execute(SPLIT)
            assert calls == []
        finally:
            engine.live_backend.close()
        # The transition moved the generation: the mark is there, and stale.
        assert json.loads(read_mark(path)) == mark
        engine = repro.open(path)
        try:
            assert len(calls) == 1 and self.outcomes(engine) == (1, 0)
        finally:
            engine.live_backend.close()


class TestMultiProcess:
    def test_second_opener_sees_catalog_move(self, tmp_path):
        path = str(tmp_path / "shared.db")
        writer = repro.open(path)
        writer.execute(SCRIPT)
        reader = repro.open(path)
        try:
            assert reader.live_backend.catalog_stats()["stale"] is False
            writer.execute(
                "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN b IN R TO bb;"
            )
            stats = reader.live_backend.catalog_stats()
            assert stats["on_disk_generation"] == writer.catalog_generation
            assert stats["on_disk_generation"] > reader.catalog_generation
            assert stats["stale"] is True
            assert writer.live_backend.catalog_stats()["stale"] is False
        finally:
            reader.live_backend.close()
            writer.live_backend.close()
