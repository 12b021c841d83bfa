"""Recovering engines from persisted catalogs: replay, verify, reuse."""

from __future__ import annotations

import itertools

import pytest

import repro
from repro.backend import codegen, emit, handlers
from repro.backend.compose import ViewComposer
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import CatalogCorruptError, CatalogError
from repro.workloads.tasky import build_tasky

SCRIPT = """
CREATE SCHEMA VERSION v1 WITH
CREATE TABLE R(a INTEGER, b TEXT);
CREATE SCHEMA VERSION v2 FROM v1 WITH
ADD COLUMN c AS a * 2 INTO R;
"""


def stamp_2_upsert_row(target, columns, key_sql, value_sqls, *, guard=None, plain_table=False):
    """``emit.upsert_row`` as emission stamp 2 rendered a view target: an
    UPDATE of the row, then an insert-if-absent."""
    if plain_table:
        return emit.upsert_row(
            target, columns, key_sql, value_sqls, guard=guard, plain_table=True
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

    @pytest.mark.parametrize("older", ["unstamped", "stamp-2", "stamp-3"])
    def test_file_written_by_an_older_emitter_regenerates_once(
        self, tmp_path, monkeypatch, older
    ):
        """Delta code is reused only when this library's emitter wrote
        it: a file without the emission stamp, still holding the plain
        UNION views — or one stamped 2, whose triggers upsert a view in
        two statements, or 3, whose views number their aliases across
        the whole script — is regenerated on open, once."""
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
            assert two_statement not in trigger_script(backend.connection)
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
