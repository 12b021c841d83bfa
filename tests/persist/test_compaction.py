"""Retirement and log compaction: an open replays what the catalog is, not
everything it was.

A dropped version *retires* once no SMO it created survives and no
retained version names it as parent; a drop that leaves the log more than
twice as long as a snapshot of the catalog rewrites it as that snapshot.
Neither may be visible: a reopen serves the same catalog — versions,
materialization, physical names, delta code — as the process that never
closed, and a retired name is refused and reported as dropped the same way
before and after.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

import repro
from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.check.__main__ import run as check_cli
from repro.errors import CatalogError
from repro.persist.fingerprint import version_fingerprint, version_payload
from repro.persist.recovery import catalog_identity
from repro.persist.store import (
    FORMAT_VERSION,
    LOG_TABLE,
    META_TABLE,
    SCHEMAS_TABLE,
    VERSIONS_TABLE,
    evolution_entry,
    snapshot_entries,
)
from tests.backend.test_incremental_delta import assert_installed_is_rendered
from tests.backend.test_sargable import CHAIN

#: The benchmark chain's five leaf kinds, evolved from S8.
LEAF_KINDS = (
    "RENAME COLUMN remark IN Lo TO r{i};",
    "ADD COLUMN x{i} AS qty + 1 INTO Lo;",
    "RENAME TABLE Lo INTO Lo{i};",
    "SPLIT TABLE Lo INTO A{i} WITH k % 2 = 0, B{i} WITH k % 2 = 1;",
    "DROP COLUMN inc FROM Lo DEFAULT 0;",
)
MOVE_PAIR = ("MATERIALIZE 'S8';", "MATERIALIZE ONLINE 'S4';")


def leaf(index: int) -> str:
    smo = LEAF_KINDS[index % len(LEAF_KINDS)].format(i=index)
    return f"CREATE SCHEMA VERSION L{index} FROM S8 WITH {smo}"


def build_chain_engine(rows: int) -> repro.InVerDa:
    engine = repro.InVerDa()
    engine.execute(CHAIN[0])
    conn = repro.connect(engine, "S0", autocommit=True)
    conn.executemany(
        "INSERT INTO Item(k, grp, qty, note) VALUES (?, ?, ?, ?)",
        [(i, i % 7, i % 13, f"n{i}") for i in range(rows)],
    )
    conn.close()
    for script in CHAIN[1:]:
        engine.execute(script)
    return engine


def physical_names(engine) -> tuple[list[str], list[str]]:
    """Generated objects installed in the file, and stored tables."""
    backend = engine.live_backend
    return (
        sorted(codegen.installed_objects(backend.connection)),
        sorted(engine.database.table_names()),
    )


class TestLeafChurn:
    def test_two_hundred_leaf_cycles_compact_and_reopen_to_the_same_catalog(
        self, tmp_path
    ):
        path = str(tmp_path / "churn.db")
        engine = build_chain_engine(60)
        LiveSqliteBackend.attach(engine, database=path)
        engine.execute("MATERIALIZE 'S4';")
        # The same transitions on an engine that never persists and never
        # reopens: what the reopened engines must keep matching.
        twin = build_chain_engine(0)
        twin.execute("MATERIALIZE 'S4';")
        reopens = compactions = 0
        for index in range(200):
            for system in (engine, twin):
                system.execute(leaf(index))
                system.execute(f"DROP SCHEMA VERSION L{index};")
            snapshot = len(snapshot_entries(engine))
            length = engine.live_backend.store.log_size()
            assert length <= 2 * snapshot + 1, f"cycle {index}: {length} entries"
            if (index + 1) % 15 == 0:
                for system in (engine, twin):
                    for script in MOVE_PAIR:
                        system.execute(script)
            if index in (6, 99, 199):
                identity, names = catalog_identity(engine), physical_names(engine)
                fingerprint = engine.catalog_fingerprint()
                compactions += engine.metrics.get("repro_catalog_compactions_total").value()
                engine.live_backend.close()
                engine = repro.open(path)
                reopens += 1
                assert catalog_identity(engine) == identity == catalog_identity(twin)
                assert engine.catalog_fingerprint() == fingerprint
                assert physical_names(engine) == names
                assert_installed_is_rendered(engine.live_backend, f"cycle {index}")
        assert reopens == 3
        assert engine.genealogy.retired == {f"L{index}" for index in range(200)}
        assert [version.name for version in engine.genealogy.schema_versions.values()] == [
            f"S{index}" for index in range(9)
        ]
        # One compaction per few drops (each engine counts its own).
        assert compactions >= 20
        stats = engine.live_backend.catalog_stats()
        assert stats["retired_versions"] == 200
        assert stats["log_entries"] == engine.live_backend.store.log_size()
        engine.live_backend.close()


class TestLog:
    def test_compaction_writes_the_snapshot_and_drops_unused_schema_rows(
        self, tmp_path
    ):
        path = str(tmp_path / "log.db")
        engine = repro.open(path)
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
            "CREATE SCHEMA VERSION early FROM v1 WITH RENAME COLUMN b IN R TO bb;"
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;"
            "DROP SCHEMA VERSION early;"
            "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO cc;"
        )
        handle = engine.live_backend.store.connection

        def rows():
            return handle.execute(
                f"SELECT position, name, dropped FROM {VERSIONS_TABLE} ORDER BY position"
            ).fetchall()

        # 'early' retired before v3 was evolved: v3 takes the next free
        # position instead of overwriting v2's row.
        assert engine.genealogy.retired == {"early"}
        assert rows() == [(0, "v1", 0), (1, "early", 1), (2, "v2", 0), (3, "v3", 0)]
        engine.live_backend.close()
        engine = repro.open(path)  # a stored-dropped, replayed-retired row
        handle = engine.live_backend.store.connection
        compactions = engine.metrics.get("repro_catalog_compactions_total")
        for index in range(10):
            engine.execute(
                f"CREATE SCHEMA VERSION leaf{index} FROM v3 "
                f"WITH RENAME COLUMN cc IN R TO c{index};"
            )
            engine.execute(f"DROP SCHEMA VERSION leaf{index};")
            if compactions.value():
                break
        assert compactions.value() == 1
        assert rows() == [(0, "v1", 0), (1, "v2", 0), (2, "v3", 0)]
        entries = [
            {"kind": kind, **json.loads(payload)}
            for kind, payload in handle.execute(
                f"SELECT kind, payload FROM {LOG_TABLE} ORDER BY seq"
            )
        ]
        assert entries == [
            {"kind": kind, **payload} for kind, payload in snapshot_entries(engine)
        ]
        assert entries[-1] == {
            "kind": "retired",
            "names": ["early"] + [f"leaf{i}" for i in range(index + 1)],
            "table_uid": engine.genealogy._next_table_uid,
            "smo_uid": engine.genealogy._next_smo_uid,
        }
        assert handle.execute(
            f"SELECT value FROM {META_TABLE} WHERE key = 'format_version'"
        ).fetchone() == (json.dumps(FORMAT_VERSION),)
        referenced = {
            version_fingerprint(version)
            for version in engine.genealogy.schema_versions.values()
        }
        stored = {row[0] for row in handle.execute(f"SELECT fingerprint FROM {SCHEMAS_TABLE}")}
        assert stored == referenced
        engine.live_backend.close()
        assert check_cli(["--db", path]) == 0


class TestRetirement:
    BASE = (
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
        "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;"
    )
    LEAF = "CREATE SCHEMA VERSION leaf FROM v2 WITH RENAME COLUMN c IN R TO d;"

    @staticmethod
    def refusals(engine) -> tuple[str, str]:
        smos = sorted(engine.genealogy.smo_instances)
        with pytest.raises(CatalogError) as again:
            engine.execute(
                "CREATE SCHEMA VERSION leaf FROM v2 WITH RENAME COLUMN c IN R TO e;"
            )
        with pytest.raises(CatalogError) as derived:
            engine.execute(
                "CREATE SCHEMA VERSION child FROM leaf WITH RENAME COLUMN d IN R TO e;"
            )
        assert sorted(engine.genealogy.smo_instances) == smos  # nothing left behind
        return str(again.value), str(derived.value)

    def test_a_retired_name_is_refused_and_dropped_before_and_after_a_reopen(
        self, tmp_path
    ):
        path = str(tmp_path / "retired.db")
        engine = repro.open(path)
        engine.execute(self.BASE + self.LEAF + "DROP SCHEMA VERSION leaf;")
        assert engine.genealogy.retired == {"leaf"}
        assert "leaf" not in engine.genealogy.schema_versions
        before = self.refusals(engine)
        assert before == (
            "schema version 'leaf' already exists",
            "schema version 'leaf' has been dropped",
        )
        identity = catalog_identity(engine)
        engine.live_backend.close()
        again = repro.open(path)
        try:
            assert catalog_identity(again) == identity
            assert self.refusals(again) == before
        finally:
            again.live_backend.close()

    def test_a_file_in_the_previous_format_opens_clean(self, tmp_path):
        path = str(tmp_path / "format1.db")
        engine = repro.open(path)
        engine.execute(self.BASE)
        generation = engine.catalog_generation
        engine.live_backend.close()
        # What the previous format left after one leaf cycle: the leaf's
        # evolution and drop entries, its dropped row, format_version 1.
        twin = repro.InVerDa()
        twin.execute(self.BASE + self.LEAF)
        version = twin.genealogy.schema_version("leaf")
        fingerprint = version_fingerprint(version)
        handle = sqlite3.connect(path)
        with handle:
            for kind, payload in (
                ("evolution", evolution_entry(twin, version)),
                ("drop", {"name": "leaf"}),
            ):
                handle.execute(
                    f"INSERT INTO {LOG_TABLE} (seq, kind, payload) VALUES "
                    f"((SELECT MAX(seq) + 1 FROM {LOG_TABLE}), ?, ?)",
                    (kind, json.dumps(payload)),
                )
            handle.execute(
                f"INSERT OR IGNORE INTO {SCHEMAS_TABLE} VALUES (?, ?)",
                (fingerprint, json.dumps(version_payload(version))),
            )
            handle.execute(
                f"INSERT INTO {VERSIONS_TABLE} VALUES (2, 'leaf', 'v2', 1, ?)",
                (fingerprint,),
            )
            for key, value in (
                ("format_version", 1),
                ("generation", generation + 2),
                ("delta_generation", generation + 2),
            ):
                handle.execute(
                    f"UPDATE {META_TABLE} SET value = ? WHERE key = ?",
                    (json.dumps(value), key),
                )
        handle.close()
        twin.execute("DROP SCHEMA VERSION leaf;")
        again = repro.open(path)
        try:
            assert again.version_names() == ["v1", "v2"]
            assert again.genealogy.retired == {"leaf"}
            assert again.live_backend.catalog_stats()["retired_versions"] == 1
            for system in (again, twin):
                system.execute(
                    "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO cc;"
                )
            assert catalog_identity(again) == catalog_identity(twin)
            assert again.live_backend.store.connection.execute(
                f"SELECT position FROM {VERSIONS_TABLE} WHERE name = 'v3'"
            ).fetchone() == (3,)
        finally:
            again.live_backend.close()
        reopened = repro.open(path)
        try:
            assert catalog_identity(reopened) == catalog_identity(twin)
        finally:
            reopened.live_backend.close()
