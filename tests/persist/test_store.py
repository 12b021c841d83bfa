"""The ``_repro_catalog_*`` tables: snapshot, live recording, loading."""

from __future__ import annotations

import json
import sqlite3

import pytest

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import CatalogError
from repro.persist.store import (
    FORMAT_VERSION,
    META_TABLE,
    SCHEMAS_TABLE,
    CatalogStore,
    snapshot_entries,
    snapshot_length,
)

SCRIPT = """
CREATE SCHEMA VERSION v1 WITH
CREATE TABLE R(a INTEGER, b TEXT);
CREATE SCHEMA VERSION v2 FROM v1 WITH
RENAME COLUMN a IN R TO aa;
CREATE SCHEMA VERSION v3 FROM v2 WITH
RENAME COLUMN aa IN R TO a;
MATERIALIZE 'v2';
"""


def build() -> repro.InVerDa:
    engine = repro.InVerDa()
    engine.execute(SCRIPT)
    return engine


def snapshot_store(engine) -> CatalogStore:
    store = CatalogStore(sqlite3.connect(":memory:"))
    store.save_snapshot(engine)
    return store


class TestSnapshotRoundTrip:
    def test_load_returns_what_was_saved(self):
        engine = build()
        state = snapshot_store(engine).load()
        assert state.format_version == FORMAT_VERSION
        assert state.generation == engine.catalog_generation
        assert state.fingerprint == engine.catalog_fingerprint()
        assert [e["kind"] for e in state.entries] == [
            "evolution",
            "evolution",
            "evolution",
            "materialize",
        ]
        assert [v.name for v in state.versions] == ["v1", "v2", "v3"]
        assert [v.parent for v in state.versions] == [None, "v1", "v2"]
        assert not any(v.dropped for v in state.versions)

    def test_drop_is_recorded(self):
        engine = build()
        engine.drop_schema_version("v1")
        state = snapshot_store(engine).load()
        record = next(v for v in state.versions if v.name == "v1")
        assert record.dropped

    def test_schema_snapshots_dedup_by_fingerprint(self):
        # v1 and v3 have identical table shapes: one shared snapshot row.
        store = snapshot_store(build())
        state = store.load()
        (count,) = store.connection.execute(
            f"SELECT COUNT(*) FROM {SCHEMAS_TABLE}"
        ).fetchone()
        assert len(state.versions) == 3
        assert count == 2

    def test_has_catalog(self):
        connection = sqlite3.connect(":memory:")
        assert not CatalogStore.has_catalog(connection)
        CatalogStore(connection).save_snapshot(build())
        assert CatalogStore.has_catalog(connection)

    def test_newer_format_version_refused(self):
        store = snapshot_store(build())
        store.connection.execute(
            f"UPDATE {META_TABLE} SET value = ? WHERE key = 'format_version'",
            (json.dumps(FORMAT_VERSION + 1),),
        )
        with pytest.raises(CatalogError, match="newer"):
            store.load()


class TestLiveRecording:
    def test_hooks_record_the_same_log_as_a_snapshot(self):
        # An engine persisting from birth (hooks append to the log one
        # transition at a time) ends up with the same entries a one-shot
        # snapshot of its final state would synthesize.
        engine = repro.InVerDa()
        backend = LiveSqliteBackend.attach(engine)
        try:
            engine.execute(SCRIPT)
            recorded = backend.store.load()
            assert recorded.entries == [
                {"kind": kind, **payload}
                for kind, payload in snapshot_entries(engine)
            ]
            assert recorded.generation == engine.catalog_generation
            assert recorded.fingerprint == engine.catalog_fingerprint()
            # A log a drop compacted is that snapshot, entry for entry.
            compactions = engine.metrics.get("repro_catalog_compactions_total")
            for index in range(10):
                engine.execute(
                    f"CREATE SCHEMA VERSION leaf{index} FROM v3 "
                    f"WITH RENAME COLUMN a IN R TO a{index};"
                    f"DROP SCHEMA VERSION leaf{index};"
                )
                if compactions.value():
                    break
            compacted = backend.store.load()
            assert compactions.value() == 1
            assert compacted.format_version == FORMAT_VERSION == 2
            assert compacted.entries == [
                {"kind": kind, **payload}
                for kind, payload in snapshot_entries(engine)
            ]
            assert compacted.entries[-1]["kind"] == "retired"
            assert compacted.generation == engine.catalog_generation
            assert compacted.fingerprint == engine.catalog_fingerprint()
        finally:
            backend.close()

    def test_delta_meta_tracks_generation(self):
        engine = repro.InVerDa()
        backend = LiveSqliteBackend.attach(engine)
        try:
            engine.execute(SCRIPT)
            state = backend.store.load()
            assert state.delta_generation == engine.catalog_generation
        finally:
            backend.close()

    def test_snapshot_length_counts_the_snapshot_without_building_it(self):
        """Compaction decides from :func:`snapshot_length`: it must be the
        length of the snapshot it would write in every catalog state —
        nothing dropped, a materialization, a retired leaf, a dropped
        version that stays because a retained one names it as parent."""
        engine = repro.InVerDa()

        def check(context: str) -> None:
            assert snapshot_length(engine) == len(snapshot_entries(engine)), context

        check("empty")
        for script in (
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);",
            "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO aa;",
            "MATERIALIZE 'v2';",
            "CREATE SCHEMA VERSION leaf FROM v2 WITH RENAME COLUMN b IN R TO bb;",
            "DROP SCHEMA VERSION leaf;",
            "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN aa IN R TO a3;",
            "DROP SCHEMA VERSION v2;",
            "MATERIALIZE 'v1';",
        ):
            engine.execute(script)
            check(script)
        assert engine.genealogy.retired == {"leaf"}
        assert engine.genealogy.schema_versions["v2"].dropped
