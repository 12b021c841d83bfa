"""Deterministic schema fingerprints: stability, sensitivity, dedup."""

from __future__ import annotations

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.persist import fingerprint
from repro.persist.fingerprint import (
    catalog_fingerprint,
    engine_layout,
    layout_fingerprint,
    sqlite_layout,
    version_fingerprint,
    version_payload,
)

SCRIPT = """
CREATE SCHEMA VERSION v1 WITH
CREATE TABLE R(a INTEGER, b TEXT);
CREATE SCHEMA VERSION v2 FROM v1 WITH
RENAME COLUMN a IN R TO aa;
"""


def build(script: str = SCRIPT) -> repro.InVerDa:
    engine = repro.InVerDa()
    engine.execute(script)
    return engine


class TestVersionFingerprint:
    def test_deterministic_across_engines(self):
        a, b = build(), build()
        for name in a.version_names():
            assert version_fingerprint(
                a.genealogy.schema_version(name)
            ) == version_fingerprint(b.genealogy.schema_version(name))

    def test_sensitive_to_column_rename(self):
        engine = build()
        v1 = engine.genealogy.schema_version("v1")
        v2 = engine.genealogy.schema_version("v2")
        assert version_fingerprint(v1) != version_fingerprint(v2)

    def test_identical_shapes_share_fingerprint(self):
        engine = build(
            SCRIPT + "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN aa IN R TO a;"
        )
        v1 = engine.genealogy.schema_version("v1")
        v3 = engine.genealogy.schema_version("v3")
        assert version_fingerprint(v1) == version_fingerprint(v3)

    def test_hex_sha256_shape(self):
        engine = build()
        fp = version_fingerprint(engine.genealogy.schema_version("v1"))
        assert len(fp) == 64
        int(fp, 16)  # raises if not hex


class TestCatalogFingerprint:
    def test_moves_on_every_transition(self):
        engine = build()
        seen = {catalog_fingerprint(engine)}
        engine.execute("CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN c AS 1 INTO R;")
        seen.add(catalog_fingerprint(engine))
        engine.execute("MATERIALIZE 'v3';")
        seen.add(catalog_fingerprint(engine))
        engine.drop_schema_version("v1")
        seen.add(catalog_fingerprint(engine))
        assert len(seen) == 4

    def test_memoized_method_matches_module_function(self):
        engine = build()
        assert engine.catalog_fingerprint() == catalog_fingerprint(engine)
        # memo invalidates on the next transition
        engine.execute("MATERIALIZE 'v2';")
        assert engine.catalog_fingerprint() == catalog_fingerprint(engine)

    def test_deterministic_across_engines(self):
        assert catalog_fingerprint(build()) == catalog_fingerprint(build())


class TestFingerprintMemo:
    """A version and an SMO instance are hashed once; the catalog
    fingerprint is assembled from the remembered digests."""

    @staticmethod
    def uncached(engine) -> str:
        genealogy = engine.genealogy
        return fingerprint.digest({
            "versions": [
                [v.name, v.parent, bool(v.dropped),
                 fingerprint.digest(version_payload(v))]
                for v in genealogy.schema_versions.values()
            ],
            "smos": [
                fingerprint.digest([smo.uid, smo.node.unparse()])
                for smo in genealogy.all_smos()
            ],
            "materialized": sorted(
                smo.uid for smo in genealogy.evolution_smos() if smo.materialized
            ),
            "layout": layout_fingerprint(engine_layout(engine)),
        })

    def test_equals_the_uncached_digest_after_every_transition(self, tmp_path):
        path = str(tmp_path / "memo.db")
        engine = build()
        backend = LiveSqliteBackend.attach(engine, database=path)
        for script in (
            "CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN c AS aa + 1 INTO R;",
            "DROP SCHEMA VERSION v2;",
            "MATERIALIZE 'v3';",
        ):
            engine.execute(script)
            assert engine.catalog_fingerprint() == self.uncached(engine), script
            assert backend.store.load().fingerprint == self.uncached(engine), script
        backend.close()
        reopened = repro.open(path)
        try:
            assert reopened.catalog_fingerprint() == self.uncached(reopened)
            assert reopened.catalog_fingerprint() == self.uncached(engine)
        finally:
            reopened.live_backend.close()

    def test_a_transition_hashes_a_constant_number_of_payloads(self, monkeypatch):
        engine = build()
        backend = LiveSqliteBackend.attach(engine)
        calls = []
        real = fingerprint.digest
        monkeypatch.setattr(
            fingerprint, "digest", lambda payload: calls.append(1) or real(payload)
        )
        per_cycle = []
        for index in range(12):
            del calls[:]
            engine.execute(
                f"CREATE SCHEMA VERSION L{index} FROM v2 WITH "
                f"RENAME COLUMN b IN R TO b{index};"
            )
            engine.execute(f"DROP SCHEMA VERSION L{index};")
            per_cycle.append(len(calls))
        backend.close()
        # The new version, its SMO, the layout and the catalog payload per
        # evolve; layout and catalog payload per drop — however long the
        # history.
        assert per_cycle == [6] * 12


class TestLayoutFingerprint:
    def test_layout_matches_live_sqlite(self):
        engine = build()
        backend = LiveSqliteBackend.attach(engine)
        try:
            expected = engine_layout(engine)
            actual = sqlite_layout(backend.connection, list(expected))
            assert expected == actual
            assert layout_fingerprint(expected) == layout_fingerprint(actual)
        finally:
            backend.close()

    def test_layout_moves_with_materialization(self):
        engine = build()
        before = layout_fingerprint(engine_layout(engine))
        engine.execute("MATERIALIZE 'v2';")
        assert layout_fingerprint(engine_layout(engine)) != before
