"""Fault-injected crashes mid-transition: the reopened database must be
wholly before or wholly after the transition — never torn — and must
answer every version identically to an in-memory engine that never
crashed."""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.check.delta import verify_delta_code
from repro.persist.recovery import catalog_identity
from repro.testing import DualSystem


class SimulatedCrash(Exception):
    pass


def injector(point: str):
    def inject(reached: str) -> None:
        if reached == point:
            raise SimulatedCrash(point)

    return inject


def build(tmp_path) -> DualSystem:
    ds = DualSystem(database=str(tmp_path / "crash.db"))
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
    )
    ds.attach()
    ds.runmany("v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i * 2) for i in range(6)])
    ds.execute_ddl("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;")
    ds.check("built")
    return ds


EVOLUTION = "CREATE SCHEMA VERSION v3 FROM v2 WITH SPLIT TABLE R INTO Odd WITH a % 2 = 1;"

# (evolution, a write at its new version): beside the SPLIT, the
# identifier SMOs, whose evolution also initializes ID and indexes the
# columns their programs probe.
EVOLUTIONS = {
    "split": (EVOLUTION, "INSERT INTO Odd(a, b, c) VALUES (1, 1, 2)"),
    "decompose_fk": (
        "CREATE SCHEMA VERSION v3 FROM v2 WITH "
        "DECOMPOSE TABLE R INTO S(a, c), T(b) ON FOREIGN KEY fk;",
        "INSERT INTO S(a, c) VALUES (1, 2)",
    ),
    "decompose_cond": (
        "CREATE SCHEMA VERSION v3 FROM v2 WITH DECOMPOSE TABLE R INTO S(a, c), T(b) ON a = b;",
        "INSERT INTO T(b) VALUES (4)",
    ),
}


@pytest.mark.parametrize("evolution", sorted(EVOLUTIONS))
@pytest.mark.parametrize(
    "point", ["evolution:after-catalog", "evolution:before-commit"]
)
def test_crash_mid_evolution(tmp_path, point, evolution):
    script, write = EVOLUTIONS[evolution]
    ds = build(tmp_path)
    try:
        ds.backend.fault_injector = injector(point)
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(script)
        # Reopen the file: the aborted transition must have left no trace,
        # so the recovered side still matches an engine that never saw it.
        ds.reopen()
        ds.check(f"recovered-after-{point}")
        # The catalog is fully functional: the same evolution now succeeds
        # on both sides, with identical uids (physical names line up).
        ds.execute_ddl(script)
        ds.check(f"evolved-after-{point}")
        ds.run("v3", write)
        ds.check(f"written-after-{point}")
    finally:
        ds.close()


# The full MATERIALIZE crash matrix (schedule x fault point x emission)
# is tests/persist/test_online_materialize.py::TestOnlineMove; this is
# the offline move against the crash-safety harness.
@pytest.mark.parametrize(
    "point",
    ["materialize:staged", "materialize:swapped", "materialize:before-commit"],
)
def test_crash_mid_materialize(tmp_path, point):
    ds = build(tmp_path)
    try:
        ds.backend.fault_injector = injector(point)
        with pytest.raises(SimulatedCrash):
            ds.sq.execute("MATERIALIZE 'v2';")
        ds.reopen()
        ds.check(f"recovered-after-{point}")
        ds.materialize("v2")
        ds.check(f"materialized-after-{point}")
        ds.run("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (9, 9))
        ds.run("v2", "DELETE FROM R WHERE a = ?", (0,))
        ds.check(f"written-after-{point}")
    finally:
        ds.close()


def test_crash_mid_drop(tmp_path):
    ds = build(tmp_path)
    try:
        ds.materialize("v2")
        ds.check("materialized")
        fingerprint = ds.sq.catalog_fingerprint()
        ds.backend.fault_injector = injector("drop:before-commit")
        with pytest.raises(SimulatedCrash):
            ds.sq.drop_schema_version("v1")
        # The failed drop left the engine as it was: it still lists and
        # serves v1, under the pre-drop fingerprint.
        ds.backend.fault_injector = None
        assert ds.sq.version_names() == ["v1", "v2"]
        assert ds.sq.catalog_fingerprint() == fingerprint
        ds.check("served-after-failed-drop")
        ds.reopen()
        ds.check("recovered-after-drop-crash")
        assert ds.sq.version_names() == ["v1", "v2"]
        assert ds.sq.catalog_fingerprint() == fingerprint
        for conn in (*ds._mem_conns.values(), *ds._sq_conns.values()):
            conn.close()
        ds._mem_conns.clear()
        ds._sq_conns.clear()
        ds.mem.drop_schema_version("v1")
        ds.sq.drop_schema_version("v1")
        ds.check("dropped-after-crash")
    finally:
        ds.close()


def test_crash_mid_compaction(tmp_path):
    """A drop that compacts the log dies between the rewrite and the
    commit: the reopen serves the pre-drop catalog, uncompacted; the drop
    then compacts, and the next reopen serves the compacted catalog —
    with the same fingerprints and physical names either way."""

    def catalog(ds: DualSystem):
        names = sorted(codegen.installed_objects(ds.backend.connection))
        return catalog_identity(ds.sq), names, ds.backend.store.load().entries

    ds = build(tmp_path)
    try:
        ds.backend.fault_injector = injector("drop:compacted")
        for index in range(20):
            leaf = f"L{index}"
            ds.execute_ddl(
                f"CREATE SCHEMA VERSION {leaf} FROM v2 WITH RENAME COLUMN c IN R TO c{index};"
            )
            before = catalog(ds)
            fingerprint = ds.sq.catalog_fingerprint()
            try:
                ds.sq.drop_schema_version(leaf)
            except SimulatedCrash:
                break
            ds.mem.drop_schema_version(leaf)
        else:
            pytest.fail("no drop compacted the log")
        ds.backend.fault_injector = None
        assert leaf in ds.sq.version_names()
        assert ds.sq.catalog_fingerprint() == fingerprint
        ds.check("served-after-failed-compaction")
        ds.reopen()
        assert ds.sq.catalog_fingerprint() == fingerprint
        ds.check("recovered-after-compaction-crash")
        assert catalog(ds) == before
        ds.mem.drop_schema_version(leaf)
        ds.sq.drop_schema_version(leaf)
        ds.check("compacted")
        after = catalog(ds)
        assert len(after[2]) < len(before[2])
        assert after[0] == catalog_identity(ds.mem)
        ds.reopen()
        ds.check("recovered-compacted")
        assert catalog(ds) == after
    finally:
        ds.close()


def test_generation_never_torn(tmp_path):
    """After a crash the on-disk generation equals a generation the
    engine actually committed — never an in-between value."""
    ds = build(tmp_path)
    try:
        committed = ds.sq.catalog_generation
        ds.backend.fault_injector = injector("evolution:before-commit")
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(EVOLUTION)
        ds.reopen()
        assert ds.sq.catalog_generation == committed
        assert ds.backend.on_disk_generation() == committed
        assert ds.sq.catalog_fingerprint() == ds.backend.store.load().fingerprint
    finally:
        ds.close()


# ---------------------------------------------------------------------------
# Inside the install: the diff has dropped what it replaces and created
# nothing yet.
# ---------------------------------------------------------------------------


def _materialize_then(statement: str):
    def prepare(ds: DualSystem) -> str:
        ds.materialize("v2")
        return statement

    return prepare


HALF_INSTALLED = {
    "evolution": lambda ds: EVOLUTION,
    # Alters the triggers of a surviving table version (its neighbour gains
    # shared aux to maintain), so the diff really has dropped something.
    "evolution-fk": lambda ds: (
        "CREATE SCHEMA VERSION v3 FROM v2 WITH "
        "DECOMPOSE TABLE R INTO S(a, b), T(c) ON FOREIGN KEY ref;"
    ),
    "drop": _materialize_then("DROP SCHEMA VERSION v1;"),
    "materialize": lambda ds: "MATERIALIZE 'v2';",
    "materialize-online": lambda ds: "MATERIALIZE ONLINE 'v2';",
}


@pytest.mark.parametrize("transition", sorted(HALF_INSTALLED))
def test_crash_between_the_drops_and_the_creates(tmp_path, transition):
    ds = build(tmp_path)
    try:
        statement = HALF_INSTALLED[transition](ds)
        for conn in (*ds._mem_conns.values(), *ds._sq_conns.values()):
            conn.close()
        ds._mem_conns.clear()
        ds._sq_conns.clear()
        committed = ds.sq.catalog_generation
        versions = ds.sq.version_names()
        ds.backend.fault_injector = injector("regenerate:dropped")
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(statement)
        ds.reopen()
        ds.check(f"recovered-after-{transition}")
        assert ds.sq.version_names() == versions
        # Wholly before — except the online move, whose journal committed
        # with the last chunk: the open resumes it, wholly after.
        resumed = transition == "materialize-online"
        assert ds.sq.catalog_generation == committed + resumed
        assert ds.backend.on_disk_generation() == committed + resumed
        assert verify_delta_code(ds.sq, connection=ds.backend.connection) == []
        if resumed:
            ds.mem.execute("MATERIALIZE 'v2';")
        else:
            ds.execute_ddl(statement)
        ds.check(f"{transition}-after-the-crash")
    finally:
        ds.close()


def test_crash_before_the_mark_is_written(tmp_path):
    """Verified, installed, not yet marked: the file goes without a mark
    and the next open does it all again."""

    class DiesBeforeTheMark(LiveSqliteBackend):
        def _fault(self, point: str) -> None:
            if point == "recover:before-mark":
                raise SimulatedCrash(point)

    ds = build(tmp_path)
    ds.close()
    with pytest.raises(SimulatedCrash):
        DiesBeforeTheMark.attach(repro.InVerDa(), database=ds.database)
    handle = sqlite3.connect(ds.database)
    assert handle.execute(
        "SELECT count(*) FROM _repro_catalog_meta WHERE key = 'verified_at'"
    ).fetchone() == (0,)
    handle.close()
    for full, skipped in ((1, 0), (0, 1)):
        engine = repro.open(ds.database)
        try:
            counter = engine.metrics.get("repro_recovery_verify_total")
            assert counter.value(outcome="full") == full
            assert counter.value(outcome="skipped") == skipped
            assert engine.live_backend.store.load().verified["generation"] == (
                engine.catalog_generation
            )
        finally:
            engine.live_backend.close()
