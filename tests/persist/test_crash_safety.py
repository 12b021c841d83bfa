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
from tests.testing import DualSystem


class SimulatedCrash(Exception):
    pass


def injector(point: str):
    def inject(reached: str) -> None:
        if reached == point:
            raise SimulatedCrash(point)

    return inject


def in_process(engine) -> tuple:
    """What a failed transition must leave as it was in the process."""
    genealogy = engine.genealogy
    return (
        engine.version_names(),
        engine.catalog_generation,
        engine.catalog_fingerprint(),
        (genealogy._next_table_uid, genealogy._next_smo_uid),
        dict(engine.database.sequences),
    )


def close_connections(ds: DualSystem) -> None:
    for conn in (*ds._mem_conns.values(), *ds._sq_conns.values()):
        conn.close()
    ds._mem_conns.clear()
    ds._sq_conns.clear()


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


# Each fault point x evolution resumes two ways: from the reopened file
# (the id names point and evolution), and in the process that saw the
# fault, without a reopen (the id ends in "in-process").
CRASH_RESUMES = [
    pytest.param(point, evolution, resume, id="-".join(
        (point, evolution) if resume == "reopen" else (point, evolution, resume)
    ))
    for resume in ("reopen", "in-process")
    for point in ("evolution:after-catalog", "evolution:before-commit")
    for evolution in sorted(EVOLUTIONS)
]


@pytest.mark.parametrize("point, evolution, resume", CRASH_RESUMES)
def test_crash_mid_evolution(tmp_path, point, evolution, resume):
    script, write = EVOLUTIONS[evolution]
    ds = build(tmp_path)
    try:
        before = in_process(ds.sq)
        ds.backend.fault_injector = injector(point)
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(script)
        if resume == "reopen":
            # Reopen the file: the aborted transition must have left no
            # trace, so the recovered side still matches an engine that
            # never saw it.
            ds.reopen()
            ds.check(f"recovered-after-{point}")
        else:
            # The aborted transition left no trace in the process either:
            # the engine serves the catalog it served before.
            ds.backend.fault_injector = None
            assert in_process(ds.sq) == before
            assert ds.backend.last_install["bytes"] == len(ds.backend.generated_sql().encode())
            ds.check(f"served-after-{point}")
        # The catalog is fully functional: the same evolution now succeeds
        # on both sides, with identical uids (physical names line up).
        ds.execute_ddl(script)
        ds.check(f"evolved-after-{point}")
        ds.run("v3", write)
        ds.check(f"written-after-{point}")
        if resume == "in-process":
            # The reopened file is the engine the process held.
            evolved = in_process(ds.sq)
            ds.reopen()
            assert in_process(ds.sq) == evolved
            ds.check(f"recovered-after-{point}")
    finally:
        ds.close()


def test_a_failed_evolution_then_another_script_under_its_name(tmp_path):
    """The uids a failed evolution spent are spent again by a different
    script: its delta code is rendered for that script, not the first."""
    (split, _), (decompose, write) = EVOLUTIONS["split"], EVOLUTIONS["decompose_fk"]
    ds = build(tmp_path)
    try:
        ds.backend.fault_injector = injector("evolution:before-commit")
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(split)
        ds.backend.fault_injector = None
        ds.execute_ddl(decompose)
        ds.check("evolved")
        ds.run("v3", write)
        ds.check("written")
        assert verify_delta_code(ds.sq, connection=ds.backend.connection) == []
    finally:
        ds.close()


@pytest.mark.parametrize("failure", ["map", "next-smo-refused"])
def test_a_failed_fk_evolution_registers_nothing(monkeypatch, failure):
    """On the memory engine the evolution fills the ID table it creates:
    when that map raises, or a later SMO of the script is refused after
    it ran, the SMO, its tables, its uids and the identifiers it
    allocated go with it."""
    from repro.bidel.smo.foreign_key import DecomposeFkSemantics

    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    conn = repro.connect(engine, "v1", autocommit=True)
    conn.executemany("INSERT INTO R(a, b) VALUES (?, ?)", [(1, 2), (3, 4)])
    script, _write = EVOLUTIONS["decompose_fk"]
    script = script.replace("FROM v2", "FROM v1").replace("S(a, c)", "S(a)")
    before, tables = in_process(engine), sorted(engine.database.tables)

    def fails(*_args, **_kwargs):
        raise SimulatedCrash("map")

    with monkeypatch.context() as patch:
        if failure == "map":
            patch.setattr(DecomposeFkSemantics, "map_forward", fails)
            with pytest.raises(SimulatedCrash):
                engine.execute(script)
        else:
            with pytest.raises(repro.errors.EvolutionError, match="NOPE"):
                engine.execute(script + " ADD COLUMN c AS zz + 1 INTO NOPE;")
    assert in_process(engine) == before
    assert sorted(engine.database.tables) == tables
    engine.execute(script)
    conn = repro.connect(engine, "v3", autocommit=True)
    # The identifiers are the ones an engine that never failed allocates.
    assert conn.execute("SELECT id, b FROM T ORDER BY b").fetchall() == [(3, 2), (4, 4)]


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
        before = in_process(ds.sq)
        ds.backend.fault_injector = injector(point)
        with pytest.raises(SimulatedCrash):
            ds.sq.execute("MATERIALIZE 'v2';")
        ds.backend.fault_injector = None
        assert in_process(ds.sq) == before
        ds.check(f"served-after-{point}")
        ds.reopen()
        assert in_process(ds.sq) == before
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
        close_connections(ds)
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
        close_connections(ds)
        before = in_process(ds.sq)
        committed = ds.sq.catalog_generation
        versions = ds.sq.version_names()
        ds.backend.fault_injector = injector("regenerate:dropped")
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(statement)
        ds.backend.fault_injector = None
        assert in_process(ds.sq) == before
        ds.check(f"served-after-{transition}")
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
