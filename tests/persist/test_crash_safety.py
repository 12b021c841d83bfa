"""Fault-injected crashes mid-transition: the reopened database must be
wholly before or wholly after the transition — never torn — and must
answer every version identically to an in-memory engine that never
crashed."""

from __future__ import annotations

import pytest

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


@pytest.mark.parametrize(
    "point", ["evolution:after-catalog", "evolution:before-commit"]
)
def test_crash_mid_evolution(tmp_path, point):
    ds = build(tmp_path)
    try:
        ds.backend.fault_injector = injector(point)
        with pytest.raises(SimulatedCrash):
            ds.sq.execute(EVOLUTION)
        # Reopen the file: the aborted transition must have left no trace,
        # so the recovered side still matches an engine that never saw it.
        ds.reopen()
        ds.check(f"recovered-after-{point}")
        # The catalog is fully functional: the same evolution now succeeds
        # on both sides, with identical uids (physical names line up).
        ds.execute_ddl(EVOLUTION)
        ds.check(f"evolved-after-{point}")
        ds.run("v3", "INSERT INTO Odd(a, b, c) VALUES (?, ?, ?)", (1, 1, 2))
        ds.check(f"written-after-{point}")
    finally:
        ds.close()


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
        ds.backend.fault_injector = injector("drop:before-commit")
        with pytest.raises(SimulatedCrash):
            ds.sq.drop_schema_version("v1")
        ds.reopen()
        ds.check("recovered-after-drop-crash")
        assert ds.sq.version_names() == ["v1", "v2"]
        for conn in (*ds._mem_conns.values(), *ds._sq_conns.values()):
            conn.close()
        ds._mem_conns.clear()
        ds._sq_conns.clear()
        ds.mem.drop_schema_version("v1")
        ds.sq.drop_schema_version("v1")
        ds.check("dropped-after-crash")
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
