"""ADD COLUMN's widening rules read one value two ways — the one stored in
the aux table B, else the computed one — and render as ONE branch over the
narrow table, the stored value read through a probe of B:

    CASE WHEN EXISTS (SELECT 1 FROM B n WHERE n.p = …)
         THEN (SELECT n.b FROM B n WHERE n.p = …) ELSE f(…) END

DROP COLUMN's source side (its widening, B on the target side) is the
same pair.  Each case here runs memory ≡ composed ≡ nested emission, with
the data on either side of the pair.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from tests.backend.test_differential import _fuzz_ops
from tests.testing import DualSystem, NestedEmissionBackend

EMISSIONS = {"composed": LiveSqliteBackend, "nested": NestedEmissionBackend}
PROBE = "CASE WHEN EXISTS (SELECT 1 FROM aux__"


def _dual(emission: str, create: str, rows, evolutions, at: str) -> DualSystem:
    """``create`` loaded with ``rows`` at v1, evolved to v2, v3, …, with
    the data moved to ``at``; every step checked."""
    ds = DualSystem()
    ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH CREATE TABLE {create};")
    ds.backend = EMISSIONS[emission].attach(ds.sq)
    columns = create[create.index("(") + 1 : create.index(")")]
    names = [column.split()[0] for column in columns.split(",")]
    table = create[: create.index("(")]
    ds.runmany(
        "v1",
        f"INSERT INTO {table}({', '.join(names)}) VALUES ({', '.join('?' for _ in names)})",
        rows,
    )
    for step, evolution in enumerate(evolutions, start=2):
        ds.execute_ddl(f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};")
        ds.check(f"evolved to v{step}")
    if at != "v1":
        ds.materialize(at)
        ds.check(f"materialized at {at}")
    return ds


def _views(ds: DualSystem) -> dict[str, str]:
    flatten = not isinstance(ds.backend, NestedEmissionBackend)
    return {
        name: select
        for name, select, _flat in codegen.view_definitions(ds.sq, flatten=flatten)
    }


def _run_all(ds: DualSystem, statements, context: str) -> None:
    for version, sql, params in statements:
        ds.run(version, sql, params)
        ds.check(f"{context}: {version} {sql} {params}")


def _both(ds: DualSystem, version: str, sql: str, params: tuple = ()):
    mem, sq = ds.run(version, sql, params)
    return mem.fetchall(), sq.fetchall()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("at", ["v1", "v2"])
def test_a_stored_null_reads_back_null(emission, at):
    ds = _dual(
        emission, "R(a INTEGER, b INTEGER)", [(i, i % 3) for i in range(6)],
        ["ADD COLUMN c AS a + b INTO R"], at,
    )
    try:
        if at == "v1":
            (v2,) = [s for name, s in _views(ds).items() if name.startswith("v1__")]
            assert PROBE in v2 and "COALESCE" not in v2
        _run_all(ds, [
            ("v2", "UPDATE R SET c = NULL WHERE a = ?", (1,)),
            ("v2", "INSERT INTO R(a, b, c) VALUES (?, ?, NULL)", (40, 1)),
            ("v1", "UPDATE R SET b = ? WHERE a = ?", (2, 2)),
            ("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (50, 1)),
        ], f"{emission}/{at}")
        for a, expected in ((1, None), (40, None), (50, 51), (2, 4)):
            mem, sq = _both(ds, "v2", "SELECT c FROM R WHERE a = ?", (a,))
            assert mem == sq == [(expected,)], (a, mem, sq)
        ds.materialize("v1" if at == "v2" else "v2")
        ds.check(f"{emission}/{at}/moved")
        mem, sq = _both(ds, "v2", "SELECT c FROM R WHERE a = ?", (1,))
        assert mem == sq == [(None,)]
    finally:
        ds.close()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("at", ["v1", "v3"])
def test_dropping_the_added_column_leaves_no_probe_and_no_filter(emission, at):
    ds = _dual(
        emission, "R(a INTEGER, b INTEGER)", [(i, i % 3) for i in range(6)],
        ["ADD COLUMN c AS a * 2 INTO R", "DROP COLUMN c FROM R DEFAULT 0"], at,
    )
    try:
        views = _views(ds)
        # The version the data does not hold c at reads the data table
        # alone: the probe fed only the column that is gone.
        far = "v2__R" if at == "v1" else "v0__R"
        assert "aux__" not in views[far] and " WHERE " not in views[far], views[far]
        assert PROBE in views["v1__R"]
        _run_all(ds, [
            ("v2", "UPDATE R SET c = ? WHERE a = ?", (99, 1)),
            ("v3", "UPDATE R SET b = ? WHERE a = ?", (7, 1)),
            ("v3", "INSERT INTO R(a, b) VALUES (?, ?)", (60, 2)),
            ("v1", "DELETE FROM R WHERE a = ?", (2,)),
        ], f"{emission}/{at}")
        mem, sq = _both(ds, "v2", "SELECT a, b, c FROM R WHERE a IN (1, 60) ORDER BY a")
        assert mem == sq
        _fuzz_ops(ds, random.Random(3), 12, f"{emission}/{at}/fuzz")
    finally:
        ds.close()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("at", ["v1", "v3"])
def test_split_on_the_added_column(emission, at):
    ds = _dual(
        emission, "R(a INTEGER, b INTEGER)", [(i, i % 4) for i in range(8)],
        ["ADD COLUMN c AS a % 3 INTO R",
         "SPLIT TABLE R INTO Lo WITH c < 2, Hi WITH c >= 2"], at,
    )
    try:
        _run_all(ds, [
            # A stored value moves the row across the condition.
            ("v2", "UPDATE R SET c = ? WHERE a = ?", (5, 0)),
            ("v2", "UPDATE R SET c = ? WHERE a = ?", (0, 2)),
            ("v3", "INSERT INTO Hi(a, b, c) VALUES (?, ?, ?)", (30, 1, 9)),
            ("v3", "UPDATE Lo SET b = ? WHERE a = ?", (3, 1)),
            ("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (31, 0)),
            ("v2", "UPDATE R SET c = NULL WHERE a = ?", (4,)),
        ], f"{emission}/{at}")
        mem, sq = _both(ds, "v3", "SELECT a, c FROM Hi ORDER BY a")
        assert mem == sq and (0, 5) in sq and (30, 9) in sq, sq
        _fuzz_ops(ds, random.Random(5), 12, f"{emission}/{at}/fuzz")
    finally:
        ds.close()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
def test_a_move_that_leaves_the_added_column_keeps_it_computed(emission):
    """A move that does not flip ADD COLUMN keeps its aux table B as it
    is: a value never written stays computed, a written one stays
    stored."""
    ds = _dual(
        emission, "R(a INTEGER, b INTEGER)", [(i, i * 10) for i in range(4)],
        ["RENAME COLUMN b IN R TO bb", "ADD COLUMN c AS a + bb INTO R"], "v1",
    )
    try:
        _run_all(ds, [("v3", "UPDATE R SET c = ? WHERE a = ?", (123, 2))], emission)
        ds.materialize("v2")  # flips RENAME; ADD COLUMN stays virtual
        ds.check(f"{emission}/moved")
        _run_all(ds, [
            ("v1", "UPDATE R SET a = ? WHERE a = ?", (10, 3)),
            ("v2", "UPDATE R SET bb = ? WHERE a = ?", (5, 1)),
        ], f"{emission}/moved")
        mem, sq = _both(ds, "v3", "SELECT a, c FROM R ORDER BY a")
        assert mem == sq == [(0, 0), (1, 6), (2, 123), (10, 40)], sq
    finally:
        ds.close()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("at", ["v1", "v2"])
def test_drop_column_default(emission, at):
    """DROP COLUMN's aux table is on the target side: with the data there
    the source version reads the dropped value through the probe."""
    ds = _dual(
        emission, "R(a INTEGER, b INTEGER, c INTEGER)",
        [(i, i % 3, i * 10) for i in range(6)],
        ["DROP COLUMN c FROM R DEFAULT 7"], at,
    )
    try:
        if at == "v2":
            assert PROBE in _views(ds)["v0__R"]
        _run_all(ds, [
            ("v1", "UPDATE R SET c = NULL WHERE a = ?", (1,)),
            ("v1", "INSERT INTO R(a, b, c) VALUES (?, ?, ?)", (20, 1, 200)),
            ("v2", "INSERT INTO R(a, b) VALUES (?, ?)", (21, 2)),
            ("v2", "UPDATE R SET b = ? WHERE a = ?", (0, 3)),
        ], f"{emission}/{at}")
        mem, sq = _both(ds, "v1", "SELECT a, c FROM R WHERE a IN (1, 20, 21) ORDER BY a")
        assert mem == sq == [(1, None), (20, 200), (21, 7)], sq
        _fuzz_ops(ds, random.Random(7), 12, f"{emission}/{at}/fuzz")
    finally:
        ds.close()
