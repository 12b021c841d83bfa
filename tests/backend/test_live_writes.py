"""Writes through generated views, executed inside SQLite via INSTEAD OF
triggers, must round-trip identically to the in-memory engine for every
SMO kind under source-, target-, and mixed materialization."""

from __future__ import annotations

import pytest

from tests.testing import DualSystem

# Each scenario: (create script for v1, loader, evolution for v2, ops).
# Loaders and ops run through the SQL layer on both systems; ops name the
# version they execute against.

SCENARIOS = {
    "rename": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER)",
        load=[("v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i * 10) for i in range(8)])],
        evolve="RENAME TABLE R INTO R2; RENAME COLUMN a IN R2 TO a2",
        ops=[
            ("v1", "INSERT INTO R(a, b) VALUES (100, 1)", ()),
            ("v2", "INSERT INTO R2(a2, b) VALUES (200, 2)", ()),
            ("v1", "UPDATE R SET b = 99 WHERE a = 3", ()),
            ("v2", "UPDATE R2 SET a2 = 42 WHERE b = 40", ()),
            ("v1", "DELETE FROM R WHERE a = 5", ()),
            ("v2", "DELETE FROM R2 WHERE a2 = 200", ()),
        ],
    ),
    "drop_table": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER); CREATE TABLE K(x INTEGER)",
        load=[("v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i) for i in range(6)])],
        evolve="DROP TABLE R",
        ops=[
            ("v1", "INSERT INTO R(a, b) VALUES (7, 7)", ()),
            ("v1", "UPDATE R SET b = 0 WHERE a = 2", ()),
            ("v1", "DELETE FROM R WHERE a = 1", ()),
        ],
    ),
    "add_column": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER)",
        load=[("v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i * 10) for i in range(8)])],
        evolve="ADD COLUMN c AS a + b INTO R",
        ops=[
            ("v1", "INSERT INTO R(a, b) VALUES (100, 1)", ()),
            ("v2", "INSERT INTO R(a, b, c) VALUES (9, 9, 999)", ()),
            ("v2", "UPDATE R SET c = 123 WHERE a = 2", ()),
            ("v1", "UPDATE R SET b = 77 WHERE a = 3", ()),
            ("v2", "DELETE FROM R WHERE a = 4", ()),
            ("v1", "DELETE FROM R WHERE a = 5", ()),
        ],
    ),
    "drop_column": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER)",
        load=[
            ("v1", "INSERT INTO R(a, b, c) VALUES (?, ?, ?)", [(i, i, i * 2) for i in range(8)])
        ],
        evolve="DROP COLUMN c FROM R DEFAULT b * 5",
        ops=[
            ("v2", "INSERT INTO R(a, b) VALUES (100, 1)", ()),
            ("v1", "INSERT INTO R(a, b, c) VALUES (9, 9, 999)", ()),
            ("v2", "UPDATE R SET b = 50 WHERE a = 2", ()),
            ("v1", "UPDATE R SET c = 0 WHERE a = 3", ()),
            ("v2", "DELETE FROM R WHERE a = 4", ()),
            ("v1", "DELETE FROM R WHERE a = 5", ()),
        ],
    ),
    "decompose_pk": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER)",
        load=[
            ("v1", "INSERT INTO R(a, b, c) VALUES (?, ?, ?)", [(i, i, i) for i in range(8)])
        ],
        evolve="DECOMPOSE TABLE R INTO S(a), T(b, c) ON PK",
        ops=[
            ("v1", "INSERT INTO R(a, b, c) VALUES (100, 1, 1)", ()),
            ("v2", "UPDATE S SET a = 41 WHERE a = 4", ()),
            ("v2", "UPDATE T SET b = 99 WHERE c = 3", ()),
            ("v2", "DELETE FROM S WHERE a = 2", ()),
            ("v2", "DELETE FROM T WHERE c = 5", ()),
            ("v1", "UPDATE R SET b = 7 WHERE a = 6", ()),
            ("v1", "DELETE FROM R WHERE a = 7", ()),
        ],
    ),
    "outer_join_pk": dict(
        create="CREATE TABLE S(a INTEGER); CREATE TABLE T(b INTEGER)",
        load=[],
        evolve="OUTER JOIN TABLE S, T INTO R ON PK",
        ops=[
            ("v2", "INSERT INTO R(a, b) VALUES (1, 10)", ()),
            ("v2", "INSERT INTO R(a, b) VALUES (2, 20)", ()),
            ("v1", "INSERT INTO S(a) VALUES (3)", ()),
            ("v2", "UPDATE R SET b = 11 WHERE a = 1", ()),
            ("v2", "DELETE FROM R WHERE a = 2", ()),
            ("v1", "DELETE FROM S WHERE a = 1", ()),
        ],
    ),
    "inner_join_pk": dict(
        create="CREATE TABLE L(a INTEGER); CREATE TABLE S(b INTEGER, c INTEGER)",
        load=[],
        evolve="JOIN TABLE L, S INTO T ON PK",
        ops=[
            ("v2", "INSERT INTO T(a, b, c) VALUES (1, 10, 100)", ()),
            ("v2", "INSERT INTO T(a, b, c) VALUES (2, 20, 200)", ()),
            ("v1", "INSERT INTO L(a) VALUES (3)", ()),
            ("v1", "INSERT INTO S(b, c) VALUES (30, 300)", ()),
            ("v2", "UPDATE T SET c = 101 WHERE a = 1", ()),
            ("v1", "UPDATE L SET a = 21 WHERE a = 2", ()),
            ("v1", "DELETE FROM L WHERE a = 1", ()),
            ("v2", "DELETE FROM T WHERE a = 21", ()),
        ],
    ),
    "split": dict(
        create="CREATE TABLE U(a INTEGER, b INTEGER)",
        load=[
            ("v1", "INSERT INTO U(a, b) VALUES (?, ?)", [(i, i % 3) for i in range(9)])
        ],
        evolve="SPLIT TABLE U INTO R WITH b = 0, S WITH b = 1",
        ops=[
            ("v1", "INSERT INTO U(a, b) VALUES (100, 0)", ()),
            ("v1", "INSERT INTO U(a, b) VALUES (101, 2)", ()),
            ("v2", "INSERT INTO R(a, b) VALUES (200, 0)", ()),
            ("v2", "INSERT INTO S(a, b) VALUES (201, 1)", ()),
            ("v2", "INSERT INTO R(a, b) VALUES (202, 9)", ()),  # violates cR -> Rstar
            ("v1", "UPDATE U SET b = 1 WHERE a = 3", ()),
            ("v2", "UPDATE R SET b = 5 WHERE a = 0", ()),
            ("v2", "DELETE FROM R WHERE a = 6", ()),
            ("v1", "DELETE FROM U WHERE a = 7", ()),
        ],
    ),
    "split_single": dict(
        create="CREATE TABLE U(a INTEGER, b INTEGER)",
        load=[
            ("v1", "INSERT INTO U(a, b) VALUES (?, ?)", [(i, i % 2) for i in range(8)])
        ],
        evolve="SPLIT TABLE U INTO R WITH b = 0",
        ops=[
            ("v1", "INSERT INTO U(a, b) VALUES (100, 0)", ()),
            ("v2", "INSERT INTO R(a, b) VALUES (200, 0)", ()),
            ("v2", "UPDATE R SET a = 300 WHERE a = 2", ()),
            ("v2", "DELETE FROM R WHERE a = 4", ()),
            ("v1", "DELETE FROM U WHERE a = 1", ()),
        ],
    ),
    "merge": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER); CREATE TABLE S(a INTEGER, b INTEGER)",
        load=[
            ("v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, 0) for i in range(4)]),
            ("v1", "INSERT INTO S(a, b) VALUES (?, ?)", [(10 + i, 1) for i in range(4)]),
        ],
        evolve="MERGE TABLE R (b = 0), S (b = 1) INTO U",
        ops=[
            ("v2", "INSERT INTO U(a, b) VALUES (100, 0)", ()),
            ("v2", "INSERT INTO U(a, b) VALUES (101, 1)", ()),
            ("v2", "INSERT INTO U(a, b) VALUES (102, 7)", ()),
            ("v1", "INSERT INTO R(a, b) VALUES (200, 0)", ()),
            ("v1", "INSERT INTO S(a, b) VALUES (201, 1)", ()),
            ("v2", "UPDATE U SET b = 1 WHERE a = 2", ()),
            ("v1", "UPDATE R SET a = 55 WHERE a = 3", ()),
            ("v2", "DELETE FROM U WHERE a = 11", ()),
            ("v1", "DELETE FROM R WHERE a = 0", ()),
        ],
    ),
    "decompose_fk": dict(
        create="CREATE TABLE R(a TEXT, b TEXT)",
        load=[
            (
                "v1",
                "INSERT INTO R(a, b) VALUES (?, ?)",
                [("t1", "Ann"), ("t2", "Ben"), ("t3", "Ann"), ("t4", "Cara")],
            )
        ],
        evolve="DECOMPOSE TABLE R INTO S(a), T(b) ON FK owner",
        ops=[
            ("v1", "INSERT INTO R(a, b) VALUES ('t5', 'Ben')", ()),
            ("v1", "INSERT INTO R(a, b) VALUES ('t6', 'Dora')", ()),
            ("v1", "UPDATE R SET b = 'Eve' WHERE a = 't1'", ()),
            ("v2", "UPDATE T SET b = 'Benny' WHERE b = 'Ben'", ()),
            ("v2", "UPDATE S SET a = 't2x' WHERE a = 't2'", ()),
            ("v1", "DELETE FROM R WHERE a = 't4'", ()),
            ("v2", "DELETE FROM S WHERE a = 't3'", ()),
        ],
    ),
    "outer_join_fk": dict(
        create="CREATE TABLE W(a TEXT, b TEXT)",
        load=[
            (
                "v1",
                "INSERT INTO W(a, b) VALUES (?, ?)",
                [("t1", "Ann"), ("t2", "Ben"), ("t3", "Ann")],
            )
        ],
        evolve="DECOMPOSE TABLE W INTO S(a), T(b) ON FK ref",
        evolve2="OUTER JOIN TABLE S, T INTO W2 ON FK ref",
        ops=[
            ("v1", "INSERT INTO W(a, b) VALUES ('t4', 'Cara')", ()),
            ("v3", "INSERT INTO W2(a, b) VALUES ('t5', 'Ben')", ()),
            # Cara is t4's exclusive payload; in-place updates of a SHARED
            # payload through the two-hop wide view are put conflicts the
            # engine resolves order-dependently — not contract behavior.
            ("v3", "UPDATE W2 SET b = 'Eve' WHERE a = 't4'", ()),
            ("v1", "DELETE FROM W WHERE a = 't2'", ()),
            ("v3", "DELETE FROM W2 WHERE a = 't3'", ()),
        ],
    ),
    "decompose_cond": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER)",
        load=[
            (
                "v1",
                "INSERT INTO R(a, b) VALUES (?, ?)",
                [(1, 1), (2, 2), (3, 3), (4, 4)],
            )
        ],
        evolve="DECOMPOSE TABLE R INTO S(a), T(b) ON a = b",
        ops=[
            ("v1", "INSERT INTO R(a, b) VALUES (5, 5)", ()),
            ("v1", "UPDATE R SET b = 9 WHERE a = 2", ()),
            ("v1", "DELETE FROM R WHERE a = 3", ()),
        ],
    ),
    "inner_join_cond": dict(
        create="CREATE TABLE R(a INTEGER, b INTEGER)",
        load=[
            (
                "v1",
                "INSERT INTO R(a, b) VALUES (?, ?)",
                [(1, 1), (2, 2), (3, 3)],
            )
        ],
        evolve="DECOMPOSE TABLE R INTO S(a), T(b) ON a = b",
        evolve2="JOIN TABLE S, T INTO J ON a = b",
        ops=[
            ("v2", "INSERT INTO S(a) VALUES (7)", ()),
            ("v2", "INSERT INTO T(b) VALUES (7)", ()),
            ("v2", "DELETE FROM S WHERE a = 2", ()),
        ],
    ),
}


def _build(name: str, materialize: str | None) -> DualSystem:
    spec = SCENARIOS[name]
    ds = DualSystem()
    ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH {spec['create']};")
    ds.attach()
    for version, sql, rows in spec["load"]:
        ds.runmany(version, sql, rows)
    ds.execute_ddl(f"CREATE SCHEMA VERSION v2 FROM v1 WITH {spec['evolve']};")
    if "evolve2" in spec:
        ds.execute_ddl(f"CREATE SCHEMA VERSION v3 FROM v2 WITH {spec['evolve2']};")
    if materialize is not None:
        ds.materialize(materialize)
    return ds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("materialize", [None, "v1", "v2"])
def test_write_round_trip(name, materialize):
    if materialize == "v2" and "evolve2" in SCENARIOS[name]:
        materialize = "v3"  # the deepest version exercises the full chain
    ds = _build(name, materialize)
    try:
        ds.check(f"{name}/{materialize}/after-load")
        for index, (version, sql, params) in enumerate(SCENARIOS[name]["ops"]):
            ds.run(version, sql, params)
            ds.check(f"{name}/{materialize}/op{index}: {sql}")
    finally:
        ds.close()


# A routed write through a condition SMO, then the rows that must not move.
ROUTED_CONDITION_WRITES = {
    # Data at v1: S(9) matches no T row, so v1.R keeps its two rows.
    "narrow": (
        "ON a <= b", None, [("v2", "INSERT INTO S(a) VALUES (9)")],
        "v1", "SELECT a, b FROM R", [(1, 1), (2, 2)],
    ),
    # Narrow side stored: S(9) has no partner, and an INSERT at v1.R
    # leaves it there.
    "wide": (
        "ON a = b", "v2",
        [("v2", "INSERT INTO S(a) VALUES (9)"), ("v1", "INSERT INTO R(a, b) VALUES (5, 5)")],
        "v2", "SELECT a FROM S", [(1,), (2,), (5,), (9,)],
    ),
}


@pytest.mark.xfail(
    reason="ROADMAP known defect: A routed condition write changes rows it does not touch",
    strict=True,
)
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("case", sorted(ROUTED_CONDITION_WRITES))
def test_a_routed_condition_write_leaves_other_rows_alone(case, backend):
    import repro
    from repro.backend.sqlite import LiveSqliteBackend

    condition, materialize, writes, version, query, expected = ROUTED_CONDITION_WRITES[case]
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    live = LiveSqliteBackend.attach(engine) if backend == "sqlite" else None
    try:
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        conn.executemany("INSERT INTO R(a, b) VALUES (?, ?)", [(1, 1), (2, 2)])
        conn.close()
        engine.execute(
            f"CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE R INTO S(a), T(b) {condition};"
        )
        if materialize is not None:
            engine.execute(f"MATERIALIZE '{materialize}';")
        for at, sql in writes:
            conn = repro.connect(engine, at, autocommit=True, backend=backend)
            conn.execute(sql)
            conn.close()
        conn = repro.connect(engine, version, autocommit=True, backend=backend)
        assert sorted(conn.execute(query).fetchall()) == expected
        conn.close()
    finally:
        if live is not None:
            live.close()
