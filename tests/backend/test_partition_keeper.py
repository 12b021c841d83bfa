"""The partition keeper against the memory engine.

A write at one partition re-derives the unified row.  When neither
partition holds the key afterwards, the stored unified row is deleted —
unless it matches neither SPLIT condition: such a row was never visible
in a partition through its condition, and it stays put (the keeper of the
memory engine's keyed put, ``_PartitionLens.keeper``, which reads it into
the rules as ``Uprime``).  The trigger text tests compare
composed triggers with the same handler's hop-by-hop triggers, so they
cannot see a wrong keeper rule; this differential can.

Every SPLIT drawn here admits rows matching neither condition: a NULL
condition column, non-complementary and overlapping conditions, and a
one-partition SPLIT.  Each script writes INSERT, UPDATE of a payload
column, UPDATE of the condition column and DELETE at the unified table
and at every partition, and moves the data to the other side halfway
through.  Both systems must show the same contents after every statement.
"""

from __future__ import annotations

import random

import pytest

from tests.testing import DualSystem

SPLITS = {
    "complementary_with_null": "SPLIT TABLE U INTO P WITH b % 2 = 0, Q WITH b % 2 = 1",
    "non_complementary": "SPLIT TABLE U INTO P WITH b > 5, Q WITH b < 3",
    "overlapping": "SPLIT TABLE U INTO P WITH b > 2, Q WITH b < 7",
    "one_partition": "SPLIT TABLE U INTO P WITH b > 3",
}

#: v1 stores the unified table; v2 renames a column, so a write reaching
#: the unified side crosses a row-local hop; v3 splits.
CHAIN = (
    "CREATE SCHEMA VERSION v1 WITH CREATE TABLE U(a INTEGER, b INTEGER, c INTEGER);",
    "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN c IN U TO d;",
)

OPS = 64


def _b(rng: random.Random) -> int | None:
    return rng.choice([None, None, *range(10)])


def _statement(rng: random.Random, tables: list[tuple[str, str]]) -> tuple[str, str, tuple]:
    version, table = rng.choice(tables)
    kind = rng.choice(["insert", "update_payload", "update_condition", "delete"])
    if kind == "insert":
        sql = f"INSERT INTO {table}(a, b, d) VALUES (?, ?, ?)"
        return version, sql, (rng.randrange(5), _b(rng), rng.randrange(100))
    if kind == "update_payload":
        sql = f"UPDATE {table} SET d = ? WHERE a = ?"
        return version, sql, (rng.randrange(100), rng.randrange(5))
    if kind == "update_condition":
        sql = f"UPDATE {table} SET b = ? WHERE a = ?"
        return version, sql, (_b(rng), rng.randrange(5))
    return version, f"DELETE FROM {table} WHERE a = ?", (rng.randrange(5),)


@pytest.mark.parametrize("start, moved", [("v1", "v3"), ("v3", "v1")])
@pytest.mark.parametrize("shape", sorted(SPLITS))
@pytest.mark.parametrize("seed", [3, 11, 19])
def test_partition_writes_match_the_memory_engine(shape, seed, start, moved):
    rng = random.Random(f"{shape}/{seed}")
    ds = DualSystem()
    try:
        ds.execute_ddl(CHAIN[0])
        ds.attach()
        ds.runmany(
            "v1",
            "INSERT INTO U(a, b, c) VALUES (?, ?, ?)",
            [(rng.randrange(5), _b(rng), rng.randrange(100)) for _ in range(10)],
        )
        ds.execute_ddl(CHAIN[1])
        ds.execute_ddl(f"CREATE SCHEMA VERSION v3 FROM v2 WITH {SPLITS[shape]};")
        ds.materialize(start)
        ds.check(f"{shape}/{seed}: at {start}")
        partitions = ["P", "Q"] if "Q WITH" in SPLITS[shape] else ["P"]
        tables = [("v2", "U")] + [("v3", name) for name in partitions]
        for index in range(OPS):
            if index == OPS // 2:
                ds.materialize(moved)
                ds.check(f"{shape}/{seed}: moved to {moved}")
            version, sql, params = _statement(rng, tables)
            ds.run(version, sql, params)
            ds.check(f"{shape}/{seed}/op{index} {version}: {sql} {params}")
    finally:
        ds.close()


def test_delete_at_the_second_partition_keeps_a_unified_row_its_twin_hid():
    """Q shows its separated twin (Splus), not the stored unified row: after
    the unified row's condition column turns NULL, P hides the key while Q
    still shows the twin.  Deleting it at Q must test the unified row, which
    matches neither condition and so stays put."""
    ds = DualSystem()
    try:
        ds.execute_ddl(CHAIN[0])
        ds.attach()
        ds.execute_ddl(CHAIN[1])
        ds.execute_ddl(f"CREATE SCHEMA VERSION v3 FROM v2 WITH {SPLITS['overlapping']};")
        ds.materialize("v1")
        for version, sql, params in [
            ("v2", "INSERT INTO U(a, b, d) VALUES (?, ?, ?)", (1, 4, 10)),
            ("v3", "UPDATE Q SET d = ? WHERE a = ?", (99, 1)),
            ("v2", "UPDATE U SET b = NULL WHERE a = ?", (1,)),
            ("v3", "DELETE FROM Q WHERE a = ?", (1,)),
        ]:
            ds.run(version, sql, params)
            ds.check(f"{version}: {sql} {params}")
    finally:
        ds.close()


def test_a_delete_at_a_partition_removes_a_unified_row_it_showed_by_its_mark():
    """A row matching neither condition inserted at P is stored in U with an
    ``Rstar`` mark, and P shows it by that mark.  gamma_tgt's ``Uprime``
    rule keeps no marked row, so deleting it at P deletes it from U on both
    engines: no version shows it any more."""
    ds = DualSystem()
    try:
        ds.execute_ddl(CHAIN[0])
        ds.attach()
        ds.execute_ddl(CHAIN[1])
        ds.execute_ddl(f"CREATE SCHEMA VERSION v3 FROM v2 WITH {SPLITS['overlapping']};")
        ds.materialize("v1")
        for version, sql, params in [
            ("v3", "INSERT INTO P(a, b, d) VALUES (?, ?, ?)", (1, None, 10)),
            ("v3", "DELETE FROM P WHERE a = ?", (1,)),
        ]:
            ds.run(version, sql, params)
            ds.check(f"{version}: {sql} {params}")
        shown = ds.run("v2", "SELECT a FROM U WHERE a = ?", (1,))
        assert [cursor.fetchall() for cursor in shown] == [[], []]
    finally:
        ds.close()
