"""``UPDATE`` / ``DELETE`` row counts on the live backend come from the
statement itself (``… RETURNING 1``: one row per view row an ``INSTEAD
OF`` trigger fired for).  They must equal the memory engine's — the rows
the predicate matched *before* the write — for predicates matching no
row, one row and many rows, through every version of the differential
chains under every valid materialization.  (``DualSystem.run`` asserts
the two counts equal on every statement; the tests below also pin them
to the count read beforehand.)
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest

from repro.backend import codegen
from repro.catalog.materialization import enumerate_valid_materializations
from repro.relational.types import DataType
from repro.sql.connection import connect
from tests.backend.test_differential import CHAINS, WORDS, _apply_materialization
from tests.testing import DualSystem
from tests.testing.compare import generated_id_spaces

ABSENT = 4242


def _build(name: str) -> DualSystem:
    create, load, evolutions = CHAINS[name]
    ds = DualSystem()
    ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH {create};")
    ds.attach()
    for step, evolution in enumerate(evolutions, start=2):
        source = f"v{step - 1}"
        if isinstance(evolution, tuple):
            evolution, source = evolution
        ds.execute_ddl(f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};")
    return ds


def _load(ds: DualSystem, name: str, offset: int) -> None:
    """Twelve fresh rows per v1 table: integer columns cycle with different
    periods over ten rows (values shared by several rows) and end in two
    values of their own."""
    _create, load, _evolutions = CHAINS[name]
    for table, columns in load.items():
        rows = [
            tuple(
                f"{WORDS[i % len(WORDS)]}{offset}x{i}"  # distinct: FK targets are not shared
                if c in ("author", "task", "w")
                else (i // (position + 1)) % (5 + position) if i < 10 else 10 + i
                for position, c in enumerate(columns)
            )
            for i in range(12)
        ]
        ds.runmany(
            "v1",
            f"INSERT INTO {table}({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})",
            rows,
        )


def _tally(conn, table: str, column: str) -> dict[str, tuple]:
    """{"none" | "one" | "many": (value, rows holding it)}."""
    rows = conn.execute(f"SELECT {column} FROM {table}").fetchall()
    tally = Counter(value for (value,) in rows if value is not None)
    picks = {"none": (ABSENT, 0)}
    for value, count in sorted(tally.items()):
        picks.setdefault("one" if count == 1 else "many", (value, count))
    return picks


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_rowcount_matches_memory_engine_in_every_version(name):
    """Every probe runs in a transaction that is rolled back, so the
    tallies stay as read and each statement meets the loaded state."""
    ds = _build(name)
    exercised: Counter = Counter()
    generated = generated_id_spaces(ds.mem.genealogy)
    try:
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        for index in range(count):
            _apply_materialization(ds, index)
            _load(ds, name, offset=index)
            ds.check(f"{name}/materialization-{index}/loaded")
            for version in sorted(v.name for v in ds.mem.genealogy.active_versions()):
                schema_version = ds.mem.genealogy.schema_version(version)
                mem = connect(ds.mem, version)
                sq = connect(ds.sq, version, backend=ds.backend)
                for table in sorted(schema_version.table_names()):
                    tv = schema_version.table_version(table)
                    # Payload integers only: rewriting a generated
                    # identifier is a put conflict with no one answer.
                    integers = [
                        c.name for c in tv.schema.columns
                        if c.name != tv.key_column and c.dtype != DataType.TEXT
                        and c.name not in generated.get(tv.uid, {})
                    ]
                    if not integers:
                        continue
                    where, target = integers[0], integers[-1]
                    statements = {
                        "update": f"UPDATE {table} SET {target} = {target} + 1 WHERE {where} = ?",
                        "delete": f"DELETE FROM {table} WHERE {where} = ?",
                    }
                    for case, (value, held) in _tally(mem, table, where).items():
                        for verb, sql in statements.items():
                            context = f"{name}/materialization-{index}/{version}: {sql} ({value})"
                            counts = []
                            for conn in (mem, sq):
                                counts.append(conn.execute(sql, (value,)).rowcount)
                                conn.rollback()
                            assert counts == [held, held], context
                            exercised[verb, case] += 1
                mem.close()
                sq.close()
        for verb, case in product(("update", "delete"), ("none", "one", "many")):
            assert exercised[verb, case], f"{name}: no {verb} matched {case}"
    finally:
        ds.close()


def test_update_that_breaks_the_partition_condition_counts_what_matched_before():
    """R1 is the partition with an even ``c``; adding one to every ``c``
    breaks that for each of its rows.  Where SPLIT shows them afterwards
    is the SMO's business — the count is what matched before the write."""
    ds = _build("columns_then_split")
    try:
        _load(ds, "columns_then_split", offset=0)
        for index in range(len(enumerate_valid_materializations(ds.mem.genealogy))):
            _apply_materialization(ds, index)
            for table in ("R1", "R2"):
                mem, _sq = ds.run("v3", f"SELECT * FROM {table}")
                held = mem.rowcount
                assert held > 1
                mem, sq = ds.run("v3", f"UPDATE {table} SET c = c + 1 WHERE c >= ?", (0,))
                assert mem.rowcount == sq.rowcount == held
                ds.check(f"materialization-{index}/{table}")
    finally:
        ds.close()


def test_delete_through_a_view_that_stays_union_counts_its_rows():
    """JOIN ON PK, materialized at the join: L's view is "T's rows" plus
    "rows only L had" — not provably disjoint, so it keeps ``UNION``."""
    ds = DualSystem()
    try:
        ds.execute_ddl(
            "CREATE SCHEMA VERSION j1 WITH CREATE TABLE L(x INTEGER); CREATE TABLE R(y INTEGER);"
        )
        ds.attach()
        ds.execute_ddl("CREATE SCHEMA VERSION j2 FROM j1 WITH JOIN TABLE L, R INTO T ON PK;")
        ds.runmany("j1", "INSERT INTO L(x) VALUES (?)", [(n % 3,) for n in range(9)])
        ds.materialize("j2")
        tv = ds.sq.genealogy.schema_version("j1").table_version("L")
        (select,) = (
            select for view, select, _flat in codegen.view_definitions(ds.sq)
            if view == tv.view_name
        )
        assert "\nUNION\n" in select and "UNION ALL" not in select
        for value, held in ((ABSENT, 0), (0, 3)):
            mem, sq = ds.run("j1", "UPDATE L SET x = x + 3 WHERE x = ?", (value,))
            assert mem.rowcount == sq.rowcount == held
        for value, held in ((ABSENT, 0), (3, 3), (1, 3)):
            mem, sq = ds.run("j1", "DELETE FROM L WHERE x = ?", (value,))
            assert mem.rowcount == sq.rowcount == held
        mem, sq = ds.run("j1", "DELETE FROM L WHERE x >= ?", (0,))
        assert mem.rowcount == sq.rowcount == 3
        ds.check("union view")
    finally:
        ds.close()
