"""Scaffolding only where a trigger program uses it.

``SmoHandler.put_tables()`` declares the ``put__*`` staging tables the
backend creates; the generated programs are the only thing that may name
them.  Declared and referenced sets must coincide, for every SMO kind and
under both of its materialization states.
"""

from __future__ import annotations

import re

import pytest

from repro.backend import codegen
from repro.backend.handlers import HandlerContext, handler_for
from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.workloads.orders import build_orders
from repro.workloads.tasky import build_tasky

# kind -> (CREATE TABLE script of v1, the SMO deriving v2)
SMO_KINDS = {
    "rename_table": ("CREATE TABLE R(a INTEGER, b INTEGER)", "RENAME TABLE R INTO Q"),
    "rename_column": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "RENAME COLUMN a IN R TO x",
    ),
    "add_column": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "ADD COLUMN c AS a + 1 INTO R",
    ),
    "drop_column": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "DROP COLUMN b FROM R DEFAULT 0",
    ),
    "drop_table": (
        "CREATE TABLE R(a INTEGER); CREATE TABLE K(z INTEGER)",
        "DROP TABLE K",
    ),
    "split_two_way": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "SPLIT TABLE R INTO X WITH a >= 1, Y WITH a < 1",
    ),
    "split_one_way": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "SPLIT TABLE R INTO X WITH a >= 1",
    ),
    "merge": (
        "CREATE TABLE X(a INTEGER, b INTEGER); CREATE TABLE Y(a INTEGER, b INTEGER)",
        "MERGE TABLE X (a >= 1), Y (a < 1) INTO R",
    ),
    "decompose_pk": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "DECOMPOSE TABLE R INTO S(a), T(b) ON PK",
    ),
    "outer_join_pk": (
        "CREATE TABLE S(a INTEGER); CREATE TABLE T(b INTEGER)",
        "OUTER JOIN TABLE S, T INTO R ON PK",
    ),
    "join_pk": (
        "CREATE TABLE S(a INTEGER); CREATE TABLE T(b INTEGER)",
        "JOIN TABLE S, T INTO R ON PK",
    ),
    "decompose_fk": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "DECOMPOSE TABLE R INTO S(a), T(b) ON FK ref",
    ),
    "outer_join_fk": (
        "CREATE TABLE S(a INTEGER, ref INTEGER); CREATE TABLE T(id INTEGER, b INTEGER)",
        "OUTER JOIN TABLE S, T INTO R ON FK ref",
    ),
    "decompose_cond": (
        "CREATE TABLE R(a INTEGER, b INTEGER)",
        "DECOMPOSE TABLE R INTO S(a), T(b) ON a = b",
    ),
    "join_cond": (
        "CREATE TABLE S(id INTEGER, a INTEGER); CREATE TABLE T(id INTEGER, b INTEGER)",
        "JOIN TABLE S, T INTO R ON a = b",
    ),
}

PUT_NAME = re.compile(r"\bput__\d+__\w+")


def referenced_put_tables(engine) -> set[str]:
    program = (
        codegen.view_statements(engine)
        + codegen.trigger_statements(engine)
        + codegen.repair_all_statements(engine)
    )
    return {name for statement in program for name in PUT_NAME.findall(statement)}


def declared_put_tables(engine) -> set[str]:
    ctx = HandlerContext(engine)
    return {
        name
        for smo in engine.genealogy.evolution_smos()
        for name in handler_for(ctx, smo).put_tables()
    }


def installed_put_tables(backend) -> set[str]:
    return {name for name in backend.table_names() if name.startswith("put__")}


@pytest.mark.parametrize("materialized", [False, True], ids=["virtual", "materialized"])
@pytest.mark.parametrize("kind", sorted(SMO_KINDS))
def test_declared_put_tables_are_exactly_the_referenced_ones(kind, materialized):
    create, smo = SMO_KINDS[kind]
    engine = InVerDa()
    engine.execute(f"CREATE SCHEMA VERSION v1 WITH {create};")
    engine.execute(f"CREATE SCHEMA VERSION v2 FROM v1 WITH {smo};")
    (instance,) = engine.genealogy.evolution_smos()
    if materialized:
        engine.apply_materialization(frozenset({instance}))
    assert instance.materialized is materialized
    assert declared_put_tables(engine) == referenced_put_tables(engine)


def test_workload_scenarios_scaffold_only_what_their_programs_name():
    # TasKy's one-target SPLIT snapshots no twin, so it scaffolds nothing;
    # its FK DECOMPOSE keeps four.
    for engine, count in (
        (build_tasky(5).engine, 4),
        (build_orders(2, 2, 2, versions=3).engine, 2),
    ):
        backend = LiveSqliteBackend.attach(engine)
        try:
            installed = installed_put_tables(backend)
            assert installed == referenced_put_tables(engine)
            assert len(installed) == count
        finally:
            backend.close()


def test_drop_removes_put_tables_an_earlier_release_scaffolded():
    """Files written before scaffolding was trimmed hold a staging table
    per role plus a scratch table for *every* SMO; dropping the version
    must not leak them."""
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO x;")
    backend = LiveSqliteBackend.attach(engine)
    try:
        (smo,) = engine.genealogy.evolution_smos()
        assert installed_put_tables(backend) == set()
        legacy = {smo.put_table_name(role) for role in ("R", "R2", "scratch")}
        for name in legacy:
            backend.execute(f"CREATE TABLE {name} (p INTEGER PRIMARY KEY, a)")
        backend.connection.commit()
        engine.execute("DROP SCHEMA VERSION v2;")
        assert installed_put_tables(backend) == set()
    finally:
        backend.close()
