"""The installed trigger text: one upsert program per view, and a partition
write that folds the row it writes into ``NEW``.

Every connection re-parses the whole delta code after a transition, so its
size is a cost on the transition path.  These tests pin what keeps it
small without changing what any statement does:

(a) the UPDATE trigger's ``p``-immutability check, now the key of its one
    delegating statement, still raises the same message at every view of
    every differential chain under every valid materialization — on a
    repro session and on a raw ``sqlite3`` handle with default pragmas —
    and leaves every version as it was;
(b) no partition's trigger names its own snapshot table: the row a
    partition write writes is ``NEW``, only the twin's row is staged;
(c) the benchmark chain's installed delta code stays within its byte
    budget, which the ``repro_delta_code_bytes`` gauge reports;
(d) composition is complete and exact: no installed trigger writes a view
    whose own program is row-local where that program runs in place (it
    is one statement, or the write reads nothing but row snapshots) — an
    UPDATE trigger handing its row to its own view's INSERT trigger
    aside — every write through every view of every chain under every
    valid materialization leaves the stored tables exactly as the
    hop-by-hop triggers do, and a DELETE of an absent key changes
    nothing — on a raw ``sqlite3`` handle;
(e) what SQLite compiles and runs for a write at either end of the
    benchmark chain stays its exact size — opcodes, and trigger statements
    — and no view or trigger reads a physical table version through its
    pass-through view.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest

import repro
from repro.backend import codegen
from repro.backend.emit import q, reads_only_snapshots
from repro.backend.handlers import (
    ColumnHandler,
    DropTableHandler,
    HandlerContext,
    IdentityHandler,
    InnerJoinPkHandler,
    PartitionHandler,
    VerticalHandler,
    handler_for,
)
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.core.engine import InVerDa
from repro.workloads.orders import build_orders
from tests.backend.test_differential import CHAINS, _apply_materialization
from tests.backend.test_sargable import build_chain
from tests.backend.test_upsert_primitive import (
    ALL_CHAINS,
    _build,
    _changed,
    _outcome,
    _stored_state,
)
from tests.testing import DualSystem
from tests.testing.compare import generated_id_spaces, visible_state

SQLITE = f"SQLite {sqlite3.sqlite_version}"
IMMUTABLE = "the row identifier p is immutable"


class _OnFile:
    """``LiveSqliteBackend`` attached to one database file, so that a raw
    handle can open the same database."""

    def __init__(self, path: str):
        self.path = path

    def attach(self, engine):
        return LiveSqliteBackend.attach(engine, database=self.path)


def _rekey_each_view(ds, run, context: str) -> int:
    """Try to change ``p`` of one row of every view through ``run``; each
    attempt must fail with the immutability message."""
    tried = 0
    for tv in codegen.active_table_versions(ds.sq):
        view = q(tv.view_name)
        row = ds.backend.connection.execute(
            f"SELECT p, (SELECT MAX(p) FROM {view}) FROM {view} ORDER BY p LIMIT 1"
        ).fetchone()
        if row is None:
            continue
        p, highest = row
        with pytest.raises(sqlite3.IntegrityError) as raised:
            run(f"UPDATE {view} SET p = ? WHERE p = ?", (highest + 1000, p))
        assert str(raised.value) == IMMUTABLE, f"[{context}] {SQLITE}: {tv.view_name}"
        tried += 1
    return tried


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_changing_p_raises_the_same_message_at_every_view(name, tmp_path):
    path = str(tmp_path / "chain.db")
    ds = _build(name, _OnFile(path), random.Random(5))
    try:
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        tried = 0
        for index in range(count):
            _apply_materialization(ds, index)
            context = f"{name}/materialization-{index}"
            before = visible_state(ds.sq, ds.backend)
            conn = repro.connect(ds.sq, "v1", backend=ds.backend)
            try:
                tried += _rekey_each_view(ds, conn._session.execute, f"{context}/repro")
            finally:
                conn.close()
            raw = sqlite3.connect(path)
            try:
                tried += _rekey_each_view(ds, raw.execute, f"{context}/raw")
                raw.rollback()
            finally:
                raw.close()
            assert visible_state(ds.sq, ds.backend) == before, context
            ds.check(context)
        assert tried >= 2 * count
    finally:
        ds.close()


PARTITION_CHAINS = sorted(
    name
    for name, (_create, _load, evolutions) in CHAINS.items()
    if any(word in str(evolutions) for word in ("SPLIT", "MERGE"))
)


@pytest.mark.parametrize("name", PARTITION_CHAINS)
def test_no_partition_trigger_names_its_own_snapshot(name):
    create, _load, evolutions = CHAINS[name]
    engine = InVerDa()
    engine.execute(f"CREATE SCHEMA VERSION v1 WITH {create};")
    for step, evolution in enumerate(evolutions, start=2):
        source = f"v{step - 1}"
        if isinstance(evolution, tuple):
            evolution, source = evolution
        engine.execute(f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};")
    ctx = HandlerContext(engine)
    checked = 0
    for schema in enumerate_valid_materializations(engine.genealogy):
        engine.apply_materialization(schema)
        for tv in codegen.active_table_versions(engine):
            route = codegen.route_for(engine, tv)
            if route is None:
                continue
            handler = handler_for(ctx, route[0])
            if not isinstance(handler, PartitionHandler) or handler.is_unified(tv):
                continue
            own = re.compile(rf"\b{route[0].put_table_name(handler.role_of(tv))}\b")
            for trigger in codegen.trigger_statements(engine):
                if f" ON {q(tv.view_name)}\n" in trigger:
                    assert not own.search(trigger), trigger
                    checked += 1
    assert checked


def test_benchmark_chain_delta_code_fits_its_budget():
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(1000)])
    try:
        installed = [
            sql for _kind, sql, _view in codegen.installed_objects(backend.connection).values()
        ]
        size = len(codegen.script(installed).encode())
        assert size == len(backend.generated_sql().encode())
        assert size <= 15_500, f"{size} bytes of delta code"
        assert engine.metrics.get("repro_delta_code_bytes").value() == size
        assert backend.last_install["bytes"] == size
    finally:
        backend.close()


#: ``EXPLAIN`` opcodes of the forward INSERT / UPDATE / DELETE the SQL layer
#: runs on ``v9__Lo`` (S8's Lo), trigger programs included, by SQLite version.
#: Emission stamp 12 compiled them to 392 / 520 / 502: the unified row went
#: through ``v7__Even``'s INSERT trigger, the keeper deleted from that view,
#: every upsert was an ``INSERT … SELECT``, and a DELETE staged its twin
#: through ``v10__Hi`` (now through Hi's rules, over the row deleted).
FWD_OPCODES = {"3.40.1": {"INSERT": 347, "UPDATE": 457, "DELETE": 397}}

#: The same for the backward writes on ``v0__Item`` (S0's Item).  Emission
#: stamp 8 compiled them to 180 / 283 / 215: its DELETE found the row in
#: ``v3__Thing``'s three branches before that view's trigger deleted it;
#: stamp 12 to 180 / 283 / 129, handing the row to ``v3__Thing``'s INSERT
#: trigger by an ``INSERT … SELECT``.
BWD_OPCODES = {"3.40.1": {"INSERT": 162, "UPDATE": 265, "DELETE": 129}}

#: Trigger statements SQLite runs for one INSERT / UPDATE / DELETE at either
#: end of the benchmark chain: each trigger program it enters and each
#: statement of one, as the trace callback reports them.  Emission stamp 12
#: ran 16 / 18 / 15 forward (two programs each, the unified row's own
#: trigger the second) and 9 / 9 / 4 backward.  The forward DELETE runs one
#: more statement than the INSERT: it stages the twin in two.
TRIGGER_STATEMENTS = {
    "fwd": {"INSERT": 14, "UPDATE": 16, "DELETE": 15},
    "bwd": {"INSERT": 9, "UPDATE": 9, "DELETE": 4},
}

_WRITE_TARGET = re.compile(r"(?:INSERT INTO|DELETE FROM) (\w+)")


def _trigger_statements(sql: str) -> list[str]:
    body = sql[sql.index("\nBEGIN\n  ") + len("\nBEGIN\n  ") : sql.rindex(";\nEND")]
    return body.split(";\n  ")


def _write_opcodes(engine, backend, version: str, table: str, view: str, payload: str):
    """``EXPLAIN`` opcodes of the INSERT / UPDATE / DELETE the SQL layer runs
    for writes on ``table`` at ``version`` (``payload`` its updated column),
    and their texts."""
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite")
    texts = {}
    for op, sql in (
        ("INSERT", f"INSERT INTO {table}(k, grp, qty, {payload}) VALUES (?, ?, ?, ?)"),
        ("UPDATE", f"UPDATE {table} SET {payload} = ? WHERE k = ?"),
        ("DELETE", f"DELETE FROM {table} WHERE k = ?"),
    ):
        report = dict(conn.execute(f"EXPLAIN {sql}", (1,) * sql.count("?")))
        assert report["view"] == view
        texts[op] = report.get("executed_sql", report["backend_sql"])
    conn.close()
    handle = backend.connection
    opcodes = {
        op: len(handle.execute(f"EXPLAIN {text}", (None,) * text.count("?")).fetchall())
        for op, text in texts.items()
    }
    return opcodes, texts


def test_benchmark_chain_forward_writes_compile_to_their_size(tmp_path):
    """What SQLite compiles for a forward write is what every handle
    prepares again after a transition.  The counts are exact, on a WAL file
    like the benchmark's; and no partition trigger reads its unified view
    (the keeper tests the row it was handed) but a delete at the second
    partition, which may have shown its separated twin instead."""
    engine, backend = build_chain(
        [(i, i % 7, i % 13, f"n{i}") for i in range(1000)], str(tmp_path / "chain.db")
    )
    try:
        opcodes, texts = _write_opcodes(engine, backend, "S8", "Lo", "v9__Lo", "remark")
        if sqlite3.sqlite_version in FWD_OPCODES:
            assert opcodes == FWD_OPCODES[sqlite3.sqlite_version], f"{SQLITE}: {texts}"

        handle = backend.connection
        ctx = HandlerContext(engine)
        checked = 0
        for tv in codegen.active_table_versions(engine):
            route = codegen.route_for(engine, tv)
            handler = route and handler_for(ctx, route[0])
            if not isinstance(handler, PartitionHandler) or handler.is_unified(tv):
                continue
            unified = re.compile(rf"\b{handler._tvs()[0].view_name}\b")
            for (sql,) in handle.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'trigger' AND tbl_name = ?",
                (tv.view_name,),
            ):
                if tv is handler._tvs()[2] and "INSTEAD OF DELETE" in sql:
                    continue
                for statement in _trigger_statements(sql):
                    read = _WRITE_TARGET.sub("", statement, count=1)
                    assert not unified.search(read), statement
                checked += 1
        assert checked == 5  # S8's Lo and Hi, three triggers each but Hi's DELETE
    finally:
        backend.close()


def test_benchmark_chain_backward_writes_compile_to_their_size(tmp_path):
    """The backward writes, four hops behind the data, on the same file: a
    DELETE runs the row-local deletes of the compound ``v3__Thing`` in
    place instead of finding its row there first."""
    engine, backend = build_chain(
        [(i, i % 7, i % 13, f"n{i}") for i in range(1000)], str(tmp_path / "chain.db")
    )
    try:
        opcodes, texts = _write_opcodes(engine, backend, "S0", "Item", "v0__Item", "note")
        if sqlite3.sqlite_version in BWD_OPCODES:
            assert opcodes == BWD_OPCODES[sqlite3.sqlite_version], f"{SQLITE}: {texts}"
    finally:
        backend.close()


def test_benchmark_chain_writes_run_their_trigger_statements():
    """Counted on the backend's handle with the trace callback, which
    reports every trigger program a statement enters and every statement
    of one after the statement itself — the DELETE included, which the
    benchmark's traced replay of an UPDATE does not see."""
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(50)])
    handle = backend.connection
    writes = {
        "fwd": (
            "v9__Lo", "INSERT INTO v9__Lo VALUES (1000, 50, 2, 4, 'x', 5)",
            "UPDATE v9__Lo SET remark = 'u' WHERE k = 4",
        ),
        "bwd": (
            "v0__Item", "INSERT INTO v0__Item VALUES (1000, 50, 1, 2, 'x')",
            "UPDATE v0__Item SET note = 'u' WHERE k = 4",
        ),
    }
    try:
        counted = {}
        for end, (view, insert, update) in writes.items():
            counted[end] = {}
            for op, sql in (
                ("INSERT", insert), ("UPDATE", update), ("DELETE", f"DELETE FROM {view} WHERE k = 4")
            ):
                traced = []
                handle.execute("SAVEPOINT counted")
                handle.set_trace_callback(traced.append)
                try:
                    handle.execute(sql)
                finally:
                    handle.set_trace_callback(None)
                    handle.execute("ROLLBACK TO counted")
                    handle.execute("RELEASE counted")
                counted[end][op] = len(traced) - 1
        assert counted == TRIGGER_STATEMENTS, f"{SQLITE}: {counted}"
    finally:
        backend.close()


def _pass_through_names(engine, connection, *, targets: bool = True) -> list[str]:
    """Where an installed view or trigger names a physical table version's
    pass-through view (a trigger's own ``ON`` clause aside): anywhere, or
    with ``targets=False`` anywhere but the table a statement writes."""
    physical = sorted(
        tv.view_name
        for tv in codegen.active_table_versions(engine)
        if codegen.route_for(engine, tv) is None
    )
    named = re.compile(rf"\b(?:{'|'.join(map(re.escape, physical))})\b")
    found = []
    for kind, sql, _view in codegen.installed_objects(connection).values():
        if kind == "view":
            bodies = [sql[sql.index(" AS\n") :]]
        else:
            bodies = _trigger_statements(sql)
            if not targets:
                bodies = [_WRITE_TARGET.sub("", body, count=1) for body in bodies]
        found += [
            f"{sql.splitlines()[0]}: {match}" for body in bodies for match in named.findall(body)
        ]
    return found


def test_no_generated_object_names_a_pass_through_view():
    """A probe of a physical table version reads its data table, which
    holds the rows of its pass-through view without the view SQLite would
    expand at every prepare.  On the benchmark chain and the orders build
    no view or trigger names such a view at all; under every other valid
    materialization of the orders build none reads one (a keeper's guarded
    delete may still write one: its guard reads more than the row)."""
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(50)])
    try:
        assert _pass_through_names(engine, backend.connection) == []
    finally:
        backend.close()
    engine = build_orders(2, 8, 2).engine
    backend = LiveSqliteBackend.attach(engine)
    try:
        assert _pass_through_names(engine, backend.connection) == []
        schemas = enumerate_valid_materializations(engine.genealogy)
        for schema in schemas:
            engine.apply_materialization(schema)
            assert _pass_through_names(engine, backend.connection, targets=False) == [], schema
        assert len(schemas) > 1
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# (d) composition: complete, and exact against the hop-by-hop triggers
# ---------------------------------------------------------------------------


class HopByHop(codegen.Renderer):
    """Every write into a view fires that view's trigger (no program is
    inlined): the reference composition must agree with."""

    def row_program(self, *_hop):
        return None


def _row_local(engine, tv, op: str) -> bool:
    """Is ``tv``'s own ``op`` program row-local, so that it runs in place of
    a write reading nothing but row snapshots — decided from the catalog,
    not from the rendered text?"""
    route = codegen.route_for(engine, tv)
    smo = route[0] if route is not None else None
    if any(codegen._off_route_shared(tv, smo)):
        return False
    if smo is None:
        return True
    handler = handler_for(HandlerContext(engine), smo)
    if isinstance(handler, (IdentityHandler, DropTableHandler, ColumnHandler)):
        return True
    if isinstance(handler, VerticalHandler):
        return tv is handler._tvs()[0]
    if isinstance(handler, InnerJoinPkHandler):
        return op == "UPSERT" and tv in smo.targets
    if isinstance(handler, PartitionHandler):
        return op == "DELETE" and handler.is_unified(tv)
    return False


#: An upsert into a relation, as a SELECT or as one VALUES row.
_VIEW_INSERT = re.compile(r"INSERT INTO (\w+) (?:SELECT|VALUES \()(.*)", re.S)
_ROW_DELETE = re.compile(r"DELETE FROM (\w+) WHERE p IS (?:NEW|OLD)\.p(?: AND \((.*)\))?", re.S)


def _hop_writes(connection, upserts: set[str], deletes: set[str]) -> list[str]:
    """Installed statements that still write a view whose own program runs
    in place of them: an INSERT into a view of ``upserts`` or a row delete
    from a view of ``deletes`` that reads nothing but row snapshots, or
    whose target's own program is one statement.  An UPDATE trigger's
    hand-off to its own view's INSERT trigger is no such write."""
    triggers = connection.execute(
        "SELECT tbl_name, sql FROM sqlite_master WHERE type = 'trigger'"
    ).fetchall()
    one_statement = {
        view for view, sql in triggers
        if "INSTEAD OF INSERT" in sql and len(_trigger_statements(sql)) == 1
    }
    found = []
    for view, sql in triggers:
        for statement in _trigger_statements(sql):
            insert, delete = _VIEW_INSERT.match(statement), _ROW_DELETE.fullmatch(statement)
            if insert and insert.group(1) in upserts:
                if "INSTEAD OF UPDATE" in sql and insert.group(1) == view:
                    continue
                if insert.group(1) in one_statement or reads_only_snapshots(insert.group(2)):
                    found.append(statement)
            elif delete and delete.group(1) in deletes and reads_only_snapshots(delete.group(2)):
                found.append(statement)
    return found


def _writes(ds, handle, rng) -> list[tuple[str, tuple]]:
    """Per view: UPDATE, INSERT of an existing ``p`` and DELETE of one row,
    INSERT and DELETE of an absent key."""
    identifiers = generated_id_spaces(ds.sq.genealogy)
    writes = []
    for tv in codegen.active_table_versions(ds.sq):
        view, columns = q(tv.view_name), tv.schema.column_names
        collist = ", ".join(q(c) for c in columns)
        marks = ", ".join("?" for _ in range(len(columns) + 1))
        absent = handle.execute(f"SELECT COALESCE(MAX(p), 0) + 1000 FROM {view}").fetchone()[0]
        row = handle.execute(f"SELECT p, {collist} FROM {view} ORDER BY p LIMIT 1").fetchone()
        if row is not None:
            p, *values = row
            new = _changed(tv, identifiers.get(tv.uid, {}), tuple(values), rng)
            sets = ", ".join(f"{q(c)} = ?" for c in columns)
            writes += [
                (f"UPDATE {view} SET {sets} WHERE p = ?", (*new, p)),
                (f"INSERT INTO {view} (p, {collist}) VALUES ({marks})", (p, *new)),
                (f"DELETE FROM {view} WHERE p = ?", (p,)),
            ]
            writes.append(
                (f"INSERT INTO {view} (p, {collist}) VALUES ({marks})", (absent, *new))
            )
        writes.append((f"DELETE FROM {view} WHERE p = ?", (absent,)))
    return writes


#: The benchmark chain's shape up to a SPLIT whose conditions overlap,
#: loaded with twin rows (grp 2..4 lie in both partitions) and Uprime rows
#: (grp NULL lies in neither): with the data at the partitions, a delete
#: at any older version runs the compound view's key deletes in place.
TWINS = "split_twins"
TWIN_EVOLUTIONS = (
    "RENAME COLUMN qty IN Item TO amount",
    "ADD COLUMN dbl AS amount * 2 INTO Item",
    "RENAME TABLE Item INTO Thing",
    "SPLIT TABLE Thing INTO Low WITH grp <= 4, High WITH grp >= 2",
)
TWIN_ROWS = [(k, grp, k % 5) for k, grp in enumerate((0, 1, 2, 3, 4, 5, 6, None, None))]


def _build_twins(path: str) -> DualSystem:
    ds = DualSystem()
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Item(k INTEGER, grp INTEGER, qty INTEGER);"
    )
    ds.backend = _OnFile(path).attach(ds.sq)
    ds.runmany("v1", "INSERT INTO Item(k, grp, qty) VALUES (?, ?, ?)", TWIN_ROWS)
    for step, evolution in enumerate(TWIN_EVOLUTIONS, start=2):
        ds.execute_ddl(f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};")
    return ds


def _twin_deletes(ds, handle) -> tuple[list[tuple[str, tuple]], bool]:
    """A DELETE of every row through every view, and whether the data sits
    at the partitions: they then hold twins and Uprime rows, and the older
    views' delete triggers run the compound view's deletes in place."""
    tables = {name for (name,) in handle.execute("SELECT name FROM sqlite_master")}
    at_partitions = {"d__4__Low", "d__5__High"} <= tables
    if at_partitions:
        (twins,) = handle.execute(
            "SELECT COUNT(*) FROM d__4__Low JOIN d__5__High USING (p)"
        ).fetchone()
        (uprime,) = handle.execute("SELECT COUNT(*) FROM aux__4__Uprime").fetchone()
        assert (twins, uprime) == (3, 2)
        (spliced,) = handle.execute(
            "SELECT sql FROM sqlite_master WHERE name = 'tg__0__delete'"
        ).fetchone()
        assert len(_trigger_statements(spliced)) == 3, spliced
    writes = []
    for tv in codegen.active_table_versions(ds.sq):
        view = q(tv.view_name)
        writes += [
            (f"DELETE FROM {view} WHERE p = ?", (p,))
            for (p,) in handle.execute(f"SELECT p FROM {view} ORDER BY p")
        ]
    return writes, at_partitions


@pytest.mark.parametrize("name", [*sorted(ALL_CHAINS), TWINS])
def test_composed_writes_equal_the_hop_by_hop_triggers(name, tmp_path):
    path = str(tmp_path / "chain.db")
    rng = random.Random(13)
    ds = _build_twins(path) if name == TWINS else _build(name, _OnFile(path), rng)
    try:
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        compared = twin_runs = 0
        for index in range(count):
            _apply_materialization(ds, index)
            context = f"{SQLITE} {name}/materialization-{index}"
            upserts, deletes = (
                {
                    tv.view_name
                    for tv in codegen.active_table_versions(ds.sq)
                    if _row_local(ds.sq, tv, op)
                }
                for op in ("UPSERT", "DELETE")
            )
            handle = sqlite3.connect(path, isolation_level=None)
            try:
                assert _hop_writes(handle, upserts, deletes) == [], context
                before = _stored_state(handle)
                writes = _writes(ds, handle, rng)
                if name == TWINS:
                    deletes, at_partitions = _twin_deletes(ds, handle)
                    writes += deletes
                    twin_runs += at_partitions
                composed = [_outcome(handle, sql, params) for sql, params in writes]
                for (sql, params), outcome in zip(writes, composed):
                    if sql.startswith("DELETE") and params[0] >= 1000:
                        assert outcome == before, f"{context}: {sql} {params}"
                handle.execute("SAVEPOINT hop_by_hop")
                for trigger in codegen.generated_object_names(handle)[1]:
                    handle.execute(f"DROP TRIGGER {q(trigger)}")
                for statement in HopByHop(ds.sq).trigger_statements():
                    handle.execute(statement)
                for (sql, params), outcome in zip(writes, composed):
                    assert _outcome(handle, sql, params) == outcome, f"{context}: {sql} {params}"
                    compared += 1
                handle.execute("ROLLBACK TO hop_by_hop")
                handle.execute("RELEASE hop_by_hop")
                assert _stored_state(handle) == before, context
            finally:
                handle.close()
        assert compared > count
        assert twin_runs == (name == TWINS)
    finally:
        ds.close()
