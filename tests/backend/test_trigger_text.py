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
    whose own program is one row-local statement (that statement is
    inlined instead), every write through every view of every chain under
    every valid materialization leaves the stored tables exactly as the
    hop-by-hop triggers do, and a DELETE of an absent key changes nothing
    — on a raw ``sqlite3`` handle.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest

import repro
from repro.backend import codegen
from repro.backend.compare import generated_id_spaces, visible_state
from repro.backend.emit import q
from repro.backend.handlers import (
    ColumnHandler,
    DropTableHandler,
    HandlerContext,
    IdentityHandler,
    PartitionHandler,
    handler_for,
)
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.core.engine import InVerDa
from tests.backend.test_differential import CHAINS, _apply_materialization
from tests.backend.test_sargable import build_chain
from tests.backend.test_upsert_primitive import (
    ALL_CHAINS,
    _build,
    _changed,
    _outcome,
    _stored_state,
)

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
        assert size <= 16_500, f"{size} bytes of delta code"
        assert engine.metrics.get("repro_delta_code_bytes").value() == size
        assert backend.last_install["bytes"] == size
    finally:
        backend.close()


#: ``EXPLAIN`` opcodes of the forward INSERT / UPDATE / DELETE the SQL layer
#: runs on ``v9__Lo`` (S8's Lo), trigger programs included, by SQLite version.
FWD_OPCODES = {"3.40.1": {"INSERT": 432, "UPDATE": 601, "DELETE": 625}}

_WRITE_TARGET = re.compile(r"(?:INSERT INTO|DELETE FROM) (\w+)")


def _trigger_statements(sql: str) -> list[str]:
    body = sql[sql.index("\nBEGIN\n  ") + len("\nBEGIN\n  ") : sql.rindex(";\nEND")]
    return body.split(";\n  ")


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
        conn = repro.connect(engine, "S8", autocommit=True, backend="sqlite")
        texts = {}
        for op, sql in (
            ("INSERT", "INSERT INTO Lo(k, grp, qty, remark) VALUES (?, ?, ?, ?)"),
            ("UPDATE", "UPDATE Lo SET remark = ? WHERE k = ?"),
            ("DELETE", "DELETE FROM Lo WHERE k = ?"),
        ):
            report = dict(conn.execute(f"EXPLAIN {sql}", (1,) * sql.count("?")))
            assert report["view"] == "v9__Lo"
            texts[op] = report.get("executed_sql", report["backend_sql"])
        conn.close()
        handle = backend.connection
        opcodes = {
            op: len(handle.execute(f"EXPLAIN {text}", (None,) * text.count("?")).fetchall())
            for op, text in texts.items()
        }
        if sqlite3.sqlite_version in FWD_OPCODES:
            assert opcodes == FWD_OPCODES[sqlite3.sqlite_version], f"{SQLITE}: {texts}"

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


# ---------------------------------------------------------------------------
# (d) composition: complete, and exact against the hop-by-hop triggers
# ---------------------------------------------------------------------------


class HopByHop(codegen.Renderer):
    """Every write into a view fires that view's trigger (no program is
    inlined): the reference composition must agree with."""

    def row_program(self, *_hop):
        return None


def _one_row_local_statement(engine, tv) -> bool:
    """Is ``tv``'s own write program one statement reading nothing but its
    row — decided from the catalog, not from the rendered text?"""
    route = codegen.route_for(engine, tv)
    smo = route[0] if route is not None else None
    if any(codegen._off_route_shared(tv, smo)):
        return False
    if smo is None:
        return True
    handler = handler_for(HandlerContext(engine), smo)
    if isinstance(handler, ColumnHandler):
        return tv is handler._sides()[0]
    return isinstance(handler, (IdentityHandler, DropTableHandler))


_VIEW_INSERT = re.compile(r"INSERT INTO (\w+) \(")
_ROW_DELETE = re.compile(r"DELETE FROM (\w+) WHERE p IS (?:NEW|OLD)\.p(?: AND \((.*)\))?", re.S)


def _hop_writes(connection, inlinable: set[str]) -> list[str]:
    """Installed statements that still write an inlinable view: any INSERT
    into it, or a row delete whose guard reads nothing but the row."""
    found = []
    for (sql,) in connection.execute("SELECT sql FROM sqlite_master WHERE type = 'trigger'"):
        body = sql[sql.index("\nBEGIN\n  ") + len("\nBEGIN\n  ") : sql.rindex(";\nEND")]
        for statement in body.split(";\n  "):
            insert, delete = _VIEW_INSERT.match(statement), _ROW_DELETE.fullmatch(statement)
            if insert and insert.group(1) in inlinable:
                found.append(statement)
            elif delete and delete.group(1) in inlinable and "SELECT" not in (delete.group(2) or ""):
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


@pytest.mark.parametrize("name", sorted(ALL_CHAINS))
def test_composed_writes_equal_the_hop_by_hop_triggers(name, tmp_path):
    path = str(tmp_path / "chain.db")
    rng = random.Random(13)
    ds = _build(name, _OnFile(path), rng)
    try:
        count = len(enumerate_valid_materializations(ds.mem.genealogy))
        compared = 0
        for index in range(count):
            _apply_materialization(ds, index)
            context = f"{SQLITE} {name}/materialization-{index}"
            inlinable = {
                tv.view_name
                for tv in codegen.active_table_versions(ds.sq)
                if _one_row_local_statement(ds.sq, tv)
            }
            handle = sqlite3.connect(path, isolation_level=None)
            try:
                assert _hop_writes(handle, inlinable) == [], context
                before = _stored_state(handle)
                writes = _writes(ds, handle, rng)
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
    finally:
        ds.close()
