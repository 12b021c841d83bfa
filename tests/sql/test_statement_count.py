"""Statement-count gate: what a write costs in SQLite statements.

Every write is watched through the session's ``set_trace_callback``
(applied to whatever handle the session leases) and reduced to the *sequence of distinct top-level statement
shapes*: lines starting with ``--`` are dropped (Python 3.10 reports a
trigger's sub-statements that way), bound values are masked (3.11+
reports the top-level statement's *expanded* text, once per
sub-statement), and consecutive repeats collapse.  Both reporting styles
reduce to the same sequence.

RETURNING through ``INSTEAD OF`` triggers is behaviour of the bundled
SQLite, so failures name its version.
"""

from __future__ import annotations

import random
import re
import sqlite3

import pytest

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import OperationalError
from repro.workloads.orders import ORDERS_SCRIPTS
from tests.backend.test_sargable import build_chain

SQLITE = f"SQLite {sqlite3.sqlite_version}"

BEGIN, COMMIT = "BEGIN IMMEDIATE", "COMMIT"
SAVEPOINT, RELEASE, ROLLBACK_TO = (
    "SAVEPOINT repro_stmt", "RELEASE repro_stmt", "ROLLBACK TO repro_stmt",
)
SEQUENCE = ["UPDATE repro_sequences", "SELECT value FROM repro_sequences"]

_VALUE = re.compile(r"'(?:[^']|'')*'|\?\d*|(?<![\w.])-?\d+(?:\.\d+)?\b|\bNULL\b")


def _shape(text: str) -> str:
    return _VALUE.sub("?", text)


class Watch:
    """Collects what the session's leases run inside a ``with`` block."""

    def __init__(self, connection):
        self.session = connection._session
        self.texts: list[str] = []

    def __enter__(self):
        self.session.set_trace_callback(self.texts.append)
        return self

    def __exit__(self, *exc):
        self.session.set_trace_callback(None)

    @property
    def top_level(self) -> list[str]:
        return [text for text in self.texts if not text.startswith("--")]

    @property
    def sequence(self) -> list[str]:
        shapes: list[str] = []
        for text in self.top_level:
            shape = _shape(text)
            if not shapes or shapes[-1] != shape:
                shapes.append(shape)
        return shapes


def _assert_sequence(watch: Watch, expected: list[str]) -> None:
    """``expected`` entries are prefixes, except a trailing ``…`` marks a
    required suffix (``"UPDATE …RETURNING 1"``)."""
    sequence = watch.sequence
    report = f"{SQLITE}: {sequence}"
    assert len(sequence) == len(expected), report
    for shape, want in zip(sequence, expected):
        prefix, _, suffix = want.partition("…")
        assert shape.startswith(_shape(prefix)) and shape.endswith(_shape(suffix)), report


# ---------------------------------------------------------------------------
# The two systems: the benchmark's chain (data at S4) and orders v1 / v2 / v3
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain():
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(1000)])
    yield engine
    backend.close()


@pytest.fixture(scope="module")
def orders():
    engine = repro.InVerDa()
    for script in ORDERS_SCRIPTS:
        engine.execute(script)
    backend = LiveSqliteBackend.attach(engine)
    conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
    conn.executemany(
        "INSERT INTO Orders(tenant, order_no, qty, status) VALUES (?, ?, ?, ?)",
        [("t00", n, n % 9 + 1, n % 2) for n in range(200)],
    )
    conn.close()
    yield engine
    backend.close()


#: (fixture, version, table, insert text's column list, row for key ``n``,
#: SET column, key column).  Key 28 exists at every pin: k = 28 lives in
#: Even (grp 0) and in Lo (qty 2); order 28 is open.
PINS = [
    ("chain", "S4", "Even", "k, grp, qty, memo", lambda n: (n, 0, 2, "x"), "memo", "k"),
    ("chain", "S8", "Lo", "k, grp, qty, remark", lambda n: (n, 0, 2, "x"), "remark", "k"),
    ("chain", "S0", "Item", "k, grp, qty, note", lambda n: (n, 0, 2, "x"), "note", "k"),
    ("orders", "v1", "Orders", "order_no, tenant, qty, status", lambda n: (n, "t01", 1, 0), "tenant", "order_no"),
    ("orders", "v2", "Orders", "order_no, tenant, qty, status", lambda n: (n, "t01", 1, 0), "tenant", "order_no"),
    ("orders", "v3", "Open", "order_no, tenant, qty, status", lambda n: (n, "t01", 1, 0), "tenant", "order_no"),
]


class Pin:
    def __init__(self, conn, table, columns, row, target, key):
        self.conn = conn
        self.row = row
        width = len(row(0))
        self.insert = f"INSERT INTO {table}({columns}) VALUES ({', '.join('?' * width)})"
        self.update = f"UPDATE {table} SET {target} = ? WHERE {key} = ?"
        self.delete = f"DELETE FROM {table} WHERE {key} = ?"
        # Each text once, so the plan cache and the handle's statement
        # cache are out of the picture.
        conn.execute(self.insert, row(7000))
        conn.execute(self.update, ("w", 7000))
        conn.execute(self.delete, (7000,))


@pytest.fixture(params=PINS, ids=[f"{p[0]}-{p[1]}" for p in PINS])
def pin(request):
    fixture, version, *texts = request.param
    engine = request.getfixturevalue(fixture)
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite")
    yield Pin(conn, *texts)
    conn.close()


def test_autocommit_update_and_delete_are_three_statements(pin):
    conn = pin.conn
    with Watch(conn) as watch:
        assert conn.execute(pin.update, ("y", 28)).rowcount == 1
    _assert_sequence(watch, [BEGIN, "UPDATE …RETURNING 1", COMMIT])
    conn.execute(pin.insert, pin.row(7001))
    with Watch(conn) as watch:
        assert conn.execute(pin.delete, (7001,)).rowcount == 1
    _assert_sequence(watch, [BEGIN, "DELETE …RETURNING 1", COMMIT])
    with Watch(conn) as watch:
        assert conn.execute(pin.delete, (7001,)).rowcount == 0
    _assert_sequence(watch, [BEGIN, "DELETE …RETURNING 1", COMMIT])


def test_autocommit_insert_is_five_statements_whatever_the_batch(pin):
    conn = pin.conn
    with Watch(conn) as watch:
        assert conn.execute(pin.insert, pin.row(7002)).rowcount == 1
    _assert_sequence(watch, [BEGIN, *SEQUENCE, "INSERT INTO", COMMIT])
    batch = [pin.row(7100 + n) for n in range(50)]
    with Watch(conn) as watch:
        assert conn.executemany(pin.insert, batch).rowcount == 50
    _assert_sequence(watch, [BEGIN, *SEQUENCE, "INSERT INTO", COMMIT])
    # Two sequence statements for the whole batch, not two per row.
    assert sum("repro_sequences" in text for text in watch.top_level) == 2, SQLITE
    for key in (7002, *range(7100, 7150)):
        assert conn.execute(pin.delete, (key,)).rowcount == 1


def test_write_inside_a_transaction_is_bounded_by_one_fixed_savepoint(pin):
    conn = pin.conn
    with conn:
        with Watch(conn) as watch:
            assert conn.execute(pin.update, ("z", 28)).rowcount == 1
        _assert_sequence(watch, [SAVEPOINT, "UPDATE …RETURNING 1", RELEASE])
        with Watch(conn) as watch:
            conn.execute(pin.insert, pin.row(7003))
        _assert_sequence(watch, [SAVEPOINT, *SEQUENCE, "INSERT INTO", RELEASE])
        with Watch(conn) as watch:
            assert conn.execute(pin.delete, (7003,)).rowcount == 1
        _assert_sequence(watch, [SAVEPOINT, "DELETE …RETURNING 1", RELEASE])


def test_mixed_writes_show_the_handle_only_the_fixed_savepoint_texts(chain):
    """500 writes, autocommit and transactional, some failing: nothing
    per-statement in any savepoint text, so nothing for the handle's
    statement cache to churn on."""
    rng = random.Random(24)
    conn = repro.connect(chain, "S8", autocommit=True, backend="sqlite")
    try:
        with Watch(conn) as watch:
            for index in range(500):
                k = 6000 + index
                operation = rng.choice(("insert", "update", "delete", "fail"))
                transactional = rng.random() < 0.5
                if transactional:
                    conn.__enter__()
                try:
                    if operation == "insert":
                        conn.execute(
                            "INSERT INTO Lo(k, grp, qty, remark) VALUES (?, 0, 2, 'm')", (k,)
                        )
                    elif operation == "update":
                        conn.execute("UPDATE Lo SET remark = ? WHERE k = ?", ("u", 28))
                    elif operation == "delete":
                        conn.execute("DELETE FROM Lo WHERE k = ?", (k - 1,))
                    else:
                        with pytest.raises(OperationalError, match="integer overflow"):
                            conn.execute("UPDATE Lo SET qty = abs(?) WHERE k = ?", (-(2**63), 28))
                finally:
                    if transactional:
                        conn.__exit__(None, None, None)
        savepoint_texts = {
            text for text in watch.top_level
            if re.match(r"SAVEPOINT|RELEASE|ROLLBACK TO", text)
        }
        assert savepoint_texts <= {SAVEPOINT, RELEASE, ROLLBACK_TO}, SQLITE
        assert {SAVEPOINT, RELEASE} <= savepoint_texts
    finally:
        conn.close()


def test_failed_statement_inside_a_transaction_rolls_back_to_the_fixed_name(chain):
    conn = repro.connect(chain, "S4", autocommit=False, backend="sqlite")
    try:
        conn.execute("UPDATE Even SET memo = ? WHERE k = ?", ("kept", 28))
        with Watch(conn) as watch:
            with pytest.raises(OperationalError, match="integer overflow"):
                conn.execute("UPDATE Even SET memo = abs(?) WHERE k = ?", (-(2**63), 28))
        assert SAVEPOINT in watch.top_level and ROLLBACK_TO in watch.top_level, watch.texts
        assert conn._session.in_transaction
        conn.commit()
        assert conn.execute("SELECT memo FROM Even WHERE k = ?", (28,)).fetchall() == [("kept",)]
        conn.commit()
    finally:
        conn.close()
