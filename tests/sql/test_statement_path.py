"""Call-count witness: what one cached statement costs the Python front end.

A statement whose plan is cached should pay for its backend, not for the
layers in front of it.  Each cell counts the Python-level calls (``call``
events of ``sys.setprofile``) that one statement makes from
``Cursor.execute`` to its return, on a connection that has already run
the same text twice (a miss, then a first hit that binds its metric
series).  The bound of each cell is half of what the same statement made
before the statement path was rebuilt; those parent counts are the same
on CPython 3.10, 3.11 and 3.12 for the live backend, and two lower on
3.12 for the memory engine:

===============================  =======  =====
cell                             parent   bound
===============================  =======  =====
live SQLite, point SELECT            68     34
live SQLite, autocommit UPDATE       80     40
live SQLite, UPDATE in a txn         78     39
memory, point SELECT                137     68
memory, autocommit UPDATE           170     85
memory, UPDATE in a txn             173     86
===============================  =======  =====

The memory engine's cells include its own evaluator (one row here); the
live backend's include everything Python does around SQLite.
"""

from __future__ import annotations

import sys

import pytest

import repro

SELECT = "SELECT a, b FROM R WHERE a = ?"
UPDATE = "UPDATE R SET b = ? WHERE a = ?"

BOUNDS = {
    ("sqlite", "select"): 34,
    ("sqlite", "autocommit update"): 40,
    ("sqlite", "update in a transaction"): 39,
    ("memory", "select"): 68,
    ("memory", "autocommit update"): 85,
    ("memory", "update in a transaction"): 86,
}


def _engine(backend: str):
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);")
    conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
    conn.execute("INSERT INTO R (a, b) VALUES (?, ?)", (0, "zero"))
    return engine, conn


def _python_calls(statement) -> int:
    """Python calls of the third run of ``statement``."""
    statement()  # a plan-cache miss
    statement()  # the first hit binds the statement's metric series
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        statement()
    finally:
        sys.setprofile(previous)
    return calls - 1  # the lambda around the statement


@pytest.fixture(params=["sqlite", "memory"])
def system(request):
    engine, conn = _engine(request.param)
    yield request.param, engine, conn
    conn.close()
    if engine.live_backend is not None:
        engine.live_backend.close()


def test_a_cached_statement_makes_few_python_calls(system):
    backend, engine, conn = system
    cursor = conn.cursor()
    counts = {
        "select": _python_calls(lambda: cursor.execute(SELECT, (0,))),
        "autocommit update": _python_calls(lambda: cursor.execute(UPDATE, ("x", 0))),
    }
    txn = repro.connect(engine, "v1", backend=backend)
    in_txn = txn.cursor()
    counts["update in a transaction"] = _python_calls(
        lambda: in_txn.execute(UPDATE, ("y", 0))
    )
    assert txn.in_transaction
    txn.rollback()
    txn.close()
    for cell, count in counts.items():
        assert count <= BOUNDS[backend, cell], (backend, cell, counts)
    assert cursor.cache_event == "hit"


def test_a_traced_statement_takes_the_same_path():
    """Traced, the same write still records its ``plan`` and ``execute``
    spans, and ``execute`` counts exactly the SQLite statements the
    untraced write runs: BEGIN IMMEDIATE, the DML, COMMIT and the
    trigger's own."""
    engine, conn = _engine("sqlite")
    traced = repro.connect(engine, "v1", autocommit=True, backend="sqlite", trace=True)
    try:
        first = traced.execute(UPDATE, ("x", 0))
        ran: list[str] = []
        conn._session.set_trace_callback(ran.append)
        conn.execute(UPDATE, ("x", 0))
        conn._session.set_trace_callback(None)
        assert ran[0] == "BEGIN IMMEDIATE" and ran[-1] == "COMMIT"
        second = traced.execute(UPDATE, ("x", 0))
        for cursor, expected in ((first, "miss"), (second, "hit")):
            assert cursor.cache_event == expected
            assert cursor.trace.root.attributes["cache"] == expected
            names = [span.name for span in cursor.trace.spans]
            assert names == ["statement", "plan", "execute"]
            execute = cursor.trace.spans[2]
            assert execute.attributes["sqlite_statements"] == len(ran)
    finally:
        traced.close()
        conn.close()
        engine.live_backend.close()
