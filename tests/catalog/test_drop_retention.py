"""A drop keeps every SMO a surviving version still reads through.

The retention walk follows every source of every SMO: here ``RSU``'s
second source ``SU`` is itself a JOIN, whose second source ``U@v2`` comes
from an ADD COLUMN.  Dropping ``v3`` and then ``v2`` must keep that ADD
COLUMN, in either order, on the memory engine and on live SQLite, and the
file must reopen to the same answer.
"""

from __future__ import annotations

import pytest

import repro
from repro.backend.sqlite import LiveSqliteBackend

NESTED_JOIN = (
    "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER); "
    "CREATE TABLE S(b INTEGER); CREATE TABLE U(c INTEGER);",
    "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN d AS c + 10 INTO U;",
    "CREATE SCHEMA VERSION v3 FROM v2 WITH JOIN TABLE S, U INTO SU ON PK;",
    "CREATE SCHEMA VERSION v4 FROM v3 WITH JOIN TABLE R, SU INTO RSU ON PK;",
)
ROW = (7, 8, 9, 99)


def _read(engine, backend: str) -> list[tuple]:
    conn = repro.connect(engine, "v4", autocommit=True, backend=backend)
    try:
        return conn.execute("SELECT a, b, c, d FROM RSU").fetchall()
    finally:
        conn.close()


@pytest.mark.parametrize("order", [("v3", "v2"), ("v2", "v3")], ids="-then-".join)
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_drop_keeps_the_smos_a_nested_join_reads(backend, order, tmp_path):
    path = str(tmp_path / "nested.db")
    engine = repro.InVerDa()
    for script in NESTED_JOIN:
        engine.execute(script)
    live = LiveSqliteBackend.attach(engine, database=path) if backend == "sqlite" else None
    try:
        conn = repro.connect(engine, "v4", autocommit=True, backend=backend)
        conn.execute("INSERT INTO RSU(a, b, c, d) VALUES (?, ?, ?, ?)", ROW)
        conn.close()
        for name in order:
            engine.execute(f"DROP SCHEMA VERSION {name};")
            assert _read(engine, backend) == [ROW], f"after dropping {name}"
        kept = sorted(smo.smo_type for smo in engine.genealogy.evolution_smos())
        assert kept == ["AddColumn", "Join", "Join"]
        assert engine.version_names() == ["v1", "v4"]
    finally:
        if live is not None:
            live.close()
    if live is not None:
        reopened = repro.open(path)
        try:
            assert _read(reopened, "sqlite") == [ROW]
        finally:
            reopened.live_backend.close()
