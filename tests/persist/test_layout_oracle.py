"""The physical layout oracle: after every catalog transition three layouts
agree — :func:`physical_layout` of the catalog's materialization, the
tables the engine stores, and the tables of the SQLite file beside its
catalog and scaffolding — by name and by columns.

The run covers evolution (aux tables on the source side, the target side
and shared ID tables), both ``MATERIALIZE`` schedules, drops with and
without a log compaction (a dropped identifier SMO takes its ID table
along) and a reopen, on the memory engine and on SQLite with the composed
and the nested emission.
"""

from __future__ import annotations

import pytest

from repro.backend.emit import SEQUENCES_TABLE
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import current_materialization, physical_layout
from repro.core.engine import InVerDa
from repro.persist.fingerprint import engine_layout, sqlite_layout
from repro.sql.connection import connect
from repro.workloads.tasky import DO_SCRIPT, TASKY2_SCRIPT
from tests.testing import DualSystem, NestedEmissionBackend
from tests.testing.compare import visible_state

EMISSIONS = {"composed": LiveSqliteBackend, "nested": NestedEmissionBackend}

#: Leaf evolutions of TasKy: aux on the source side (B, the partitions'
#: aux), on the target side (DROP COLUMN's B) and shared (ID).
LEAVES = (
    "DECOMPOSE TABLE Task INTO Job(task, prio), Who(author) ON FOREIGN KEY who;",
    "ADD COLUMN done AS prio + 1 INTO Task;",
    "SPLIT TABLE Task INTO Urgent WITH prio = 1, Later WITH prio > 1;",
    "DECOMPOSE TABLE Task INTO Job(task, prio), Who(author) ON task = author;",
    "DROP COLUMN prio FROM Task DEFAULT 3;",
)


def catalog_layout(engine) -> dict[str, tuple[str, ...]]:
    layout = physical_layout(engine.genealogy, current_materialization(engine.genealogy))
    return {name: ("p", *spec.column_names) for name, spec in layout.items()}


def file_layout(backend) -> dict[str, tuple[str, ...]]:
    """The file's tables but the sequences, the catalog and online-move
    tables (``_repro…``) and the staging tables (``put__…``)."""
    names = [
        name for name in backend.table_names()
        if name != SEQUENCES_TABLE and not name.startswith(("_repro", "put__", "sqlite_"))
    ]
    with backend.pool.primary_held():
        return sqlite_layout(backend.connection, names)


def assert_layouts_agree(ds: DualSystem, context: str) -> None:
    expected = catalog_layout(ds.sq)
    assert expected, context
    assert engine_layout(ds.sq) == expected, context
    assert file_layout(ds.backend) == expected, context
    assert catalog_layout(ds.mem) == engine_layout(ds.mem) == expected, context


def transition(ds: DualSystem, script: str) -> None:
    ds.execute_ddl(script)
    assert_layouts_agree(ds, script)
    ds.check(script)


def compactions(ds: DualSystem) -> int:
    return ds.sq.metrics.get("repro_catalog_compactions_total").value()


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
def test_every_transition_keeps_the_three_layouts_alike(tmp_path, emission):
    ds = DualSystem(database=str(tmp_path / "layout.db"))
    ds.execute_ddl(
        "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author TEXT, task TEXT, prio INTEGER);"
    )
    ds.backend = EMISSIONS[emission].attach(ds.sq, database=ds.database)
    try:
        ds.runmany(
            "TasKy",
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            [(f"a{i % 3}", f"t{i}", i % 3 + 1) for i in range(12)],
        )
        assert_layouts_agree(ds, "attached")
        for script in (DO_SCRIPT, TASKY2_SCRIPT):
            transition(ds, script)
        for script in ("MATERIALIZE 'TasKy2';", "MATERIALIZE ONLINE 'Do!';"):
            transition(ds, script)
        # Leaf cycles until a drop has compacted the log, and one has not.
        plain = 0
        for index in range(40):
            transition(
                ds, f"CREATE SCHEMA VERSION L{index} FROM TasKy WITH {LEAVES[index % len(LEAVES)]}"
            )
            before = compactions(ds)
            transition(ds, f"DROP SCHEMA VERSION L{index};")
            plain += compactions(ds) == before
            if index >= len(LEAVES) and plain and compactions(ds):
                break
        assert plain and compactions(ds), (plain, compactions(ds))
        transition(ds, "MATERIALIZE ONLINE 'TasKy';")
        transition(ds, "DROP SCHEMA VERSION Do!;")
        ds.reopen()
        assert_layouts_agree(ds, "reopened")
        ds.check("reopened")
        transition(ds, "MATERIALIZE 'TasKy2';")
    finally:
        ds.close()


def test_the_memory_engine_stores_the_layout_of_its_catalog():
    """The memory engine alone, holding its rows: the tables a move adds
    are derived, and every version reads what it read before the move."""
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author TEXT, task TEXT, prio INTEGER);"
    )
    conn = connect(engine, "TasKy", autocommit=True)
    conn.executemany(
        "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
        [(f"a{i % 3}", f"t{i}", i % 3 + 1) for i in range(12)],
    )
    conn.close()
    leaves = [
        f"CREATE SCHEMA VERSION L{index} FROM TasKy WITH {leaf}"
        for index, leaf in enumerate(LEAVES)
    ]
    for script in (DO_SCRIPT, TASKY2_SCRIPT, *leaves):
        engine.execute(script)
        assert engine_layout(engine) == catalog_layout(engine), script
    state = visible_state(engine)
    for script in (
        "MATERIALIZE 'TasKy2';", "DROP SCHEMA VERSION L0;", "MATERIALIZE 'Do!';",
        "DROP SCHEMA VERSION L3;", "MATERIALIZE 'TasKy';",
    ):
        engine.execute(script)
        assert engine_layout(engine) == catalog_layout(engine), script
        active = engine.version_names()
        assert visible_state(engine) == {
            key: rows for key, rows in state.items() if key[0] in active
        }, script
