"""Transitions that cost what they change: the live backend renders each
table version once and installs delta code by diff against
``sqlite_master``.

(a) installed ≡ rendered: after every transition the generated objects'
    ``sqlite_master`` text equals, name for name and byte for byte, a
    memo-less render on a newly recovered engine;
(b) a leaf evolve creates only the leaf's objects and drops none, its
    drop the mirror image — counted in statements SQLite executes, and
    the same at every chain depth;
(c) foreign views and triggers in the same file are left alone;
(d) a file whose generated objects were partly stripped gets back exactly
    the missing ones.

Byte identity depends on how the bundled SQLite stores ``CREATE VIEW`` /
``CREATE TRIGGER`` text, so failures name the version.
"""

from __future__ import annotations

import random
import re
import sqlite3
from unittest.mock import ANY

import pytest

import repro
from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.persist.recovery import replay_into
from repro.persist.store import CatalogStore
from repro.workloads.orders import build_orders
from repro.workloads.tasky import build_tasky
from tests.backend.test_sargable import CHAIN
from tests.backend.test_upsert_primitive import ALL_CHAINS, WORDS
from tests.testing import NestedEmissionBackend

SQLITE = f"SQLite {sqlite3.sqlite_version}"
EMISSIONS = {"composed": LiveSqliteBackend, "nested": NestedEmissionBackend}


def installed_text(connection) -> dict[str, str]:
    return {
        name: sql
        for name, (_kind, sql, _view) in codegen.installed_objects(connection).items()
    }


def fresh_render(backend) -> dict[str, str]:
    """What a newly recovered engine renders for the catalog on disk — no
    memo, no history of earlier transitions."""
    engine = repro.InVerDa()
    replay_into(engine, CatalogStore(backend.connection).load().entries)
    views = codegen.view_statements(
        engine, flatten=not isinstance(backend, NestedEmissionBackend)
    )
    statements = views + codegen.trigger_statements(engine)
    return {codegen.created_name(statement): statement for statement in statements}


def assert_installed_is_rendered(backend, context: str) -> None:
    installed, rendered = installed_text(backend.connection), fresh_render(backend)
    assert sorted(installed) == sorted(rendered), f"{SQLITE} [{context}]"
    for name, sql in rendered.items():
        assert installed[name] == sql, f"{SQLITE} [{context}] {name}"


def some_table(engine, version: str) -> str:
    return sorted(engine.genealogy.schema_version(version).table_names())[0]


def walk_transitions(engine, backend_class, path: str, tip: str, middle: str | None):
    """Every kind of transition from the built catalog on, checking the
    installed text after each; returns the last backend (still open)."""
    backend = engine.live_backend

    def check(context: str) -> None:
        assert_installed_is_rendered(backend, context)

    check("built")
    table = some_table(engine, tip)
    tip_version = engine.genealogy.schema_version(tip)
    last_column = tip_version.table_version(table).schema.column_names[-1]
    engine.execute(
        f"CREATE SCHEMA VERSION leaf FROM {tip} WITH ADD COLUMN zz AS 1 INTO {table};"
    )
    check("leaf evolved")
    engine.execute("DROP SCHEMA VERSION leaf;")
    check("leaf dropped")
    if middle is not None:
        engine.execute(f"DROP SCHEMA VERSION {middle};")
        check(f"middle version {middle} dropped")
    # A second leaf with the first one's renders forgotten but the rest
    # remembered: its text may not depend on what was rendered before it.
    engine.execute(
        f"CREATE SCHEMA VERSION leaf_b FROM {tip} WITH ADD COLUMN zz AS 3 INTO {table};"
    )
    check("second leaf evolved")
    engine.execute("DROP SCHEMA VERSION leaf_b;")
    check("second leaf dropped")
    count = len(enumerate_valid_materializations(engine.genealogy))
    indexes = list(range(count))
    if count > 4:
        indexes = indexes[:3] + [indexes[-1]]
    for index in indexes:
        engine.apply_materialization(
            enumerate_valid_materializations(engine.genealogy)[index]
        )
        check(f"materialization {index}")
        engine.execute(
            f"CREATE SCHEMA VERSION leaf{index} FROM {tip} WITH "
            f"RENAME COLUMN {last_column} IN {table} TO zz{index};"
        )
        check(f"materialization {index}, leaf evolved")
        engine.execute(f"DROP SCHEMA VERSION leaf{index};")
        check(f"materialization {index}, leaf dropped")
    first = next(iter(engine.genealogy.active_versions())).name
    for target in (tip, first):
        engine.execute(f"MATERIALIZE ONLINE '{target}';")
        check(f"online move to {target}")
    backend.close()
    reopened = repro.InVerDa()
    backend = backend_class.attach(reopened, database=path)
    assert backend.recovered and backend.delta_reused
    check("reopened")
    reopened.execute(
        f"CREATE SCHEMA VERSION again FROM {tip} WITH ADD COLUMN zz AS 2 INTO {table};"
    )
    check("evolved after reopen")
    return backend


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("name", sorted(ALL_CHAINS))
def test_chains_install_what_a_fresh_engine_renders(name, emission, tmp_path):
    create, load, evolutions = ALL_CHAINS[name]
    rng = random.Random(3)
    path = str(tmp_path / "chain.db")
    engine = repro.InVerDa()
    engine.execute(f"CREATE SCHEMA VERSION v1 WITH {create};")
    backend = EMISSIONS[emission].attach(engine, database=path)
    try:
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        for table, columns in load.items():
            rows = [
                (i, i)
                if name == "condition_decompose"
                else tuple(
                    rng.choice(WORDS) if c in ("author", "task", "w") else rng.randint(0, 6)
                    for c in columns
                )
                for i in range(1, 7)
            ]
            conn.executemany(
                f"INSERT INTO {table}({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                rows,
            )
        conn.close()
        sources = set()
        for step, evolution in enumerate(evolutions, start=2):
            source = f"v{step - 1}"
            if isinstance(evolution, tuple):
                evolution, source = evolution
            sources.add(source)
            engine.execute(
                f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};"
            )
            assert_installed_is_rendered(backend, f"{name}/{emission}/v{step}")
        tip = f"v{len(evolutions) + 1}"
        # A version others were evolved from, where the chain is a line.
        middle = "v2" if "v2" in sources else None
        backend = walk_transitions(engine, EMISSIONS[emission], path, tip, middle)
    finally:
        backend.close()


def _evolve_branching(engine, backend) -> None:
    create, _load, evolutions = ALL_CHAINS["branching"]
    engine.execute(f"CREATE SCHEMA VERSION v1 WITH {create};")
    for step, evolution in enumerate(evolutions, start=2):
        source = f"v{step - 1}"
        if isinstance(evolution, tuple):
            evolution, source = evolution
        engine.execute(f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};")
        assert_installed_is_rendered(backend, f"branching/v{step}")


def test_a_trigger_is_rendered_again_when_a_hop_it_inlined_changes(tmp_path):
    """A trigger depends on the program of every view it composed through.
    In the ``branching`` chain the partition hop of ``Todo`` inlines the
    physical ``Task``'s one-statement program; the FK DECOMPOSE off ``v1``
    then gives ``Task`` identifier upkeep, so that program is a hop again.
    ``Todo``'s own off-route SMOs do not change: a memo keyed on them alone
    serves the stale inlined text."""
    engine = repro.InVerDa()
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "branching.db"))
    try:
        _evolve_branching(engine, backend)
    finally:
        backend.close()


def test_dropping_a_shared_aux_smo_renders_its_component_again(tmp_path):
    """The mirror image: dropping ``v3`` removes the FK DECOMPOSE and its
    ID table, so ``Task`` has no identifier upkeep any more and ``Todo``'s
    partition hop inlines its program again — a drop whose scope is the
    whole component, not just the removed table versions."""
    engine = repro.InVerDa()
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "branching.db"))
    try:
        _evolve_branching(engine, backend)
        removed = 4 * len(engine.genealogy.schema_version("v3").tables)
        engine.execute("DROP SCHEMA VERSION v3;")
        assert_installed_is_rendered(backend, "branching/v3 dropped")
        install = backend.last_install
        assert install["created"] > 0 and install["dropped"] == removed + install["created"]
    finally:
        backend.close()


@pytest.mark.parametrize(
    "join", ["JOIN TABLE A, B INTO J ON PK", "OUTER JOIN TABLE A, B INTO W ON PK"]
)
def test_a_join_across_two_components_renders_both_again(join, tmp_path):
    """A JOIN of ``A`` with ``B`` has no shared aux of its own, but it
    connects ``A`` to the FK DECOMPOSE of ``B``: ``A``'s triggers gain that
    SMO's extent repairs, and lose them when the join is dropped."""
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE A(a INTEGER, b INTEGER); "
        "CREATE TABLE B(x INTEGER, y TEXT);"
    )
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "join.db"))
    try:
        for script in (
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DECOMPOSE TABLE B INTO B1(x), B2(y) ON FK ref;",
            f"CREATE SCHEMA VERSION v3 FROM v1 WITH {join};",
            "DROP SCHEMA VERSION v3;",
        ):
            engine.execute(script)
            assert_installed_is_rendered(backend, script)
    finally:
        backend.close()


def test_a_drop_that_strands_a_dropped_parent_renders_the_whole_catalog(tmp_path):
    """``v2`` is dropped while ``v3`` still reads through it; dropping
    ``v3`` then leaves no active version reading ``v2``'s table version,
    which did not leave the catalog (its SMO survives) — only a walk of
    the whole catalog sees that its view and triggers must go."""
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "strand.db"))
    try:
        for script in (
            "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN b IN R TO c;",
            "CREATE SCHEMA VERSION v3 FROM v2 WITH ADD COLUMN d AS a + 1 INTO R;",
            "DROP SCHEMA VERSION v2;",
            "DROP SCHEMA VERSION v3;",
        ):
            engine.execute(script)
            assert_installed_is_rendered(backend, script)
        assert backend.last_install["dropped"] == 8
    finally:
        backend.close()


@pytest.mark.parametrize("scenario", ["tasky", "orders", "benchmark"])
def test_scenarios_install_what_a_fresh_engine_renders(scenario, tmp_path):
    path = str(tmp_path / "scenario.db")
    if scenario == "tasky":
        engine, tip, middle = build_tasky(20).engine, "TasKy2", None
    elif scenario == "orders":
        engine, tip, middle = build_orders(2, 8, 2, versions=3).engine, "v3", "v2"
    else:
        engine, tip, middle = repro.InVerDa(), "S8", "S6"
        for script in CHAIN:
            engine.execute(script)
    backend = LiveSqliteBackend.attach(engine, database=path)
    try:
        backend = walk_transitions(engine, LiveSqliteBackend, path, tip, middle)
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# (b) statements executed per transition, on the benchmark's chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain():
    engine = repro.InVerDa()
    engine.execute(CHAIN[0])
    conn = repro.connect(engine, "S0", autocommit=True)
    conn.executemany(
        "INSERT INTO Item(k, grp, qty, note) VALUES (?, ?, ?, ?)",
        [(i, i % 7, i % 13, f"n{i}") for i in range(1000)],
    )
    conn.close()
    for script in CHAIN[1:]:
        engine.execute(script)
    backend = LiveSqliteBackend.attach(engine)
    engine.execute("MATERIALIZE 'S4';")
    yield engine
    backend.close()


def _traced(engine, script: str) -> list[str]:
    """Every statement ``script`` makes SQLite execute on the
    administrative handle."""
    handle = engine.live_backend.connection
    traced: list[str] = []
    handle.set_trace_callback(traced.append)
    try:
        engine.execute(script)
    finally:
        handle.set_trace_callback(None)
    return traced


def _generated_ddl(engine, script: str) -> tuple[int, int]:
    """(CREATE, DROP) statements for views and triggers that ``script``
    makes SQLite execute on the administrative handle."""
    traced = _traced(engine, script)
    return (
        sum(text.startswith(("CREATE VIEW", "CREATE TRIGGER")) for text in traced),
        sum(text.startswith(("DROP VIEW", "DROP TRIGGER")) for text in traced),
    )


@pytest.mark.parametrize(
    "leaf, smo, objects",
    [
        ("L0", "RENAME COLUMN remark IN Lo TO r0", 4),
        ("L1", "SPLIT TABLE Lo INTO A1 WITH k % 2 = 0, B1 WITH k % 2 = 1", 8),
    ],
)
def test_leaf_cycle_touches_only_the_leaf(chain, leaf, smo, objects):
    backend = chain.live_backend
    total = len(codegen.installed_objects(backend.connection))
    assert total == 44
    counter = chain.metrics.get("repro_delta_objects_total")
    kept = counter.value(action="kept")
    evolved = _generated_ddl(chain, f"CREATE SCHEMA VERSION {leaf} FROM S8 WITH {smo};")
    assert evolved == (objects, 0), f"{SQLITE}: evolve ran {evolved} CREATE, DROP"
    grown = len(backend.generated_sql().encode())
    assert backend.last_install == {
        "created": objects, "dropped": 0, "kept": total, "bytes": grown
    }
    assert backend.catalog_stats()["last_install"] == backend.last_install
    dropped = _generated_ddl(chain, f"DROP SCHEMA VERSION {leaf};")
    assert dropped == (0, objects), f"{SQLITE}: drop ran {dropped} CREATE, DROP"
    shrunk = len(backend.generated_sql().encode())
    assert backend.last_install == {
        "created": 0, "dropped": objects, "kept": total, "bytes": shrunk
    }
    assert shrunk < grown
    assert counter.value(action="kept") == kept + 2 * total
    assert_installed_is_rendered(backend, "after the leaf cycle")


def test_plain_transition_pays_nothing_for_the_verified_at_mark(chain):
    """With ``verify_transitions`` off a transition computes no digest,
    writes no mark and reads ``sqlite_master`` no more often than before
    the mark existed: every statement the administrative handle runs for
    a leaf evolve / drop, counted.  Each runs one meta write and no
    scaffolding: a RENAME COLUMN stages nothing, and no other SMO's
    staging tables are the leaf's business."""
    evolve = _traced(
        chain, "CREATE SCHEMA VERSION LM FROM S8 WITH RENAME COLUMN remark IN Lo TO rm;"
    )
    drop = _traced(chain, "DROP SCHEMA VERSION LM;")
    for traced, total, master_reads in ((evolve, 14, 1), (drop, 14, 2)):
        assert len(traced) == total, f"{SQLITE}: " + "\n".join(traced)
        assert sum("sqlite_master" in text for text in traced) == master_reads
        assert not any("verified_at" in text for text in traced)
    assert chain.live_backend.store.load().verified == {}


def deep_chain(depth: int) -> tuple[repro.InVerDa, str]:
    """A ``depth``-SMO chain ``S0`` … ``S<depth>`` (RENAME COLUMN, ADD
    COLUMN, DROP COLUMN, a one-partition SPLIT, again and again) over 20
    rows stored at ``S0``, served by a live backend; returns the engine
    and the tip's table."""
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION S0 WITH "
        "CREATE TABLE T0(k INTEGER, grp INTEGER, qty INTEGER, note TEXT);"
    )
    conn = repro.connect(engine, "S0", autocommit=True)
    conn.executemany(
        "INSERT INTO T0(k, grp, qty, note) VALUES (?, ?, ?, ?)",
        [(i, i % 7, i % 13, f"n{i}") for i in range(20)],
    )
    conn.close()
    table, column = "T0", "note"
    for i in range(1, depth + 1):
        smo = (
            f"RENAME COLUMN {column} IN {table} TO c{i}",
            f"ADD COLUMN a{i} AS qty + {i} INTO {table}",
            f"DROP COLUMN a{i - 1} FROM {table} DEFAULT 0",
            f"SPLIT TABLE {table} INTO T{i} WITH k >= 0",
        )[(i - 1) % 4]
        engine.execute(f"CREATE SCHEMA VERSION S{i} FROM S{i - 1} WITH {smo};")
        column = f"c{i}" if smo.startswith("RENAME") else column
        table = f"T{i}" if smo.startswith("SPLIT") else table
    LiveSqliteBackend.attach(engine)
    return engine, table


_GENERATED_OR_STAGED = re.compile(r"\b(?:v\d+__\w+|tg__\d+__\w+|put__\d+__)")


def test_a_leaf_cycle_costs_the_same_at_every_depth(monkeypatch):
    """A leaf ADD COLUMN evolve + drop at the tip of an 8-SMO and of a
    32-SMO chain: the same statements on the administrative handle, a
    ``sqlite_master`` read that names the leaf's objects and nothing else,
    and the same number of :func:`codegen.route_for` calls — nothing on
    the transition path walks the catalog."""
    routed: list = []
    route_for = codegen.route_for
    monkeypatch.setattr(
        codegen, "route_for", lambda engine, tv: routed.append(tv) or route_for(engine, tv)
    )
    costs = {}
    for depth in (8, 32):
        engine, table = deep_chain(depth)
        try:
            routed.clear()
            evolve = _traced(
                engine,
                f"CREATE SCHEMA VERSION leaf FROM S{depth} WITH "
                f"ADD COLUMN z AS qty + 1 INTO {table};",
            )
            tv = engine.genealogy.schema_version("leaf").table_version(table)
            objects = {tv.view_name, *map(tv.trigger_name, ("INSERT", "UPDATE", "DELETE"))}
            leaf = {*objects, tv.incoming.put_table_name("")}
            drop = _traced(engine, "DROP SCHEMA VERSION leaf;")
            for traced in (evolve, drop):
                named = {
                    name
                    for text in traced
                    if "sqlite_master" in text
                    for name in _GENERATED_OR_STAGED.findall(text)
                }
                assert named - leaf == set(), f"depth {depth}: {sorted(named - leaf)}"
                assert named >= objects, f"depth {depth}"
            costs[depth] = (len(evolve), len(drop), len(routed))
        finally:
            engine.live_backend.close()
    assert costs[8] == costs[32], f"{SQLITE}: (evolve, drop, route_for) {costs}"


# ---------------------------------------------------------------------------
# (c) objects the catalog did not generate
# ---------------------------------------------------------------------------


def test_foreign_views_and_triggers_survive_every_transition():
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);")
    backend = LiveSqliteBackend.attach(engine)
    handle = backend.connection
    handle.execute("CREATE TABLE vendor(name TEXT)")
    handle.execute("CREATE VIEW vendor_report AS SELECT name FROM vendor")
    handle.execute(
        "CREATE TRIGGER tg__vendor_audit AFTER INSERT ON vendor "
        "BEGIN SELECT 1; END"
    )
    handle.commit()

    def foreign():
        return sorted(
            name
            for (name,) in handle.execute(
                "SELECT name FROM sqlite_master WHERE type IN ('view', 'trigger')"
            )
            if name in ("vendor_report", "tg__vendor_audit")
        )

    try:
        assert codegen.generated_object_names(handle) == (
            ["v0__R"], ["tg__0__insert", "tg__0__update", "tg__0__delete"],
        )
        for script in (
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;",
            "MATERIALIZE 'v2';",
            "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN b IN R TO bb;",
            "DROP SCHEMA VERSION v3;",
        ):
            engine.execute(script)
            assert foreign() == ["tg__vendor_audit", "vendor_report"], script
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# (d) a file that lost some of its generated objects
# ---------------------------------------------------------------------------


def test_partly_stripped_file_gets_back_exactly_the_missing_objects(tmp_path):
    path = str(tmp_path / "tasky.db")
    scenario = build_tasky(10)
    backend = LiveSqliteBackend.attach(scenario.engine, database=path)
    before = installed_text(backend.connection)
    todo = scenario.engine.genealogy.schema_version("Do!").table_version("Todo")
    task = scenario.engine.genealogy.schema_version("TasKy").table_version("Task")
    backend.close()

    handle = sqlite3.connect(path)
    handle.execute(f"DROP VIEW {todo.view_name}")  # and its three triggers
    handle.execute(f"DROP TRIGGER {task.trigger_name('DELETE')}")
    handle.commit()
    handle.close()

    engine = repro.open(path)
    backend = engine.live_backend
    try:
        assert backend.recovered and not backend.delta_reused
        assert backend.last_install == {
            "created": 5, "dropped": 0, "kept": len(before) - 5, "bytes": ANY,
        }
        assert installed_text(backend.connection) == before
    finally:
        backend.close()
    engine = repro.open(path)
    try:
        assert engine.live_backend.delta_reused
    finally:
        engine.live_backend.close()


# ---------------------------------------------------------------------------
# (e) the verifier checks the emission the backend installs
# ---------------------------------------------------------------------------


def _contents(engine) -> dict:
    contents = {}
    for version in engine.genealogy.active_versions():
        conn = repro.connect(engine, version.name)
        for table in sorted(version.table_names()):
            columns = ", ".join(version.table_version(table).schema.column_names)
            contents[version.name, table] = sorted(
                conn.execute(f"SELECT {columns} FROM {table}").fetchall()
            )
        conn.close()
    return contents


def test_nested_backend_passes_the_transition_gate_and_the_product_replaces_its_views(
    tmp_path,
):
    path = str(tmp_path / "nested.db")
    engine = repro.InVerDa()
    backend = NestedEmissionBackend.attach(
        engine, database=path, verify_transitions=True
    )

    def clean(context: str) -> None:
        assert engine.last_check["scope"].startswith("transition:"), context
        assert engine.last_check["findings"] == 0, f"{context}: {engine.last_check}"
        mark = backend.store.load().verified
        assert mark["generation"] == engine.catalog_generation, context
        assert_installed_is_rendered(backend, context)

    engine.execute(CHAIN[0])
    conn = repro.connect(engine, "S0", autocommit=True)
    conn.executemany(
        "INSERT INTO Item(k, grp, qty, note) VALUES (?, ?, ?, ?)",
        [(i, i % 7, i % 13, f"n{i}") for i in range(40)],
    )
    conn.close()
    for script in CHAIN[1:]:
        engine.execute(script)
        clean(script)
    engine.execute("MATERIALIZE 'S4';")
    clean("materialized")
    engine.execute("CREATE SCHEMA VERSION leaf FROM S8 WITH RENAME COLUMN remark IN Lo TO r;")
    clean("leaf evolved")
    engine.execute("DROP SCHEMA VERSION leaf;")
    clean("leaf dropped")
    before = _contents(engine)
    nested_views = installed_text(backend.connection)
    backend.close()

    # Its own kind of backend goes by the mark ...
    backend = NestedEmissionBackend.attach(repro.InVerDa(), database=path)
    try:
        assert backend.delta_reused and backend.recovery_phases["verify_skipped"]
    finally:
        backend.close()
    # ... the product's emitter is another one: nothing vouches for these
    # views there, and the diff replaces them.
    engine = repro.open(path)
    try:
        backend = engine.live_backend
        assert not backend.delta_reused
        assert "verify_delta_ms" in backend.recovery_phases
        assert backend.last_install["dropped"] > 0
        composed_views = installed_text(backend.connection)
        assert composed_views.keys() == nested_views.keys()
        assert composed_views != nested_views
        assert_installed_is_rendered(backend, "reopened by the product")
        assert _contents(engine) == before
    finally:
        engine.live_backend.close()
    engine = repro.open(path)
    try:
        assert engine.live_backend.recovery_phases["verify_skipped"]
    finally:
        engine.live_backend.close()
