"""Flattened view composition: equivalence with the nested emission and
with the in-memory engine, and full composition of simple chains — the
identifier-generating SMOs' views included."""

from __future__ import annotations

import random
import re

import pytest

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.core.engine import InVerDa
from repro.sql.connection import connect
from tests.testing import NestedEmissionBackend
from tests.testing.compare import assert_states_match, visible_state

WORDS = ["ant", "bee", "cat", "dog", "elk", "fox"]


class TriSystem:
    """Three engines fed identically: in-memory, SQLite with flattened
    views, SQLite with the nested view stack."""

    def __init__(self):
        self.mem = InVerDa()
        self.flat = InVerDa()
        self.nested = InVerDa()
        self.backends = {}

    def attach(self):
        self.backends["flat"] = LiveSqliteBackend.attach(self.flat)
        self.backends["nested"] = NestedEmissionBackend.attach(self.nested)

    def ddl(self, script: str) -> None:
        for engine in (self.mem, self.flat, self.nested):
            engine.execute(script)

    def run(self, version: str, sql: str, params: tuple = ()) -> None:
        for engine in (self.mem, self.flat, self.nested):
            backend = (
                self.backends["flat"]
                if engine is self.flat
                else self.backends["nested"]
                if engine is self.nested
                else None
            )
            conn = connect(engine, version, autocommit=True, backend=backend)
            try:
                conn.execute(sql, params)
            finally:
                conn.close()

    def check(self, context: str) -> None:
        """Flat and nested against memory."""
        reference = visible_state(self.mem)
        for label in ("flat", "nested"):
            engine = getattr(self, label)
            state = visible_state(engine, self.backends[label])
            try:
                assert_states_match(self.mem, reference, engine, state)
            except AssertionError as exc:
                raise AssertionError(f"[{context}/{label}] {exc}") from None

    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()


CHAIN_STEPS = {
    # step builders: (description used in ids, list of evolution scripts)
    "deep_mixed": [
        "RENAME COLUMN a IN R TO a1",
        "ADD COLUMN d AS b + 1 INTO R",
        "SPLIT TABLE R INTO R3 WITH b >= 1",
        "RENAME COLUMN a1 IN R3 TO a4",
        "DROP COLUMN d FROM R3 DEFAULT 0",
        "SPLIT TABLE R3 INTO R6 WITH b >= 2",
        "RENAME COLUMN a4 IN R6 TO a7",
        "RENAME COLUMN a7 IN R6 TO a8",
    ],
    "decompose_pk_chain": [
        "DECOMPOSE TABLE R INTO S(a, w), T(b, c) ON PK",
        "RENAME COLUMN b IN T TO bb",
        "SPLIT TABLE T INTO T3 WITH bb >= 1",
        "RENAME COLUMN c IN T3 TO cc",
    ],
    "fk_chain": [
        "DECOMPOSE TABLE R INTO S(a, b, c), Names(w) ON FK ref",
        "RENAME COLUMN w IN Names TO word",
        "SPLIT TABLE S INTO Hot WITH b >= 2",
    ],
}

# a = b pairs one wide row's S part with other rows' T parts: the views
# above it serve off-diagonal pairs, and Rminus suppresses them.
CONDITION_CHAIN = [
    "DECOMPOSE TABLE R INTO S(a, w), T(b, c) ON a = b",
    "RENAME COLUMN w IN S TO word",
    "JOIN TABLE S, T INTO J ON a < c",
]


@pytest.mark.parametrize("name", sorted(CHAIN_STEPS))
@pytest.mark.parametrize("seed", [3, 11])
def test_flat_nested_memory_differential(name, seed):
    rng = random.Random(seed)
    tri = TriSystem()
    tri.ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER, w TEXT);")
    tri.attach()
    try:
        for _ in range(8):
            tri.run(
                "v1",
                "INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)",
                (rng.randint(0, 5), rng.randint(0, 3), rng.randint(0, 5), rng.choice(WORDS)),
            )
        for step, evolution in enumerate(CHAIN_STEPS[name], start=2):
            tri.ddl(f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};")
            tri.check(f"{name}/{seed}/after-v{step}")
        # Writes at the tip and at the base propagate identically.
        versions = sorted(v.name for v in tri.mem.genealogy.active_versions())
        for index in range(6):
            version = rng.choice(versions)
            tables = sorted(
                tri.mem.genealogy.schema_version(version).table_names()
            )
            table = rng.choice(tables)
            tv = tri.mem.genealogy.schema_version(version).table_version(table)
            columns = [
                c.name
                for c in tv.schema.columns
                if c.name != tv.key_column and not c.name.startswith("ref")
            ]
            if not columns:
                continue
            integer_columns = [c for c in columns if c not in ("w", "word")]
            if index % 3 == 2 and integer_columns:
                tri.run(
                    version,
                    f"UPDATE {table} SET {integer_columns[0]} = ? WHERE {integer_columns[-1]} = ?",
                    (rng.randint(0, 5), rng.randint(0, 3)),
                )
            else:
                names = ", ".join(columns)
                qs = ", ".join("?" for _ in columns)
                params = tuple(
                    rng.choice(WORDS) if c in ("w", "word") else rng.randint(0, 5)
                    for c in columns
                )
                tri.run(version, f"INSERT INTO {table}({names}) VALUES ({qs})", params)
            tri.check(f"{name}/{seed}/write-{index}@{version}")
        # A materialization move keeps all three systems aligned.
        schemas = enumerate_valid_materializations(tri.mem.genealogy)
        index = len(schemas) // 2
        for engine in (tri.mem, tri.flat, tri.nested):
            engine.apply_materialization(
                enumerate_valid_materializations(engine.genealogy)[index]
            )
        tri.check(f"{name}/{seed}/after-materialization")
    finally:
        tri.close()


@pytest.mark.parametrize("seed", [3, 11])
def test_condition_chain_composed_matches_nested(seed):
    """The condition SMOs' composed views serve what their nested stack
    and the memory engine serve, after writes at either end of the chain
    and after a move."""
    rng = random.Random(seed)
    tri = TriSystem()
    tri.ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER, w TEXT);")
    tri.attach()
    try:
        for _ in range(8):
            row = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 5), rng.choice(WORDS))
            tri.run("v1", "INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)", row)
        for step, evolution in enumerate(CONDITION_CHAIN, start=2):
            tri.ddl(f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};")
            tri.check(f"condition/{seed}/after-v{step}")
        tip = len(CONDITION_CHAIN) + 1
        for index in range(6):
            row = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 5), rng.choice(WORDS))
            if index % 2:
                version, sql = f"v{tip}", "INSERT INTO J(a, b, c, word) VALUES (?, ?, ?, ?)"
            else:
                version, sql = "v1", "INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)"
            tri.run(version, sql, row)
            tri.check(f"condition/{seed}/write-{index}@{version}")
        for engine in (tri.mem, tri.flat, tri.nested):
            schemas = enumerate_valid_materializations(engine.genealogy)
            engine.apply_materialization(schemas[len(schemas) // 2])
        tri.check(f"condition/{seed}/after-materialization")
    finally:
        tri.close()


@pytest.mark.parametrize(
    "chain",
    [
        CONDITION_CHAIN,
        ["DECOMPOSE TABLE R INTO S(a, w), T(b, c) ON a <= b", "JOIN TABLE S, T INTO J ON a <= b"],
    ],
    ids=["condition_chain", "decompose_then_join"],
)
def test_condition_writes_agree_at_every_table(chain):
    """Inserts, deletes and multi-row updates of a column outside the
    conditions at every table of every version, under each valid
    materialization: memory ≡ composed ≡ nested after each write."""
    index, count = 0, 1  # count: the valid materializations, once the chain is built
    while index < count:
        rng = random.Random(index)
        tri = TriSystem()
        tri.ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER, w TEXT);")
        tri.attach()
        try:
            for _ in range(5):
                row = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4), rng.choice(WORDS))
                tri.run("v1", "INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)", row)
            for step, evolution in enumerate(chain, start=2):
                tri.ddl(f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};")
            for engine in (tri.mem, tri.flat, tri.nested):
                schemas = enumerate_valid_materializations(engine.genealogy)
                engine.apply_materialization(schemas[index])
            count = len(schemas)
            for version in sorted(v.name for v in tri.mem.genealogy.active_versions()):
                for table in sorted(tri.mem.genealogy.schema_version(version).table_names()):
                    tv = tri.mem.genealogy.schema_version(version).table_version(table)
                    columns = [c.name for c in tv.schema.columns if c.name != "id"]
                    values = tuple(
                        rng.choice(WORDS) if c in ("w", "word") else rng.randint(0, 4)
                        for c in columns
                    )
                    tri.run(
                        version,
                        f"INSERT INTO {table}({', '.join(columns)}) "
                        f"VALUES ({', '.join('?' for _ in columns)})",
                        values,
                    )
                    tri.check(f"{index}/insert@{version}.{table}")
                    tri.run(version, f"DELETE FROM {table} WHERE {columns[0]} = ?", (rng.randint(0, 4),))
                    tri.check(f"{index}/delete@{version}.{table}")
                    for text in {"w", "word"} & set(columns):
                        tri.run(
                            version,
                            f"UPDATE {table} SET {text} = ? WHERE {columns[0]} <= ?",
                            (rng.choice(WORDS), rng.randint(1, 4)),
                        )
                        tri.check(f"{index}/update@{version}.{table}")
        finally:
            tri.close()
        index += 1


@pytest.mark.parametrize("materialized", [False, True], ids=["virtual", "materialized"])
def test_a_narrow_write_leaves_the_join_of_the_narrow_sides(materialized):
    """A wide row that never met its condition, (6, 4) under x = y, is not
    in the join of the narrow sides: once a narrow write regenerates the
    wide side from them (or at once, where the narrow side is stored), v1
    reads two rows on every engine."""
    tri = TriSystem()
    tri.ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE Pair(x INTEGER, y INTEGER);")
    tri.attach()
    try:
        for row in ((1, 1), (2, 2)):
            tri.run("v1", "INSERT INTO Pair VALUES (?, ?)", row)
        tri.ddl(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DECOMPOSE TABLE Pair INTO Xs(x), Ys(y) ON x = y;"
        )
        if materialized:
            tri.ddl("MATERIALIZE 'v2';")
        tri.run("v1", "INSERT INTO Pair VALUES (6, 4)")
        tri.check("pair")
        tri.run("v2", "INSERT INTO Xs(x) VALUES (9)")
        tri.check("xs")
        for label in ("mem", "flat", "nested"):
            state = visible_state(getattr(tri, label), tri.backends.get(label))
            assert state[("v1", "Pair")] == [(1, 1), (2, 2)], label
    finally:
        tri.close()


@pytest.mark.parametrize("at", [None, "v2", "v3"], ids=["v1", "v2", "v3"])
def test_an_update_of_rows_sharing_an_identifier(at):
    """Two wide rows share S's identifier.  An UPDATE of both moves them to
    one S row on every engine, though SQLite puts them one at a time; an
    UPDATE of one gives it an S row of its own and leaves the other's."""
    for where, expected in (("a = 1", [(1, "y")]), ("c = 5", [(1, "x"), (1, "y")])):
        tri = TriSystem()
        tri.ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER, w TEXT);")
        tri.attach()
        try:
            for row in ((1, 1, 5, "x"), (1, 1, 6, "x"), (2, 2, 7, "z")):
                tri.run("v1", "INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)", row)
            tri.ddl(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH "
                "DECOMPOSE TABLE R INTO S(a, w), T(b, c) ON a = b;"
            )
            tri.ddl("CREATE SCHEMA VERSION v3 FROM v2 WITH JOIN TABLE S, T INTO J ON a = b;")
            if at:
                tri.ddl(f"MATERIALIZE '{at}';")
            for version, table in (("v1", "R"), ("v3", "J")):
                tri.run(version, f"UPDATE {table} SET w = 'y' WHERE {where}")
                tri.check(f"{at}/{where}@{version}")
                for label in ("mem", "flat", "nested"):
                    state = visible_state(getattr(tri, label), tri.backends.get(label))
                    s_rows = [row[1:] for row in state[("v2", "S")] if row[1] == 1]
                    assert sorted(s_rows) == expected, (label, version, where)
                tri.run(version, f"UPDATE {table} SET w = 'x' WHERE a = 1")
                tri.check(f"{at}/{where}@{version}/back")
        finally:
            tri.close()


def _view_bodies(engine, flatten):
    bodies = {}
    for statement in codegen.view_statements(engine, flatten=flatten):
        match = re.match(r'CREATE VIEW "?([^" ]+)"? AS\n(.*)', statement, re.DOTALL)
        bodies[match.group(1)] = match.group(2)
    return bodies


def test_simple_chains_compose_to_physical_scans():
    """A chain of renames/projections flattens to ONE scan of the physical
    table — no references to other generated views, no UNION."""
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION S0 WITH CREATE TABLE T(a TEXT, b INTEGER);")
    column = "a"
    for step in range(1, 9):
        engine.execute(
            f"CREATE SCHEMA VERSION S{step} FROM S{step - 1} WITH "
            f"RENAME COLUMN {column} IN T TO a{step};"
        )
        column = f"a{step}"
    bodies = _view_bodies(engine, flatten=True)
    tip = engine.genealogy.schema_version("S8").table_version("T")
    body = bodies[tip.view_name]
    assert "UNION" not in body
    assert tip.view_name not in body
    assert not re.search(r"\bv\d+__", body), body  # no generated-view refs
    base = engine.genealogy.schema_version("S0").table_version("T")
    assert base.data_table_name in body


def test_union_chain_stays_linear():
    """SPLIT levels merge into OR-of-EXISTS predicates: the flat body's
    size grows linearly with depth, not exponentially (the nested emission
    doubles references per level)."""
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION S0 WITH CREATE TABLE T0(a TEXT, b INTEGER);")
    table = "T0"
    for step in range(1, 7):
        new = f"T{step}"
        engine.execute(
            f"CREATE SCHEMA VERSION S{step} FROM S{step - 1} WITH "
            f"SPLIT TABLE {table} INTO {new} WITH b >= {step};"
        )
        table = new
    bodies = _view_bodies(engine, flatten=True)
    tip = engine.genealogy.schema_version("S6").table_version(table)
    body = bodies[tip.view_name]
    # One scan of the base data table, with one Rstar EXISTS per level.
    base = engine.genealogy.schema_version("S0").table_version("T0")
    assert body.count(base.data_table_name) == 1
    assert "UNION" not in body
    assert body.count("EXISTS") == 6


def test_fk_views_compose():
    """FK-decompose views come from rules like every other SMO's: the tip
    view over them composes down to the data and ID tables, and serves
    each generated identifier once."""
    engine = InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, w TEXT);")
    engine.execute(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH "
        "DECOMPOSE TABLE R INTO S(a), T(w) ON FK ref;"
    )
    engine.execute(
        "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN w IN T TO word;"
    )
    tip = engine.genealogy.schema_version("v3").table_version("T")
    body = _view_bodies(engine, flatten=True)[tip.view_name]
    assert not re.search(r"\bv\d+__", body), body  # no generated-view refs
    backend = LiveSqliteBackend.attach(engine)
    try:
        conn = connect(engine, "v1", autocommit=True, backend=backend)
        conn.executemany(
            "INSERT INTO R(a, w) VALUES (?, ?)", [(1, "ant"), (2, "bee"), (3, "ant")]
        )
        v3 = connect(engine, "v3", autocommit=True, backend=backend)
        words = sorted(r[0] for r in v3.execute("SELECT word FROM T").fetchall())
        assert words == ["ant", "bee"]
        conn.close()
        v3.close()
    finally:
        backend.close()


def test_tautology_elimination_requires_matching_outer_aliases():
    """EXISTS / NOT EXISTS probes correlated against DIFFERENT scanned
    entries are not complementary: the merged branch must keep its
    disjunction (alias canonicalization pins the outer aliases)."""
    from repro.backend.compose import ViewComposer
    from repro.sqlgen.views import ViewBranch

    composer = ViewComposer()
    head = (("p", "f1.p"), ("a", "f1.a"), ("b", "f2.b"))
    froms = (("f1", "tbl_a"), ("f2", "tbl_b"))
    b1 = ViewBranch(
        head=head,
        froms=froms,
        where=("f2.p = f1.p", "EXISTS (SELECT 1 FROM aux x WHERE x.p = f1.p)"),
    )
    b2 = ViewBranch(
        head=head,
        froms=froms,
        where=("f2.p = f1.p", "NOT EXISTS (SELECT 1 FROM aux x WHERE x.p = f2.p)"),
    )
    merged = composer._merge([b1, b2])
    assert len(merged) == 1
    assert any("OR" in cond for cond in merged[0].where), merged[0].where

    # Probes against the SAME entry ARE complementary: WHERE collapses.
    b3 = ViewBranch(
        head=head,
        froms=froms,
        where=("f2.p = f1.p", "NOT EXISTS (SELECT 1 FROM aux x WHERE x.p = f1.p)"),
    )
    merged = composer._merge([b1, b3])
    assert len(merged) == 1
    assert merged[0].where == ("f2.p = f1.p",)


def _installed_view_bodies(backend):
    return {
        name: sql.split(" AS\n", 1)[1]
        for name, sql in backend.connection.execute(
            "SELECT name, sql FROM sqlite_master WHERE type = 'view'"
        )
    }


def test_backend_installs_composed_emission_and_nested_stays_reachable():
    """The product backend installs the composed emission and takes no
    knob to choose otherwise; the nested rendering is what the test-only
    subclass installs, byte for byte what ``view_statements`` renders."""
    bodies = {}
    for cls in (LiveSqliteBackend, NestedEmissionBackend):
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION S0 WITH CREATE TABLE T(a INTEGER);")
        engine.execute(
            "CREATE SCHEMA VERSION S1 FROM S0 WITH RENAME COLUMN a IN T TO b;"
        )
        backend = cls.attach(engine)
        try:
            assert not hasattr(backend, "flatten")
            bodies[cls] = _installed_view_bodies(backend)
            flatten = cls is LiveSqliteBackend
            assert bodies[cls] == _view_bodies(engine, flatten=flatten)
        finally:
            backend.close()
    with pytest.raises(TypeError):
        LiveSqliteBackend.attach(InVerDa(), flatten=False)
    tip = engine.genealogy.schema_version("S1").table_version("T")
    base = engine.genealogy.schema_version("S0").table_version("T")
    assert base.data_table_name in bodies[LiveSqliteBackend][tip.view_name]
    assert base.view_name in bodies[NestedEmissionBackend][tip.view_name]
