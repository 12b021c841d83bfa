"""Sargable delta code: a view whose branches are provably disjoint on the
tuple identifier ``p`` is emitted as ``UNION ALL``, which SQLite flattens
into the enclosing statement — so an identifier probe through any number
of hops is a rowid seek, not a materialize-sort-deduplicate of the view.

(a) soundness on data: every installed view holds each ``p`` once and
    equals its nested plain-``UNION`` rendering as a sorted bag;
(b) everything unproven keeps ``UNION``;
(c) plan shape, read through ``EXPLAIN``;
(d) the work it buys, in SQLite VM steps and in statements run;
(e) and that such a write, now cheap, does not pay for memory instead.

(c) and (d) depend on the bundled SQLite's planner, so their failures
name the version.
"""

from __future__ import annotations

import os
import platform
import random
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.backend import codegen
from repro.backend.compose import MAX_BRANCHES, ViewComposer
from repro.backend.emit import q
from repro.backend.sqlite import LiveSqliteBackend
from repro.catalog.materialization import enumerate_valid_materializations
from repro.datalog.ast import Atom, Rule, RuleSet, Var, wildcard
from repro.sqlgen.views import ViewBranch, branches_for_rules, key_disjoint
from repro.workloads.orders import build_orders
from repro.workloads.tasky import build_tasky
from tests.backend.test_differential import CHAINS, WORDS, _fuzz_ops
from tests.backend.test_flatten import CHAIN_STEPS, CONDITION_CHAIN
from tests.testing import DualSystem

FLATTEN_CHAINS = {**CHAIN_STEPS, "condition_chain": CONDITION_CHAIN}

SQLITE = f"SQLite {sqlite3.sqlite_version}"


# ---------------------------------------------------------------------------
# (a) every installed view: each p once, same bag as the nested UNION form
# ---------------------------------------------------------------------------


def _bag(rows):
    return sorted(rows, key=lambda row: [(v is None, str(type(v)), v) for v in row])


def _check_installed_views(engine, backend, context: str) -> int:
    """Returns how many installed compounds are ``UNION ALL``."""
    connection = backend.connection
    nested = {
        name: select
        for name, select, _flat in codegen.view_definitions(engine, flatten=False)
    }
    union_all = 0
    for name, select, _flat in codegen.view_definitions(engine):
        duplicates = connection.execute(
            f"SELECT p FROM {q(name)} GROUP BY p HAVING count(*) > 1"
        ).fetchall()
        assert duplicates == [], f"[{context}] {name} serves p twice: {duplicates}"
        installed = connection.execute(f"SELECT * FROM {q(name)}").fetchall()
        reference = connection.execute(nested[name]).fetchall()
        assert _bag(installed) == _bag(reference), f"[{context}] {name}"
        union_all += "\nUNION ALL\n" in select
    return union_all


def _check_every_materialization(engines, backend, context: str) -> int:
    """``engines[0]`` owns ``backend``; the others are moved in step."""
    union_all = _check_installed_views(engines[0], backend, f"{context}/initial")
    count = len(enumerate_valid_materializations(engines[0].genealogy))
    for index in range(count):
        for engine in engines:
            engine.apply_materialization(
                enumerate_valid_materializations(engine.genealogy)[index]
            )
        union_all += _check_installed_views(
            engines[0], backend, f"{context}/materialization-{index}"
        )
    return union_all


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_differential_chains_serve_each_identifier_once(name):
    create, load, evolutions = CHAINS[name]
    rng = random.Random(5)
    ds = DualSystem()
    ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH {create};")
    ds.attach()
    try:
        for table, columns in load.items():
            rows = [
                tuple(
                    rng.choice(WORDS) if c in ("author", "task", "w") else rng.randint(0, 6)
                    for c in columns
                )
                for _ in range(8)
            ]
            ds.runmany(
                "v1",
                f"INSERT INTO {table}({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                rows,
            )
        for step, evolution in enumerate(evolutions, start=2):
            source = f"v{step - 1}"
            if isinstance(evolution, tuple):
                evolution, source = evolution
            ds.execute_ddl(
                f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};"
            )
        # Writes through every version fill the aux tables (twins, lost
        # and pinned rows) whose branches the proof is about.
        _fuzz_ops(ds, rng, 12, f"{name}/fuzz")
        _check_every_materialization((ds.sq, ds.mem), ds.backend, name)
    finally:
        ds.close()


@pytest.mark.parametrize("name", sorted(FLATTEN_CHAINS))
def test_flatten_chains_serve_each_identifier_once(name):
    rng = random.Random(9)
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH "
        "CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER, w TEXT);"
    )
    backend = LiveSqliteBackend.attach(engine)
    try:
        rows = [
            (rng.randint(0, 5), rng.randint(0, 3), rng.randint(0, 5), rng.choice(WORDS))
            for _ in range(12)
        ]
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        conn.executemany("INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)", rows[:8])
        conn.close()
        for step, evolution in enumerate(FLATTEN_CHAINS[name], start=2):
            engine.execute(
                f"CREATE SCHEMA VERSION v{step} FROM v{step - 1} WITH {evolution};"
            )
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        conn.executemany("INSERT INTO R(a, b, c, w) VALUES (?, ?, ?, ?)", rows[8:])
        conn.close()
        _check_every_materialization((engine,), backend, name)
    finally:
        backend.close()


def test_tasky_and_orders_serve_each_identifier_once():
    tasky = build_tasky(30)
    backend = LiveSqliteBackend.attach(tasky.engine)
    try:
        do = repro.connect(tasky.engine, "Do!", autocommit=True, backend=backend)
        do.execute("INSERT INTO Todo(author, task) VALUES ('Zed', 'Ship it')")
        do.close()
        _check_every_materialization((tasky.engine,), backend, "tasky")
    finally:
        backend.close()
    orders = build_orders(2, 10, 3)
    backend = LiveSqliteBackend.attach(orders.engine)
    try:
        v3 = orders.connect("v3", backend=backend)
        v3.execute("UPDATE Open SET status = 1 WHERE qty > 2")  # Open -> Closed
        v3.execute("UPDATE Closed SET qty = qty + 1")
        v3.close()
        assert _check_every_materialization((orders.engine,), backend, "orders") > 0
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# (b) what is not proven keeps UNION
# ---------------------------------------------------------------------------


def _compounds(engine) -> dict[str, str]:
    return {
        name: select
        for name, select, flat in codegen.view_definitions(engine)
        if flat is not None and len(flat) > 1
    }


def test_two_branches_without_an_exclusion_keep_union():
    """JOIN ON PK, materialized: L is "T's rows" plus "rows only L had"
    (aux Rplus) — disjoint by the data invariant, not by the rules."""
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION j1 WITH CREATE TABLE L(x INTEGER); CREATE TABLE R(y INTEGER);"
    )
    engine.execute("CREATE SCHEMA VERSION j2 FROM j1 WITH JOIN TABLE L, R INTO T ON PK;")
    engine.execute("MATERIALIZE 'j2';")
    compounds = _compounds(engine)
    assert len(compounds) == 2
    for select in compounds.values():
        assert "\nUNION\n" in select and "UNION ALL" not in select


def HEAD(alias: str):
    return (("p", f"{alias}.p"), ("a", f"{alias}.a"))


def _probe(table: str, alias: str) -> str:
    return f"NOT EXISTS (SELECT 1 FROM {table} n WHERE n.p = {alias}.p)"


def test_exclusion_inside_an_or_member_is_not_common_to_the_merged_branch():
    lone = ViewBranch(
        head=HEAD("f1"), froms=(("f1", "T"),), where=(_probe("X", "f1"),),
        requires=frozenset({"T"}), forbids=frozenset({"X"}), key_preserving=True,
    )
    sibling = ViewBranch(
        head=HEAD("f2"), froms=(("f2", "T"),), where=("f2.a = 1",),
        requires=frozenset({"T"}), key_preserving=True,
    )
    other = ViewBranch(
        head=HEAD("f3"), froms=(("f3", "X"),), where=(),
        requires=frozenset({"X"}), key_preserving=True,
    )
    assert "\nUNION ALL\n" in ViewComposer().sql([lone, other])
    composer = ViewComposer()
    merged = composer.register("v", [lone, sibling, other])
    assert len(merged) == 2  # lone and sibling became one OR-branch
    assert merged[0].forbids == frozenset()
    assert not key_disjoint(merged)
    assert "\nUNION\n" in composer.sql(merged)


def test_branch_with_a_non_identifier_join_keeps_union():
    p, x = Var("p"), Var("x")
    rules = RuleSet((
        Rule(Atom("V", (p, x)), (Atom("A", (p, x)), Atom("B", (Var("r"), x)))),
        Rule(Atom("V", (p, x)), (Atom("C", (p, x)), Atom("A", (p, wildcard()), False))),
    ))
    names = {"A": "ta", "B": "tb", "C": "tc"}
    columns = {pred: ("x",) for pred in names}
    joined, excluded = branches_for_rules(
        "V", rules, table_names=names, table_columns=columns, head_columns=("x",)
    )
    assert excluded.key_preserving and excluded.forbids == {"ta"}
    assert joined.requires == {"ta"} and not joined.key_preserving
    assert "\nUNION\n" in ViewComposer().sql([joined, excluded])
    # The exclusion alone would have sufficed:
    sole = branches_for_rules(
        "V",
        RuleSet((Rule(Atom("V", (p, x)), (Atom("A", (p, x)),)), rules.rules[1])),
        table_names=names, table_columns=columns, head_columns=("x",),
    )
    assert "\nUNION ALL\n" in ViewComposer().sql(sole)


def test_stored_or_computed_pair_is_one_branch():
    """ADD COLUMN's widening rules: the stored value if B holds one, else
    the computed one — one branch over the anchor, B only probed."""
    from repro.datalog.ast import Assign, CondLit
    from repro.expr.parser import parse_expression

    p, x, b = Var("p"), Var("x"), Var("b")
    plus = parse_expression("x + 1")

    def pair(*extra):
        return (
            Rule(Atom("W", (p, x, b)), (Atom("A", (p, x)), Atom("B", (p, b)), *extra)),
            Rule(Atom("W", (p, x, b)), (
                Atom("A", (p, x)), Assign(b, lambda v: v + 1, (x,), expression=plus),
                Atom("B", (p, wildcard()), False), *extra,
            )),
        )

    def render(*rules: Rule) -> list[ViewBranch]:
        return branches_for_rules(
            "W", RuleSet(rules), table_names={"A": "ta", "B": "tb"},
            table_columns={"A": ("x",), "B": ("b",)}, head_columns=("x", "b"),
        )

    (merged,) = render(*pair())
    assert merged.froms == (("t0", "ta"),) and merged.where == ()
    assert merged.requires == {"ta"} and merged.forbids == frozenset()
    assert merged.key_preserving
    assert dict(merged.head)["b"] == (
        "CASE WHEN EXISTS (SELECT 1 FROM tb n WHERE n.p = t0.p) "
        "THEN (SELECT n.b FROM tb n WHERE n.p = t0.p) ELSE (t0.x + 1) END"
    )
    assert len(render(*reversed(pair()))) == 1
    # A shared condition rides along; one that reads the stored value, or
    # a rest that differs, is not the pair.
    even = CondLit("c", parse_expression("x % 2 = 0"), (("x", x),))
    assert len(render(*pair(even))) == 1
    on_b = CondLit("c", parse_expression("b = 0"), (("b", b),))
    stored, computed = pair()
    assert len(render(Rule(stored.head, (*stored.body, on_b)), computed)) == 2
    assert len(render(stored, Rule(computed.head, (*computed.body, even)))) == 2


def test_complementary_conditions_over_the_same_keyed_rows_are_exclusive():
    """``c`` against ``(c) IS NOT TRUE`` on the one row a relation holds
    at p — but only when both branches are key-preserving and both read
    that relation."""
    from repro.datalog.ast import CondLit, Const
    from repro.expr.parser import parse_expression

    p, x = Var("p"), Var("x")
    even = parse_expression("x % 2 = 0")

    def rule(pred: str, tag: int, positive: bool) -> Rule:
        return Rule(
            Atom("V", (p, x, Const(tag))),
            (Atom(pred, (p, x)), CondLit("c", even, (("x", x),), positive)),
        )

    def render(*rules: Rule) -> list[ViewBranch]:
        return branches_for_rules(
            "V", RuleSet(rules), table_names={"A": "ta", "B": "tb"},
            table_columns={"A": ("x",), "B": ("x",)}, head_columns=("x", "tag"),
        )

    assert key_disjoint(render(rule("A", 1, True), rule("A", 2, False)))
    assert not key_disjoint(render(rule("A", 1, True), rule("B", 2, False)))
    assert not key_disjoint(render(rule("A", 1, True), rule("A", 2, True)))


def _over(child: str) -> list[ViewBranch]:
    """ADD COLUMN-shaped: the child's row with its stored value, or the
    child's row with none stored."""
    return [
        ViewBranch(
            head=(*HEAD("f7"), ("b", "f9.b")), froms=(("f7", child), ("f9", "aux")), where=("f9.p = f7.p",),
            requires=frozenset({child, "aux"}), key_preserving=True,
        ),
        ViewBranch(
            head=(*HEAD("f8"), ("b", "0")), froms=(("f8", child),),
            where=(_probe("aux", "f8"),),
            requires=frozenset({child}), forbids=frozenset({"aux"}), key_preserving=True,
        ),
    ]


def test_kept_reference_to_an_unproven_view_keeps_union():
    # Over budget, the composer keeps the view-name reference; whether the
    # referencing branches still hold each p once depends on the target.
    unproven = [
        ViewBranch(head=HEAD("f1"), froms=(("f1", "T"),), where=(),
                   requires=frozenset({"T"}), key_preserving=True),
        ViewBranch(head=HEAD("f2"), froms=(("f2", "U"),), where=(),
                   requires=frozenset({"U"}), key_preserving=True),
    ]
    proven = [
        unproven[0],
        ViewBranch(head=HEAD("f2"), froms=(("f2", "U"),), where=(_probe("T", "f2"),),
                   requires=frozenset({"U"}), forbids=frozenset({"T"}),
                   key_preserving=True),
    ]
    for child, keyword in ((unproven, "\nUNION\n"), (proven, "\nUNION ALL\n")):
        composer = ViewComposer(max_branches=1)
        assert keyword in composer.sql(composer.register("child", child))
        parent = composer.register("parent", _over("child"))
        assert all(("child" in dict(b.froms).values()) for b in parent)
        assert keyword in composer.sql(parent)


def test_branch_budget_counts_the_whole_view():
    """Two rules, each over an 8-branch child: distributing both would
    make 16 branches where the budget is 8, so the view keeps its
    references instead."""
    composer = ViewComposer()
    child = [
        ViewBranch(head=HEAD(f"f{i}"), froms=((f"f{i}", f"T{i}"),), where=(),
                   requires=frozenset({f"T{i}"}), key_preserving=True)
        for i in range(MAX_BRANCHES)
    ]
    assert len(composer.register("child", child)) == MAX_BRANCHES
    tagged = [
        ViewBranch(head=(*HEAD(f"f{tag}"), ("tag", str(tag))),
                   froms=((f"f{tag}", "child"),), where=(f"f{tag}.a = {tag}",),
                   requires=frozenset({"child"}), key_preserving=True)
        for tag in (1, 2)
    ]
    parent = composer.register("parent", tagged)
    assert len(parent) <= MAX_BRANCHES
    assert all(dict(branch.froms) == {f"f{i}": "child"} for i, branch in enumerate(parent))
    # One rule alone may take the whole budget.
    assert len(composer.register("alone", tagged[:1])) == MAX_BRANCHES


def test_split_over_an_unproven_view_keeps_union():
    """A condition DECOMPOSE's narrow view projects wide rows onto their
    generated identifiers, which nothing proves key-unique; a SPLIT's
    second partition over it has exclusive branches over that relation."""
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    engine.execute(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE R INTO S(a), T(b) ON a = b;"
    )
    engine.execute(
        "CREATE SCHEMA VERSION v3 FROM v2 WITH "
        "SPLIT TABLE S INTO A WITH a % 2 = 0, B WITH a % 2 = 1;"
    )
    second = engine.genealogy.schema_version("v3").table_version("B").view_name
    select = _compounds(engine)[second]
    assert "\nUNION\n" in select and "UNION ALL" not in select


# ---------------------------------------------------------------------------
# (c) + (d) the benchmark's chain: S0 … S8, data at S4
# ---------------------------------------------------------------------------

CHAIN = (
    "CREATE SCHEMA VERSION S0 WITH CREATE TABLE Item(k INTEGER, grp INTEGER, qty INTEGER, note TEXT);",
    "CREATE SCHEMA VERSION S1 FROM S0 WITH RENAME COLUMN note IN Item TO memo;",
    "CREATE SCHEMA VERSION S2 FROM S1 WITH ADD COLUMN dbl AS qty * 2 INTO Item;",
    "CREATE SCHEMA VERSION S3 FROM S2 WITH RENAME TABLE Item INTO Thing;",
    "CREATE SCHEMA VERSION S4 FROM S3 WITH SPLIT TABLE Thing INTO Even WITH grp % 2 = 0, Odd WITH grp % 2 = 1;",
    "CREATE SCHEMA VERSION S5 FROM S4 WITH RENAME COLUMN memo IN Even TO remark;",
    "CREATE SCHEMA VERSION S6 FROM S5 WITH ADD COLUMN inc AS qty + 1 INTO Even;",
    "CREATE SCHEMA VERSION S7 FROM S6 WITH DROP COLUMN dbl FROM Even DEFAULT 0;",
    "CREATE SCHEMA VERSION S8 FROM S7 WITH SPLIT TABLE Even INTO Lo WITH qty % 2 = 0, Hi WITH qty % 2 = 1;",
)


def build_chain(rows, database: str = ":memory:"):
    """The chain over ``rows`` of S0's Item, served by a live backend on
    ``database`` with the data at S4; returns ``(engine, backend)``."""
    engine = repro.InVerDa()
    engine.execute(CHAIN[0])
    conn = repro.connect(engine, "S0", autocommit=True)
    conn.executemany("INSERT INTO Item(k, grp, qty, note) VALUES (?, ?, ?, ?)", rows)
    conn.close()
    for script in CHAIN[1:]:
        engine.execute(script)
    backend = LiveSqliteBackend.attach(engine, database=database)
    engine.execute("MATERIALIZE 'S4';")
    return engine, backend


@pytest.fixture(scope="module")
def chain():
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(1000)])
    yield engine
    backend.close()


_BASE_SCAN = re.compile(r"\bSCAN (?:TABLE )?(?:f\d+|n|d__\w+|aux__\w+)\b")
_KEY_SEARCH = re.compile(r"\bSEARCH (?:TABLE )?\w+ (?:AS \w+ )?USING INTEGER PRIMARY KEY")


@pytest.mark.parametrize(
    "version, table, view",
    [("S0", "Item", "v0__Item"), ("S7", "Even", "v8__Even"),
     ("S8", "Lo", "v9__Lo"), ("S8", "Hi", "v10__Hi")],
)
def test_identifier_probe_is_a_rowid_seek(chain, version, table, view):
    conn = repro.connect(chain, version, autocommit=True, backend="sqlite")
    try:
        report = dict(conn.execute(f"EXPLAIN SELECT * FROM {table} WHERE rowid = ?"))
    finally:
        conn.close()
    assert report["view"] == view
    plan = report["query_plan"]
    assert _KEY_SEARCH.search(plan), f"{SQLITE}:\n{plan}"
    assert not _BASE_SCAN.search(plan), f"{SQLITE} scans a base table:\n{plan}"
    assert "TEMP B-TREE" not in plan, f"{SQLITE} de-duplicates:\n{plan}"


# ---------------------------------------------------------------------------
# Depth: five ADD COLUMNs over one table, the data at the oldest version
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def widened():
    engine = repro.InVerDa()
    engine.execute("CREATE SCHEMA VERSION w0 WITH CREATE TABLE T(k INTEGER, a INTEGER);")
    conn = repro.connect(engine, "w0", autocommit=True)
    conn.executemany("INSERT INTO T(k, a) VALUES (?, ?)", [(i, i % 7) for i in range(500)])
    conn.close()
    for depth in range(1, 6):
        engine.execute(
            f"CREATE SCHEMA VERSION w{depth} FROM w{depth - 1} WITH "
            f"ADD COLUMN c{depth} AS a + {depth} INTO T;"
        )
    backend = LiveSqliteBackend.attach(engine)
    yield engine
    backend.close()


def test_added_columns_are_one_branch_at_every_depth(widened):
    """An added column is a probe of its aux table, not a second branch:
    a read at depth five scans the data table once, as at depth zero."""
    for name, select, flat in codegen.view_definitions(widened):
        assert len(flat) == 1 and "UNION" not in select, f"{name}: {select}"
    for depth in range(6):
        conn = repro.connect(widened, f"w{depth}", autocommit=True, backend="sqlite")
        try:
            by_key = dict(conn.execute("EXPLAIN SELECT * FROM T WHERE k = ?", (250,)))
            by_id = dict(conn.execute("EXPLAIN SELECT * FROM T WHERE rowid = ?", (250,)))
            (row,) = conn.execute("SELECT * FROM T WHERE k = ?", (250,)).fetchall()
        finally:
            conn.close()
        assert row == (250, 5, *(5 + i for i in range(1, depth + 1)))
        plan = by_key["query_plan"]
        assert len(re.findall(r"\bSCAN\b", plan)) == 1, f"{SQLITE} w{depth}:\n{plan}"
        assert "CO-ROUTINE" not in plan and "TEMP B-TREE" not in plan, plan
        plan = by_id["query_plan"]
        assert _KEY_SEARCH.search(plan) and "SCAN" not in plan, f"{SQLITE} w{depth}:\n{plan}"


def _vm_steps(engine, version: str, sql: str, params: tuple) -> int:
    """SQLite VM steps of one statement, counted the way the benchmark's
    layer trace does: a progress handler firing on every instruction."""
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite")
    # A lone autocommit client runs on the primary: the handle that ran
    # the DDL.
    handle = engine.live_backend.connection
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        return 0

    handle.set_progress_handler(tick, 1)
    try:
        assert conn.execute(sql, params).rowcount == 1
    finally:
        handle.set_progress_handler(None, 1)
        conn.close()
    return steps


# The identifier SMOs' writes, in VM steps (the instrument above):
# ``R(a, w, b, c)`` -> ``S(a, w), T(b, c)`` over diagonal rows, the data at
# v1 or at v2, each write counted after one to the same table.
IDENTIFIER_KINDS = {"cond": "ON a = b", "fk": "ON FOREIGN KEY fk", "pk": "ON PK"}
IDENTIFIER_WRITES = {
    ("INSERT", "R"): ("v1", "INSERT INTO R(a, w, b, c) VALUES (?, ?, ?, ?)"),
    ("INSERT", "S"): ("v2", "INSERT INTO S(a, w) VALUES (?, ?)"),
    ("DELETE", "R"): ("v1", "DELETE FROM R WHERE a = ?"),
    ("DELETE", "S"): ("v2", "DELETE FROM S WHERE a = ?"),
}
# Item 13's bounds.  An INSERT at 1 000 rows costs at most 1.3 times its
# count at 100 rows, and at most 1.5 times emission stamp 11's count at 100
# rows (SQLite 3.40.1, below).  A DELETE costs at most twice the ``ON PK``
# one at the same rows and materialization.
STAMP_11_INSERTS_AT_100 = {
    ("cond", "R", "v1"): 11_067, ("cond", "S", "v1"): 140_510,
    ("cond", "R", "v2"): 54_216, ("cond", "S", "v2"): 691,
    ("fk", "R", "v1"): 847, ("fk", "S", "v1"): 264,
    ("fk", "R", "v2"): 1_252, ("fk", "S", "v2"): 144,
}
# The cells that miss them, each under the ROADMAP known defect naming it.
KNOWN_DEFECTS = {
    **{
        ("cond", op, table, at): "Condition-SMO writes cost whole extents"
        for op in ("INSERT", "DELETE") for table in "RS" for at in ("v1", "v2")
        if (op, table, at) != ("DELETE", "S", "v2")
    },
    ("fk", "INSERT", "R", "v2"): "An FK wide write creating a T row scans S",
}


def _identifier_cells():
    for kind in ("cond", "fk"):
        for op in ("INSERT", "DELETE"):
            for table in "RS":
                for at in ("v1", "v2"):
                    cell = (kind, op, table, at)
                    defect = KNOWN_DEFECTS.get(cell)
                    marks = [] if defect is None else [
                        pytest.mark.xfail(reason=f"ROADMAP known defect: {defect}")
                    ]
                    yield pytest.param(*cell, id="-".join(cell), marks=marks)


def _identifier_steps(kind: str, rows: int, at: str) -> dict:
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, w TEXT, b INTEGER, c INTEGER);"
    )
    backend = LiveSqliteBackend.attach(engine)
    conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
    conn.executemany(
        "INSERT INTO R(a, w, b, c) VALUES (?, ?, ?, ?)",
        [(i, f"w{i}", i, i) for i in range(rows)],
    )
    conn.close()
    engine.execute(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH "
        f"DECOMPOSE TABLE R INTO S(a, w), T(b, c) {IDENTIFIER_KINDS[kind]};"
    )
    if at == "v2":
        engine.execute("MATERIALIZE 'v2';")
    steps = {}
    try:
        for (op, table), (version, sql) in IDENTIFIER_WRITES.items():
            first = rows + 1000 if op == "INSERT" else 1 if table == "R" else 3
            for key in (first, first + 1):
                params = (key,) if op == "DELETE" else (key, f"w{key}", key, key)[: sql.count("?")]
                steps[op, table] = _vm_steps(engine, version, sql, params)
    finally:
        backend.close()
    return steps


@pytest.fixture(scope="module")
def identifier_steps():
    return {
        (kind, rows, at): _identifier_steps(kind, rows, at)
        for kind in IDENTIFIER_KINDS
        for rows in (100, 1000)
        for at in ("v1", "v2")
    }


@pytest.mark.parametrize("kind, op, table, at", list(_identifier_cells()))
def test_identifier_writes_scale(identifier_steps, kind, op, table, at):
    """A one-row write through an FK or condition SMO costs what its row
    touches, within item 13's bounds (``STAMP_11_INSERTS_AT_100``)."""
    steps = {rows: identifier_steps[kind, rows, at][op, table] for rows in (100, 1000)}
    pk = {rows: identifier_steps["pk", rows, at][op, table] for rows in (100, 1000)}
    cell = f"{SQLITE}: {kind} {op} {table}@{at}: {steps} VM steps by rows, ON PK {pk}"
    if op == "INSERT":
        assert steps[1000] <= 1.3 * steps[100], cell
        assert steps[1000] <= 1.5 * STAMP_11_INSERTS_AT_100[kind, table, at], cell
    else:
        assert all(steps[rows] <= 2 * pk[rows] for rows in (100, 1000)), cell


def test_an_fk_wide_insert_of_a_known_payload_leaves_its_t_row_alone():
    """With the narrow side stored, a wide INSERT whose payload ``T`` holds
    already reuses that row and does not write it again: a write would
    fire ``T``'s program, which looks up every ``S`` row referencing it."""
    steps = {}
    for rows in (100, 1000):
        engine = repro.InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, w TEXT, b INTEGER, c INTEGER);"
        )
        backend = LiveSqliteBackend.attach(engine)
        try:
            conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
            conn.executemany(
                "INSERT INTO R(a, w, b, c) VALUES (?, ?, ?, ?)",
                [(i, f"w{i}", i % 5, i % 5) for i in range(rows)],
            )
            conn.close()
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH "
                "DECOMPOSE TABLE R INTO S(a, w), T(b, c) ON FOREIGN KEY fk;"
            )
            engine.execute("MATERIALIZE 'v2';")
            for key in (rows, rows + 1):
                steps[rows] = _vm_steps(
                    engine, "v1", "INSERT INTO R(a, w, b, c) VALUES (?, ?, ?, ?)",
                    (key, f"w{key}", 3, 3),
                )
        finally:
            backend.close()
    assert steps[1000] <= 1.3 * steps[100], f"{SQLITE}: {steps} VM steps by rows"


def test_update_four_hops_away_costs_at_most_four_times_local(chain):
    # k = 28 lives in Even (grp 0) and in Lo (qty 2).
    local = _vm_steps(chain, "S4", "UPDATE Even SET memo = ? WHERE k = ?", ("a", 28))
    forward = _vm_steps(chain, "S8", "UPDATE Lo SET remark = ? WHERE k = ?", ("b", 28))
    backward = _vm_steps(chain, "S0", "UPDATE Item SET note = ? WHERE k = ?", ("c", 28))
    assert forward <= 4 * local and backward <= 4 * local, (
        f"{SQLITE}: local {local}, forward {forward}, backward {backward} VM steps"
    )


def _cascade_statements(engine, version: str, sql: str, params: tuple) -> int:
    """Statements SQLite traces for one UPDATE: itself plus every statement
    of the trigger programs it fires.  The benchmark's
    ``backend.trigger_invocations.*`` is this plus three on every pin
    (BEGIN IMMEDIATE, the count query, ROLLBACK)."""
    conn = repro.connect(engine, version, autocommit=True, backend="sqlite")
    session = conn._session
    traced: list[str] = []
    session.set_trace_callback(traced.append)
    try:
        assert conn.execute(sql, params).rowcount == 1
    finally:
        session.set_trace_callback(None)
        conn.close()
    # Every statement of the cascade is traced under the outer text.
    return sum(text.startswith("UPDATE") for text in traced)


def test_update_four_hops_away_runs_one_trigger_per_real_hop(chain):
    local = _cascade_statements(chain, "S4", "UPDATE Even SET memo = ? WHERE k = ?", ("d", 28))
    forward = _cascade_statements(chain, "S8", "UPDATE Lo SET remark = ? WHERE k = ?", ("e", 28))
    backward = _cascade_statements(chain, "S0", "UPDATE Item SET note = ? WHERE k = ?", ("f", 28))
    # A hop that only renames or recomputes columns is inlined into its
    # writer, UPDATE triggers included: only multi-statement programs
    # (ADD COLUMN's wide side, the partitions) still fire a trigger.
    assert local + 3 == 6 and forward + 3 <= 22 and backward + 3 <= 13, (
        f"{SQLITE}: local {local}, forward {forward}, backward {backward} statements"
    )


_FAULTS_PER_WRITE = """
import resource, sys
import repro
from repro.backend.sqlite import LiveSqliteBackend

engine = repro.InVerDa()
for script in sys.argv[1:]:
    engine.execute(script)
LiveSqliteBackend.attach(engine)
engine.execute("MATERIALIZE 'S4';")
pins = [
    (repro.connect(engine, version, autocommit=True, backend="sqlite"), table)
    for version, table in (("S8", "Lo"), ("S0", "Item"))
]

def writes(first):
    for k in range(first, first + 40):
        for conn, table in pins:
            conn.execute(f"INSERT INTO {table}(k, grp, qty) VALUES (?, 2, 4)", (k,))
            conn.execute(f"UPDATE {table} SET qty = 6 WHERE k = ?", (k,))
            conn.execute(f"DELETE FROM {table} WHERE k = ?", (k,))

writes(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
writes(40)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 240)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_write_four_hops_away_does_not_shrink_and_regrow_the_heap():
    # Every nested trigger statement allocates and frees an ephemeral
    # table's page cache; in a fresh process glibc would give that memory
    # back and fault it in again on each statement (30-100 faults).
    faults = float(
        subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_WRITE, *CHAIN],
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True, text=True, check=True,
        ).stdout
    )
    assert faults < 5, f"{faults:.0f} page faults per write"
