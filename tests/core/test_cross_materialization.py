"""The paper's central claim as an executable property: running the same
operation sequence under different materialization schemas yields identical
visible states in every schema version (logical data independence)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog.materialization import enumerate_valid_materializations
from tests.conftest import build_paper_tasky, keyed, rows

AUTHORS = ["Ann", "Ben", "Cara"]
TASKS = ["alpha", "beta", "gamma", "delta"]


def visible_state(scenario):
    """Canonical visible contents of every version.

    Generated identifiers (the Author ids and the hidden tuple ids) are
    implementation-chosen and may differ between propagation paths, so the
    state is compared as content: TasKy2's foreign keys are resolved to
    author names and rows are order-normalized multisets.
    """
    engine = scenario.engine
    by_id = {a["id"]: a["name"] for a in rows(engine, "TasKy2", "SELECT * FROM Author")}
    return {
        "TasKy": sorted(
            (r["author"], r["task"], r["prio"])
            for r in rows(engine, "TasKy", "SELECT * FROM Task")
        ),
        "Do!": sorted(
            (r["author"], r["task"]) for r in rows(engine, "Do!", "SELECT * FROM Todo")
        ),
        "TasKy2.Task": sorted(
            (r["task"], r["prio"], by_id.get(r["author"]))
            for r in rows(engine, "TasKy2", "SELECT * FROM Task")
        ),
        "TasKy2.Author": sorted(by_id.values()),
    }


def apply_operation(scenario, op, rng):
    kind = op[0]
    tasky, do, tasky2 = (scenario.connect(v) for v in ("TasKy", "Do!", "TasKy2"))
    if kind == "insert_tasky":
        tasky.execute("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", op[1:])
    elif kind == "insert_do":
        do.execute("INSERT INTO Todo(author, task) VALUES (?, ?)", op[1:])
    elif kind == "update_prio":
        tasky.execute("UPDATE Task SET prio = ? WHERE task LIKE ?", (op[2], f"%{op[1]}%"))
    elif kind == "update_author_via_tasky2":
        tasky2.execute("UPDATE Author SET name = ? WHERE name = ?", (op[1] + "X", op[1]))
    elif kind == "delete_by_task":
        tasky.execute("DELETE FROM Task WHERE task LIKE ?", (f"%{op[1]}%",))
    elif kind == "delete_via_do":
        do.execute("DELETE FROM Todo WHERE task LIKE ?", (f"%{op[1]}%",))


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert_tasky"),
            st.sampled_from(AUTHORS),
            st.sampled_from(TASKS),
            st.integers(1, 3),
        ),
        st.tuples(st.just("insert_do"), st.sampled_from(AUTHORS), st.sampled_from(TASKS)),
        st.tuples(st.just("update_prio"), st.sampled_from(TASKS), st.integers(1, 3)),
        st.tuples(st.just("update_author_via_tasky2"), st.sampled_from(AUTHORS)),
        st.tuples(st.just("delete_by_task"), st.sampled_from(TASKS)),
        st.tuples(st.just("delete_via_do"), st.sampled_from(TASKS)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_same_ops_same_visible_state_under_all_materializations(ops):
    rng = random.Random(0)
    reference = None
    for target in ["TasKy", "Do!", "TasKy2"]:
        scenario = build_paper_tasky()
        scenario.materialize(target)
        for op in ops:
            apply_operation(scenario, op, rng)
        state = visible_state(scenario)
        if reference is None:
            reference = (target, state)
        else:
            assert state == reference[1], (
                f"visible state under {target} differs from {reference[0]} "
                f"after {ops}"
            )


@pytest.mark.parametrize("seed", range(5))
def test_interleaved_writes_and_migrations(seed):
    """Writes interleaved with migrations preserve all visible states."""
    rng = random.Random(seed)
    scenario = build_paper_tasky()
    shadow = build_paper_tasky()  # never migrated
    targets = ["TasKy2", "Do!", "TasKy"]
    for step in range(6):
        op = rng.choice(["insert", "update", "delete", "migrate"])
        if op == "migrate":
            scenario.materialize(rng.choice(targets))
            continue
        author = rng.choice(AUTHORS)
        task = f"{rng.choice(TASKS)}-{step}"
        if op == "insert":
            prio = rng.randint(1, 3)
            for s in (scenario, shadow):
                s.connect("TasKy").execute(
                    "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                    (author, task, prio),
                )
        elif op == "update":
            victim = rng.choice(TASKS)
            for s in (scenario, shadow):
                s.connect("TasKy").execute(
                    "UPDATE Task SET prio = 2 WHERE task LIKE ?", (f"{victim}%",)
                )
        else:
            victim = rng.choice(TASKS + ["Organize party"])
            for s in (scenario, shadow):
                s.connect("TasKy").execute("DELETE FROM Task WHERE task LIKE ?", (f"{victim}%",))
    assert visible_state(scenario) == visible_state(shadow)


def test_all_five_materializations_preserve_state():
    scenario = build_paper_tasky()
    baseline = visible_state(scenario)
    genealogy = scenario.engine.genealogy
    for schema in enumerate_valid_materializations(genealogy):
        scenario.engine.apply_materialization(schema)
        assert visible_state(scenario) == baseline, schema


#: Partition writes whose outcome must not depend on the stored side: (v1's
#: tables, v2's SMO, the writes, the table read).  Both engines agree, so no
#: differential sees a case that fails here.
MATERIALIZATION_DEPENDENT = [
    pytest.param(
        "CREATE TABLE R(a INTEGER, b INTEGER); CREATE TABLE S(a INTEGER, b INTEGER);",
        "MERGE TABLE R (b = 0), S (b = 1) INTO U",
        [("v1", "INSERT INTO R VALUES (7, 4)"), ("v1", "DELETE FROM R WHERE a = 7")],
        ("v2", "U"),
        id="merge_keeps_a_deleted_row",
    ),
    pytest.param(
        "CREATE TABLE U(a INTEGER, b INTEGER);",
        "SPLIT TABLE U INTO P WITH b = 0, Q WITH b = 1",
        [("v2", "INSERT INTO P VALUES (7, 4)"), ("v1", "UPDATE U SET a = 8")],
        ("v2", "P"),
        marks=pytest.mark.xfail(
            reason="ROADMAP known defect: A unified write drops a partition row off its condition",
            strict=True,
        ),
        id="split_drops_an_updated_row",
    ),
]


@pytest.mark.parametrize("tables,smo,writes,read", MATERIALIZATION_DEPENDENT)
def test_partition_writes_show_alike_under_either_materialization(tables, smo, writes, read):
    shown = []
    for stored in ("v1", "v2"):
        engine = repro.InVerDa()
        engine.execute(
            f"CREATE SCHEMA VERSION v1 WITH {tables} CREATE SCHEMA VERSION v2 FROM v1 WITH {smo};"
            f" MATERIALIZE '{stored}';"
        )
        for version, sql in writes:
            repro.connect(engine, version, autocommit=True).execute(sql)
        shown.append(sorted(keyed(engine, *read).values()))
    assert shown[0] == shown[1]
