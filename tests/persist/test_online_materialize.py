"""``MATERIALIZE``, offline and online: journaled backfill, crash-resume,
change capture.

A seeded crash at every fault point of the move — the online schedule's
prepare, chunk boundary and pre-cutover verification, and the cutover
points both schedules cross — must converge through ``repro.open()`` to
a state differentially identical to an engine that never crashed.  The
in-memory oracle side of :class:`DualSystem` has no live backend, so
``MATERIALIZE ONLINE`` is an offline move there; the visible contents of
every schema version are materialization-independent, which is exactly
what ``ds.check()`` asserts.
"""

from __future__ import annotations

import pytest

import repro
from repro.backend import online
from repro.backend.sqlite import LiveSqliteBackend
from repro.bidel.ast import Materialize
from repro.bidel.parser import parse_script
from repro.catalog.materialization import physical_table_versions
from repro.check.delta import verify_transitional_objects
from repro.errors import BackendError, CatalogError
from repro.persist.store import BACKFILL_TABLE
from repro.util.naming import physical_name
from tests.testing import DualSystem, InjectedFault, NestedEmissionBackend, one_shot

MOVE_FAULT_POINTS = [
    # Online only.  Raised before the prepare transaction commits: the
    # journal never lands, so recovery sees nothing and the move simply
    # never happened.
    "materialize-online:prepared",
    # Online only.  Raised before a chunk's transaction commits: the
    # journal carries the previous chunk's cursor and recovery resumes
    # from there.
    "materialize-online:chunk",
    # Online only.  Raised after tail copy + final repair, inside the
    # cutover transaction: everything rolls back to the last committed
    # chunk.
    "materialize-online:pre-cutover",
    # The cutover's own points, crossed by both schedules: an offline
    # move rolls back to before it started, an online one to its last
    # committed chunk.
    "materialize:staged",
    "materialize:swapped",
    "materialize:before-commit",
]

MOVES = {"online": "MATERIALIZE ONLINE 'v2';", "offline": "MATERIALIZE 'v2';"}


def crash_matrix():
    """(schedule, fault point) pairs: every point the schedule crosses."""
    for point in MOVE_FAULT_POINTS:
        yield pytest.param("online", point, id=point)
        if not point.startswith("materialize-online:"):
            yield pytest.param("offline", point, id=f"offline-{point}")


class OnlineDual(DualSystem):
    """DualSystem whose SQLite side pins a view emission (the product's
    composed one, or the nested reference) across reopens."""

    def __init__(self, database: str, backend_class=LiveSqliteBackend):
        super().__init__(database)
        self.backend_class = backend_class

    def attach(self) -> None:
        if self.backend is None:
            self.backend = self.backend_class.attach(
                self.sq, database=self.database
            )

    def reopen(self, **open_options) -> None:
        for conn in self._sq_conns.values():
            conn.close()
        self._sq_conns.clear()
        if self.backend is not None:
            self.backend.close()
        # repro.open() with the pinned backend class.
        self.sq = repro.InVerDa()
        self.backend = self.backend_class.attach(
            self.sq, database=self.database, **open_options
        )


def build(tmp_path, backend_class=LiveSqliteBackend) -> OnlineDual:
    ds = OnlineDual(str(tmp_path / "online.db"), backend_class)
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
    )
    ds.attach()
    ds.runmany(
        "v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i * 2) for i in range(40)]
    )
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;"
    )
    ds.check("built")
    return ds


def transitional_leftovers(backend) -> list[str]:
    rows = backend.connection.execute(
        "SELECT name FROM sqlite_master WHERE type IN ('table', 'trigger')"
    ).fetchall()
    return sorted(name for (name,) in rows if online.is_transitional(name))


def assert_clean(ds: OnlineDual, context: str) -> None:
    assert ds.backend.store.read_backfill() is None, (
        f"[{context}] backfill journal not cleared"
    )
    leftovers = transitional_leftovers(ds.backend)
    assert leftovers == [], f"[{context}] transitional leftovers: {leftovers}"


@pytest.mark.parametrize(
    "backend_class", [LiveSqliteBackend, NestedEmissionBackend], ids=["flat", "nested"]
)
class TestOnlineMove:
    def test_matches_offline_semantics(self, tmp_path, backend_class):
        ds = build(tmp_path, backend_class)
        try:
            ds.execute_ddl("MATERIALIZE ONLINE 'v2';")
            ds.check("moved")
            assert_clean(ds, "moved")
            # Writes on either version still propagate after the cutover.
            ds.run("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (100, 200))
            ds.run("v2", "DELETE FROM R WHERE a = ?", (0,))
            ds.check("written-after-move")
        finally:
            ds.close()

    @pytest.mark.parametrize("mode, point", crash_matrix())
    def test_crash_resumes_through_open(self, tmp_path, backend_class, mode, point):
        """The one crash matrix: schedule x fault point x emission."""
        ds = build(tmp_path, backend_class)
        try:
            ds.backend.fault_injector = one_shot(point)
            with pytest.raises(InjectedFault):
                ds.sq.execute(MOVES[mode])
            # Reopen: recovery either resumes the journaled move to
            # completion or (no journal committed — every offline crash)
            # finds nothing.  Both converge to a clean, fully serving
            # catalog.
            ds.reopen()
            assert_clean(ds, f"recovered-after-{point}")
            ds.check(f"recovered-after-{point}")
            ds.materialize("v2")
            ds.check(f"materialized-after-{point}")
            ds.run("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (500, 501))
            ds.run("v2", "DELETE FROM R WHERE a = ?", (1,))
            ds.check(f"written-after-{point}")
        finally:
            ds.close()


def crash_mid_backfill(ds: OnlineDual) -> None:
    """Drive the SQLite side into a torn move with a committed journal."""
    ds.backend.fault_injector = one_shot("materialize-online:pre-cutover")
    with pytest.raises(InjectedFault):
        ds.sq.execute("MATERIALIZE ONLINE 'v2';")


class TestResumePolicy:
    def test_resume_false_rolls_back(self, tmp_path):
        ds = build(tmp_path)
        try:
            before = {
                smo.uid
                for smo in ds.sq.genealogy.evolution_smos()
                if smo.materialized
            }
            crash_mid_backfill(ds)
            ds.reopen(resume_backfill=False)
            assert_clean(ds, "rolled-back")
            after = {
                smo.uid
                for smo in ds.sq.genealogy.evolution_smos()
                if smo.materialized
            }
            assert after == before, "rollback must not change the materialization"
            ds.check("rolled-back")
            # The move can be retried from scratch and now completes.
            ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            ds.mem.execute("MATERIALIZE 'v2';")
            ds.check("retried")
            assert_clean(ds, "retried")
        finally:
            ds.close()

    def test_resume_none_leaves_move_untouched(self, tmp_path):
        ds = build(tmp_path)
        try:
            crash_mid_backfill(ds)
            # Static inspection: the journal and every transitional
            # object survive the open untouched...
            ds.reopen(resume_backfill=None)
            record = ds.backend.store.read_backfill()
            assert record is not None and record.phase == "backfill"
            assert transitional_leftovers(ds.backend) != []
            # ...and RPC107 accepts exactly the objects the plan names.
            findings = verify_transitional_objects(
                ds.backend.connection, ds.backend.store
            )
            assert findings == [], [f.message for f in findings]
            # A later default open resumes the journaled move to the end.
            ds.reopen()
            assert_clean(ds, "resumed")
            assert any(
                smo.materialized for smo in ds.sq.genealogy.evolution_smos()
            ), "resumed move did not cut over to v2"
            ds.check("resumed")
        finally:
            ds.close()

    def test_stale_journal_is_rolled_back(self, tmp_path):
        ds = build(tmp_path)
        try:
            crash_mid_backfill(ds)
            # Open without touching the move, then evolve: the catalog
            # generation advances past the journal's, making it stale.
            ds.reopen(resume_backfill=None)
            ds.execute_ddl(
                "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO d;"
            )
            ds.reopen()
            assert_clean(ds, "stale-rolled-back")
            ds.check("stale-rolled-back")
        finally:
            ds.close()


AFTER_A_FAILED_CUTOVER = {
    "retry-online": lambda ds: (
        ds.sq.execute("MATERIALIZE ONLINE 'v2';"),
        ds.mem.execute("MATERIALIZE 'v2';"),
    ),
    "evolve": lambda ds: ds.execute_ddl(
        "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO d;"
    ),
    "offline-v1": lambda ds: ds.materialize("v1"),
}


class TestFailedCutoverInProcess:
    """An online cutover that fails while the process lives on leaves its
    prepare (journal, capture triggers, staging tables) committed, for a
    reopen to resume.  The process itself must not be wedged by it, and
    the next transition must roll it back instead of committing over it."""

    # Before and after the engine's own layout flip inside the cutover.
    @pytest.mark.parametrize("point", ["materialize:staged", "materialize:before-commit"])
    @pytest.mark.parametrize("transition", sorted(AFTER_A_FAILED_CUTOVER))
    def test_next_transition_supersedes_the_move(self, tmp_path, transition, point):
        from repro.check.__main__ import run as check_cli

        ds = build(tmp_path)
        try:
            generation = ds.sq.catalog_generation
            ds.backend.fault_injector = one_shot(point)
            with pytest.raises(InjectedFault):
                ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            assert ds.sq.catalog_generation == generation
            assert not any(smo.materialized for smo in ds.sq.genealogy.evolution_smos())
            ds.backend.fault_injector = None
            AFTER_A_FAILED_CUTOVER[transition](ds)
            assert_clean(ds, transition)
            findings = verify_transitional_objects(
                ds.backend.connection, ds.backend.store
            )
            assert findings == [], [f.message for f in findings]
            ds.check(transition)
            ds.run("v1", "INSERT INTO R(a, b) VALUES (?, ?)", (700, 701))
            ds.check(f"written-after-{transition}")
        finally:
            ds.close()
        assert check_cli(["--db", ds.database]) == 0


class TestChangeCapture:
    def test_live_writes_between_chunks_are_captured(self, tmp_path):
        """White-box: drive the chunk loop by hand, interleaving writes.

        Every write landing between two chunk commits must be repaired
        into the staging tables before the cutover swaps them in.
        """
        database = str(tmp_path / "capture.db")
        engine = repro.InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
        )
        backend = LiveSqliteBackend.attach(engine, database=database)
        try:
            conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
            conn.executemany(
                "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i) for i in range(400)]
            )
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;"
            )
            schema = engine.resolve_materialization(["v2"])
            move = backend.prepare_move(schema, chunk_rows=60)
            round_no = 0
            while True:
                done = backend.copy_chunk(move)
                # Dirty the already-copied prefix *and* the tail, both of
                # which the per-chunk repair and cutover must reconcile.
                conn.execute(
                    "UPDATE R SET b = b + 1000 WHERE a = ?", (round_no,)
                )
                conn.execute("DELETE FROM R WHERE a = ?", (round_no + 200,))
                conn.execute(
                    "INSERT INTO R(a, b) VALUES (?, ?)",
                    (1000 + round_no, round_no),
                )
                round_no += 1
                if done:
                    break
            expected = sorted(
                conn.execute("SELECT a, b FROM R").fetchall()
            )
            engine._cut_over(schema, move)
            assert sorted(conn.execute("SELECT a, b FROM R").fetchall()) == expected
            # The progress lives in ``move`` alone: the backend keeps none.
            assert not any(
                isinstance(value, online.Move) for value in vars(backend).values()
            ), "progress must reset after cutover"
            assert backend.store.read_backfill() is None
            assert transitional_leftovers(backend) == []
            conn.close()
        finally:
            backend.close()

    def test_nontrackable_decompose_moves_online(self, tmp_path):
        """A DECOMPOSE target has shared auxiliary state, so its stages
        cannot be chunk-copied; the online path must still move it
        correctly by staging it whole at cutover."""
        ds = OnlineDual(str(tmp_path / "decompose.db"))
        try:
            ds.execute_ddl(
                "CREATE SCHEMA VERSION v1 WITH "
                "CREATE TABLE task(name TEXT, prio INTEGER, author TEXT);"
            )
            ds.attach()
            ds.runmany(
                "v1",
                "INSERT INTO task(name, prio, author) VALUES (?, ?, ?)",
                [(f"t{i}", i % 3, f"a{i % 5}") for i in range(30)],
            )
            ds.execute_ddl(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH "
                "DECOMPOSE TABLE task INTO task(name, prio), author(author) "
                "ON FOREIGN KEY author;"
            )
            ds.backend.fault_injector = one_shot("materialize:staged")
            with pytest.raises(InjectedFault):
                ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            ds.reopen()
            assert_clean(ds, "decompose-recovered")
            ds.check("decompose-recovered")
            ds.run("v2", "INSERT INTO task(name, prio) VALUES (?, ?)", ("new", 9))
            ds.check("decompose-written")
        finally:
            ds.close()


class TestGuardsAndDiagnostics:
    def test_ddl_is_fenced_while_backfill_runs(self, tmp_path):
        ds = build(tmp_path)
        try:
            # The engine raises CatalogError for catalog transitions that
            # would race an in-flight backfill; the flag is set under the
            # write lock by an online materialize and cleared after cutover.
            ds.sq._online_materialize_active = True
            with pytest.raises(CatalogError, match="backfill is in flight"):
                ds.sq.execute(
                    "CREATE SCHEMA VERSION v3 FROM v2 WITH DROP COLUMN c FROM R DEFAULT 0;"
                )
            ds.sq._online_materialize_active = False
            ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            ds.mem.execute("MATERIALIZE 'v2';")
            ds.check("after-fence")
        finally:
            ds.close()

    def test_rpc107_flags_orphaned_transitional_objects(self, tmp_path):
        ds = build(tmp_path)
        try:
            crash_mid_backfill(ds)
            ds.reopen(resume_backfill=None)
            # Tear out the journal row behind the verifier's back: every
            # staging table and capture trigger is now an orphan.
            ds.backend.connection.execute(f"DELETE FROM {BACKFILL_TABLE}")
            ds.backend.connection.commit()
            findings = verify_transitional_objects(
                ds.backend.connection, ds.backend.store
            )
            assert findings, "orphaned transitional objects must be flagged"
            assert {f.code for f in findings} == {"RPC107"}
            assert all(f.severity == "error" for f in findings)
        finally:
            ds.close()

    def test_memory_engine_falls_back_to_offline(self):
        engine = repro.InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);\n"
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a INTO R;\n"
            "MATERIALIZE ONLINE 'v2';"
        )
        assert any(
            smo.materialized for smo in engine.genealogy.evolution_smos()
        )


def build_two_tables(tmp_path, name: str = "two.db") -> OnlineDual:
    """``R`` gains a column at v2; ``S`` is the same table version at v1
    and v2, so it is physical before and after ``MATERIALIZE 'v2'``."""
    ds = OnlineDual(str(tmp_path / name))
    ds.execute_ddl(
        "CREATE SCHEMA VERSION v1 WITH "
        "CREATE TABLE R(a INTEGER, b INTEGER); CREATE TABLE S(x INTEGER);"
    )
    ds.attach()
    ds.runmany(
        "v1", "INSERT INTO R(a, b) VALUES (?, ?)", [(i, i * 2) for i in range(40)]
    )
    ds.runmany("v1", "INSERT INTO S(x) VALUES (?)", [(i,) for i in range(30)])
    ds.execute_ddl("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + b INTO R;")
    return ds


def plan_every_physical_table(real_build_plan):
    """``online.build_plan`` as releases before moves stayed in place
    planned: every table version physical after the move, those physical
    already included — each of them trackable."""

    def build_plan(engine, schema):
        plan = real_build_plan(engine, schema)
        for tv in physical_table_versions(engine.genealogy, schema):
            if engine.database.has_table(tv.data_table_name):
                plan.tables.append(online.TableMove(
                    uid=tv.uid,
                    name=tv.name,
                    data=tv.data_table_name,
                    stage=physical_name(
                        online.TRANSITIONAL_PREFIX, str(tv.uid), tv.name
                    ),
                    view=tv.view_name,
                    columns=list(tv.schema.column_names),
                    trackable=True,
                ))
                plan.sources = sorted({*plan.sources, tv.data_table_name})
        return plan

    return build_plan


def stored(backend) -> dict:
    """Every data and aux table of the file, with its rows."""
    names = [
        name for name in backend.table_names() if name.startswith(("d__", "aux__"))
    ]
    return {
        name: backend.execute(f"SELECT * FROM {name} ORDER BY p").fetchall()
        for name in names
    }


def file_state(backend) -> tuple:
    """Every schema object of the file and every table's rows, but for an
    online prepare's (journal and transitional objects)."""
    objects = [
        (kind, name, sql)
        for kind, name, sql in backend.execute(
            "SELECT type, name, sql FROM sqlite_master ORDER BY type, name"
        )
        if not online.is_transitional(name) and name != BACKFILL_TABLE
    ]
    rows = {
        name: sorted(backend.execute(f'SELECT * FROM "{name}"').fetchall(), key=repr)
        for kind, name, _sql in objects
        if kind == "table"
    }
    return objects, rows


class TestMoveInPlace:
    """A move stages under final names and leaves a table that stays
    physical where it is; a journal whose plan still lists such a table
    (as earlier releases wrote it) converges all the same."""

    @pytest.mark.parametrize("resume", [True, False], ids=["resume", "roll-back"])
    def test_a_journal_planning_a_table_that_stays_physical(
        self, tmp_path, monkeypatch, resume
    ):
        from repro.check.__main__ import run as check_cli

        reference = build_two_tables(tmp_path, "reference.db")
        try:
            before = stored(reference.backend)
            reference.execute_ddl("MATERIALIZE ONLINE 'v2';")
            moved = stored(reference.backend)
        finally:
            reference.close()
        assert before["d__1__S"] == moved["d__1__S"]

        ds = build_two_tables(tmp_path)
        try:
            monkeypatch.setattr(
                online, "build_plan", plan_every_physical_table(online.build_plan)
            )
            crash_mid_backfill(ds)
            monkeypatch.undo()
            record = ds.backend.store.read_backfill()
            planned = online.plan_from_payload(record.plan)
            assert [t.data for t in planned.trackable()] == ["d__2__R", "d__1__S"]
            assert "d__1__S" in planned.sources

            ds.reopen(resume_backfill=resume)
            assert_clean(ds, "converged")
            findings = verify_transitional_objects(
                ds.backend.connection, ds.backend.store
            )
            assert findings == [], [f.message for f in findings]
            assert stored(ds.backend) == (moved if resume else before)
            assert any(
                smo.materialized for smo in ds.sq.genealogy.evolution_smos()
            ) is resume
            if resume:
                ds.mem.execute("MATERIALIZE 'v2';")
            ds.check("converged")
            ds.run("v2", "INSERT INTO S(x) VALUES (?)", (100,))
            ds.run("v2", "DELETE FROM R WHERE a = ?", (3,))
            ds.check("written-after")
        finally:
            ds.close()
        assert check_cli(["--db", ds.database]) == 0

    @pytest.mark.parametrize(
        "statement", ["MATERIALIZE 'v2';", "MATERIALIZE ONLINE 'v2';"]
    )
    def test_a_plan_naming_a_live_table_is_refused(
        self, tmp_path, monkeypatch, statement
    ):
        """Final-name staging creates each table with a plain ``CREATE
        TABLE``: a plan that would stage over the live ``S`` fails the
        cutover and rolls back instead of replacing it."""
        ds = build_two_tables(tmp_path)
        try:

            def build_plan(engine, schema):
                plan = plan_every_physical_table(real_build_plan)(engine, schema)
                for table in plan.tables:
                    table.trackable = table.data != "d__1__S"
                return plan

            real_build_plan = online.build_plan
            generation = ds.sq.catalog_generation
            fingerprint = ds.sq.catalog_fingerprint()
            state = file_state(ds.backend)
            monkeypatch.setattr(online, "build_plan", build_plan)
            with pytest.raises(BackendError, match="already exists"):
                ds.sq.execute(statement)
            monkeypatch.undo()
            assert ds.sq.catalog_generation == generation
            assert ds.sq.catalog_fingerprint() == fingerprint
            assert not any(smo.materialized for smo in ds.sq.genealogy.evolution_smos())
            # An online prepare committed before its cutover failed (the
            # journal is resumable); the next move supersedes it.
            assert file_state(ds.backend) == state
            ds.check("refused")
            ds.materialize("v2")
            ds.check("moved")
            assert_clean(ds, "moved")
        finally:
            ds.close()


class TestCutoverHook:
    """``engine.online_cutover_hook`` wraps exactly the cutover window:
    at entry the backfill is complete but the move has not applied; after
    the wrapped body the target is materialized.  Callers use it to
    serialize external state (the soak harness orders its differential
    oplog with it — MATERIALIZE freezes derived-column payloads, so its
    position relative to concurrent writes is semantically significant)."""

    def test_hook_wraps_online_cutover(self, tmp_path):
        from contextlib import contextmanager

        ds = build(tmp_path)
        try:
            events = []

            def materialized() -> bool:
                return any(
                    smo.materialized for smo in ds.sq.genealogy.evolution_smos()
                )

            @contextmanager
            def hook():
                events.append(("enter", materialized()))
                yield
                events.append(("exit", materialized()))

            ds.sq.online_cutover_hook = hook
            ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            assert events == [("enter", False), ("exit", True)]
            ds.check("moved-under-hook")
            assert_clean(ds, "moved-under-hook")
        finally:
            ds.close()

    def test_offline_move_never_enters_the_hook(self, tmp_path):
        ds = build(tmp_path)
        try:
            def hook():
                raise AssertionError("offline MATERIALIZE must not use the hook")

            ds.sq.online_cutover_hook = hook
            ds.sq.execute("MATERIALIZE 'v2';")
            ds.check("offline-no-hook")
        finally:
            ds.close()

    def test_cutover_fault_propagates_through_the_hook(self, tmp_path):
        from contextlib import contextmanager

        ds = build(tmp_path)
        try:
            entered = []

            @contextmanager
            def hook():
                entered.append(True)
                yield  # the fault below is raised inside this body

            ds.sq.online_cutover_hook = hook
            ds.backend.fault_injector = one_shot("materialize:staged")
            with pytest.raises(InjectedFault):
                ds.sq.execute("MATERIALIZE ONLINE 'v2';")
            assert entered == [True]
            ds.reopen()
            assert_clean(ds, "recovered-through-hook")
            ds.check("recovered-through-hook")
        finally:
            ds.close()


class TestParsing:
    def test_online_roundtrip(self):
        (stmt,) = parse_script("MATERIALIZE ONLINE 'v2';")
        assert isinstance(stmt, Materialize)
        assert stmt.online and stmt.targets == ("v2",)
        assert stmt.unparse() == "MATERIALIZE ONLINE 'v2';"
        (again,) = parse_script(stmt.unparse())
        assert again == stmt

    def test_offline_unchanged(self):
        (stmt,) = parse_script("MATERIALIZE 'v2';")
        assert not stmt.online
        assert stmt.unparse() == "MATERIALIZE 'v2';"
