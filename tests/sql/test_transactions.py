"""Transaction semantics of the DB-API layer, on both engines.

A rollback must undo a write EVERYWHERE it propagated — in the version it
was written through and in every co-existing version that saw it via the
generated mapping logic.  Every test runs with several connections on
the memory engine, and again (the ``…OnSqlite`` classes at the end) on
the live SQLite backend — its default shared-cache database, READ
UNCOMMITTED like the memory engine.  The tests of the memory engine's
join semantics run on it alone.
"""

import pytest

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import ProgrammingError
from repro.workloads.tasky import build_tasky


@pytest.fixture
def scenario():
    return build_tasky(20, seed=3)


def counts(engine):
    """(TasKy.Task, Do!.Todo, TasKy2.Task, TasKy2.Author) row counts."""
    return tuple(
        repro.connect(engine, version, autocommit=True)
        .execute(f"SELECT * FROM {table}")
        .rowcount
        for version, table in [
            ("TasKy", "Task"),
            ("Do!", "Todo"),
            ("TasKy2", "Task"),
            ("TasKy2", "Author"),
        ]
    )


class TestImplicitTransactions:
    def test_write_starts_transaction(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        assert not conn.in_transaction
        conn.execute("INSERT INTO Task(author, task, prio) VALUES ('Zed', 'z', 1)")
        assert conn.in_transaction
        conn.commit()
        assert not conn.in_transaction

    def test_select_does_not_start_transaction(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        conn.execute("SELECT * FROM Task")
        assert not conn.in_transaction

    def test_uncommitted_writes_visible_across_versions(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        before = counts(scenario.engine)
        conn.execute("DELETE FROM Task")
        assert counts(scenario.engine)[:3] == (0, 0, 0)
        conn.rollback()
        assert counts(scenario.engine) == before


class TestRollbackAcrossVersions:
    def test_rollback_undoes_propagated_insert(self, scenario):
        before = counts(scenario.engine)
        conn = repro.connect(scenario.engine, "Do!")
        conn.execute("INSERT INTO Todo(author, task) VALUES (?, ?)", ("Zed", "Urgent"))
        tasky = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert (
            tasky.execute("SELECT * FROM Task WHERE task = 'Urgent'").rowcount == 1
        )
        conn.rollback()
        assert counts(scenario.engine) == before
        assert (
            tasky.execute("SELECT * FROM Task WHERE task = 'Urgent'").rowcount == 0
        )

    def test_rollback_undoes_propagated_update_under_any_materialization(self, scenario):
        for target in ("TasKy", "Do!", "TasKy2"):
            scenario.materialize(target)
            tasky2 = repro.connect(scenario.engine, "TasKy2", autocommit=True)
            baseline = tasky2.execute(
                "SELECT task, prio FROM Task ORDER BY task, prio"
            ).fetchall()
            conn = repro.connect(scenario.engine, "TasKy")
            conn.execute("UPDATE Task SET prio = 1")
            conn.rollback()
            after = tasky2.execute(
                "SELECT task, prio FROM Task ORDER BY task, prio"
            ).fetchall()
            assert after == baseline, target

    def test_commit_keeps_writes(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        conn.execute("INSERT INTO Task(author, task, prio) VALUES ('Kim', 'keep', 1)")
        conn.commit()
        conn.rollback()  # no transaction open: no-op
        do = repro.connect(scenario.engine, "Do!", autocommit=True)
        assert do.execute("SELECT * FROM Todo WHERE task = 'keep'").rowcount == 1


class TestWithBlocks:
    def test_with_commits_on_success(self, scenario):
        with repro.connect(scenario.engine, "TasKy") as conn:
            conn.execute("INSERT INTO Task(author, task, prio) VALUES ('W', 'w', 1)")
        assert not conn.in_transaction
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'W'").rowcount == 1

    def test_with_rolls_back_on_exception(self, scenario):
        before = counts(scenario.engine)
        with pytest.raises(RuntimeError):
            with repro.connect(scenario.engine, "TasKy") as conn:
                conn.execute("DELETE FROM Task")
                raise RuntimeError("boom")
        assert counts(scenario.engine) == before

    def test_nested_with_joins_outer_transaction(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        with conn:
            conn.execute("INSERT INTO Task(author, task, prio) VALUES ('NX1', 'a', 1)")
            with conn:  # inner block joins; its exit neither commits nor rolls back
                conn.execute("INSERT INTO Task(author, task, prio) VALUES ('NX2', 'b', 1)")
            assert conn.in_transaction  # still open after the inner block
            conn.execute("INSERT INTO Task(author, task, prio) VALUES ('NX3', 'c', 1)")
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert (
            check.execute("SELECT * FROM Task WHERE author LIKE 'NX%'").rowcount == 3
        )

    def test_nested_with_exception_rolls_back_everything(self, scenario):
        before = counts(scenario.engine)
        conn = repro.connect(scenario.engine, "TasKy")
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute("INSERT INTO Task(author, task, prio) VALUES ('N1', 'a', 1)")
                with conn:
                    conn.execute("DELETE FROM Task")
                    raise RuntimeError("inner failure")
        assert counts(scenario.engine) == before

    def test_joiner_rollback_after_owner_commit_is_inert(self, scenario):
        """Memory join semantics: a joined transaction ends with its
        owner's."""
        # The joiner's savepoint points into the OWNER's journal; once the
        # owner commits, that journal is gone and a later rollback by the
        # joiner must not touch anyone's newer writes.
        a = repro.connect(scenario.engine, "TasKy")
        b = repro.connect(scenario.engine, "TasKy")
        a.execute("INSERT INTO Task(author, task, prio) VALUES ('J1', 'a', 1)")
        b.execute("INSERT INTO Task(author, task, prio) VALUES ('J2', 'b', 1)")  # joins
        a.commit()
        a.execute("INSERT INTO Task(author, task, prio) VALUES ('J3', 'c', 1)")
        a.execute("INSERT INTO Task(author, task, prio) VALUES ('J4', 'd', 1)")
        b.rollback()  # its transaction ended with the owner's commit: no-op
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author LIKE 'J_'").rowcount == 4
        a.rollback()  # a's second transaction still rolls back normally
        assert check.execute("SELECT * FROM Task WHERE author LIKE 'J_'").rowcount == 2

    def test_autocommit_write_survives_foreign_rollback(self, scenario):
        """Memory join semantics: an autocommit write outside the open
        journal's transaction commits itself (SQLite instead fails it
        fast on the table lock)."""
        # An autocommit statement commits itself even when another
        # connection's transaction happens to hold the journal.
        txn = repro.connect(scenario.engine, "TasKy")
        txn.execute("INSERT INTO Task(author, task, prio) VALUES ('TX', 'tx', 1)")
        auto = repro.connect(scenario.engine, "TasKy", autocommit=True)
        auto.execute("INSERT INTO Task(author, task, prio) VALUES ('AC', 'ac', 1)")
        txn.rollback()
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'TX'").rowcount == 0
        assert check.execute("SELECT * FROM Task WHERE author = 'AC'").rowcount == 1

    def test_joined_connection_rolls_back_only_its_suffix(self, scenario):
        """Memory join semantics: a joiner's rollback undoes the shared
        journal's suffix since it joined."""
        a = repro.connect(scenario.engine, "TasKy")
        b = repro.connect(scenario.engine, "Do!")
        a.execute("INSERT INTO Task(author, task, prio) VALUES ('AA', 'a', 1)")
        b.execute("INSERT INTO Todo(author, task) VALUES ('BB', 'b')")  # joins a's txn
        b.rollback()
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'AA'").rowcount == 1
        assert check.execute("SELECT * FROM Task WHERE author = 'BB'").rowcount == 0
        a.commit()
        assert check.execute("SELECT * FROM Task WHERE author = 'AA'").rowcount == 1


class TestBatchAtomicity:
    def test_executemany_error_mid_batch_undoes_whole_batch(self, scenario):
        before = counts(scenario.engine)
        conn = repro.connect(scenario.engine, "TasKy", autocommit=True)
        rows = [("G1", "good", 1), ("G2", "good", 2), ("BAD",), ("G3", "good", 3)]
        with pytest.raises(ProgrammingError):
            conn.executemany(
                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", rows
            )
        assert counts(scenario.engine) == before
        assert conn.execute("SELECT * FROM Task WHERE task = 'good'").rowcount == 0

    def test_executemany_update_atomic(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy", autocommit=True)
        baseline = conn.execute("SELECT prio FROM Task ORDER BY rowid").fetchall()
        with pytest.raises(ProgrammingError):
            conn.executemany(
                "UPDATE Task SET prio = ? WHERE prio >= ?", [(0, 1), (1,)]
            )
        assert conn.execute("SELECT prio FROM Task ORDER BY rowid").fetchall() == baseline

    def test_insert_many_error_mid_batch_is_atomic(self, scenario):
        # A bulk insert is one batch: a schema violation halfway through
        # must leave nothing behind.
        conn = repro.connect(scenario.engine, "TasKy", autocommit=True)
        before = counts(scenario.engine)
        with pytest.raises(ProgrammingError):
            conn.executemany(
                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                [("H1", "h", 1), ("H2", "h", "not a number")],
            )
        assert counts(scenario.engine) == before

    def test_failed_statement_inside_transaction_keeps_prior_writes(self, scenario):
        conn = repro.connect(scenario.engine, "TasKy")
        conn.execute("INSERT INTO Task(author, task, prio) VALUES ('OK', 'ok', 1)")
        with pytest.raises(ProgrammingError):
            conn.executemany(
                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                [("P1", "p", 1), ("BAD",)],
            )
        # the failed batch is gone, the earlier write of the SAME txn stays
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'OK'").rowcount == 1
        assert check.execute("SELECT * FROM Task WHERE author = 'P1'").rowcount == 0
        conn.rollback()
        assert check.execute("SELECT * FROM Task WHERE author = 'OK'").rowcount == 0


class TestDdlCommitsTransactions:
    def test_ddl_implicitly_commits_foreign_transaction(self, scenario):
        # A journal carried across MATERIALIZE would reference physical
        # tables the swap drops; DDL therefore commits EVERY open
        # transaction, and a later rollback must be an inert no-op, not a
        # silent partial undo.
        txn = repro.connect(scenario.engine, "TasKy")
        txn.execute("INSERT INTO Task(author, task, prio) VALUES ('DD', 'dd', 1)")
        other = repro.connect(scenario.engine, "TasKy", autocommit=True)
        other.execute("MATERIALIZE 'TasKy2';")
        assert not txn.in_transaction
        txn.rollback()  # transaction was committed by the DDL: nothing to undo
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'DD'").rowcount == 1

    def test_engine_level_ddl_commits_open_transaction(self, scenario):
        # DDL run on the engine itself, not through any connection, ends
        # every transaction as well: a later rollback undoes nothing.
        txn = repro.connect(scenario.engine, "TasKy")
        txn.execute("INSERT INTO Task(author, task, prio) VALUES ('DD', 'dd', 1)")
        scenario.engine.execute(
            "CREATE SCHEMA VERSION TasKy3 FROM TasKy WITH "
            "ADD COLUMN done AS 0 INTO Task;"
        )
        assert not txn.in_transaction
        txn.rollback()
        check = repro.connect(scenario.engine, "TasKy", autocommit=True)
        assert check.execute("SELECT * FROM Task WHERE author = 'DD'").rowcount == 1


class TestCloseSemantics:
    def test_close_rolls_back_open_transaction(self, scenario):
        before = counts(scenario.engine)
        conn = repro.connect(scenario.engine, "TasKy")
        conn.execute("DELETE FROM Task")
        conn.close()
        assert counts(scenario.engine) == before

    def test_autocommit_with_block_still_transactional(self, scenario):
        before = counts(scenario.engine)
        conn = repro.connect(scenario.engine, "TasKy", autocommit=True)
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute("DELETE FROM Task")
                raise RuntimeError("abort")
        assert counts(scenario.engine) == before


class SqliteScenario:
    """Runs the inherited tests on the live SQLite backend: every
    connection defaults to the backend attached to the scenario's engine."""

    @pytest.fixture
    def scenario(self):
        scenario = build_tasky(20, seed=3)
        backend = LiveSqliteBackend.attach(scenario.engine)
        yield scenario
        backend.close()


class TestImplicitTransactionsOnSqlite(SqliteScenario, TestImplicitTransactions):
    pass


class TestRollbackAcrossVersionsOnSqlite(SqliteScenario, TestRollbackAcrossVersions):
    pass


class TestWithBlocksOnSqlite(SqliteScenario, TestWithBlocks):
    # The memory engine's join semantics; a SQLite transaction is its
    # session's own.
    test_joiner_rollback_after_owner_commit_is_inert = None
    test_autocommit_write_survives_foreign_rollback = None
    test_joined_connection_rolls_back_only_its_suffix = None


class TestBatchAtomicityOnSqlite(SqliteScenario, TestBatchAtomicity):
    pass


class TestDdlCommitsTransactionsOnSqlite(SqliteScenario, TestDdlCommitsTransactions):
    pass


class TestCloseSemanticsOnSqlite(SqliteScenario, TestCloseSemantics):
    pass
