"""Concurrent multi-session serving on the live backend.

Each SQL-layer connection leases its own pooled ``sqlite3`` session, so
many clients read and write co-existing schema versions at once.  These
tests drive the pool from multiple threads against a file-backed WAL
database (the serving configuration) and against the default shared-cache
in-memory database, and check that the interleaved outcome matches the
same workload applied sequentially to the pure-Python engine.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.backend.pool import SessionPool, shared_memory_uri
from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.errors import OperationalError
from repro.sql.connection import connect
from repro.workloads.tasky import build_tasky
from tests.testing.compare import assert_states_match, visible_state


def _run_threads(workers):
    errors = []

    def guard(fn):
        def run():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        return run

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "a worker thread did not finish"
    if errors:
        raise errors[0]


class TestSessionPool:
    def test_sessions_are_independent_handles(self):
        """Two open transactions hold distinct overflow handles; autocommit
        connections share the primary."""
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine)
        a = connect(engine, "v1", backend=backend)
        b = connect(engine, "v1", backend=backend)
        assert a._session is not b._session
        with a, b:
            held = {a._session._held, b._session._held}
            assert len(held) == 2 and backend.connection not in held
            assert backend.pool.leased == 2
        c = connect(engine, "v1", autocommit=True, backend=backend)
        d = connect(engine, "v1", autocommit=True, backend=backend)
        before = backend.pool.stats()["leases"]
        c.execute("SELECT * FROM R")
        d.execute("SELECT * FROM R")
        after = backend.pool.stats()["leases"]
        assert after == {**before, "primary": before["primary"] + 2}
        for conn in (a, b, c, d):
            conn.close()
        backend.close()

    def test_released_sessions_are_reused(self):
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine)
        conn = connect(engine, "v1", autocommit=True, backend=backend)
        with conn:
            handle = conn._session._held
        assert backend.pool.idle == 1 and backend.pool.leased == 0
        conn.close()
        again = connect(engine, "v1", autocommit=True, backend=backend)
        with again:
            assert again.execute("SELECT * FROM R").rowcount == 0
            assert again._session._held is handle
        again.close()
        backend.close()

    def test_release_rolls_back_open_transaction(self):
        pool = SessionPool(shared_memory_uri(), uri=True)
        keeper = pool.connect()  # keeps the shared-cache database alive
        keeper.execute("CREATE TABLE t (x)")
        handle = pool.acquire()
        handle.execute("BEGIN")
        handle.execute("INSERT INTO t VALUES (1)")
        pool.release(handle)
        reused = pool.acquire()
        assert reused is handle
        assert not reused.in_transaction
        assert reused.execute("SELECT COUNT(*) FROM t").fetchone() == (0,)
        pool.release(reused)
        pool.close()
        keeper.close()

    def test_max_sessions_cap_times_out(self):
        pool = SessionPool(
            shared_memory_uri(), uri=True, max_sessions=1, acquire_timeout=0.05
        )
        held = pool.acquire()
        with pytest.raises(OperationalError):
            pool.acquire()
        pool.release(held)
        second = pool.acquire()  # the released session satisfies the cap
        pool.release(second)
        pool.close()

    def test_pool_size_bounds_idle_retention(self):
        pool = SessionPool(shared_memory_uri(), uri=True, pool_size=1)
        first, second = pool.acquire(), pool.acquire()
        pool.release(first)
        pool.release(second)
        assert pool.idle == 1  # the overflow handle was closed, not cached
        pool.close()


class TestWalIsolation:
    def test_file_database_runs_wal(self, tmp_path):
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "r.db"))
        assert backend.connection.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        backend.close()

    def test_uncommitted_writes_invisible_across_wal_sessions(self, tmp_path):
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "r.db"))
        writer = connect(engine, "v1", backend=backend)
        reader = connect(engine, "v1", autocommit=True, backend=backend)
        writer.execute("INSERT INTO R(a) VALUES (1)")
        # Snapshot isolation: the reader's session sees committed state
        # only — and never blocks on the writer's open transaction.
        assert reader.execute("SELECT * FROM R").rowcount == 0
        writer.commit()
        assert reader.execute("SELECT * FROM R").rowcount == 1
        backend.close()

    def test_readers_proceed_while_writer_holds_transaction(self, tmp_path):
        scenario = build_tasky(100)
        backend = LiveSqliteBackend.attach(
            scenario.engine, database=str(tmp_path / "tasky.db")
        )
        writer = connect(scenario.engine, "TasKy", backend=backend)
        writer.execute("INSERT INTO Task(author, task, prio) VALUES ('W', 'w', 1)")

        def read(version, table):
            def run():
                conn = connect(
                    scenario.engine, version, autocommit=True, backend=backend
                )
                for _ in range(10):
                    assert conn.execute(f"SELECT * FROM {table}").rowcount == 100
                conn.close()

            return run

        _run_threads([read("TasKy", "Task"), read("TasKy2", "Task"), read("Do!", "Todo")][:2])
        writer.rollback()
        backend.close()


class TestConcurrentWorkload:
    @pytest.mark.parametrize("database", ["memory", "file"])
    def test_threaded_mixed_workload_matches_sequential_engine(
        self, tmp_path, database
    ):
        """N threads × mixed read/write across versions on the pooled
        backend == the same writes applied sequentially in memory."""
        num_threads, writes_each = 6, 12
        scenario = build_tasky(60, seed=11)
        target = (
            ":memory:" if database == "memory" else str(tmp_path / "stress.db")
        )
        backend = LiveSqliteBackend.attach(scenario.engine, database=target)
        reference = build_tasky(60, seed=11)

        versions = ["TasKy", "TasKy2", "Do!"]

        def with_write_retries(fn):
            # Shared-cache mode fails fast ("database table is locked")
            # when two sessions' writes collide; WAL queues on the busy
            # timeout instead.  Retrying is the shared-cache client's job.
            import time

            for _ in range(200):
                try:
                    return fn()
                except OperationalError as exc:
                    if "locked" not in str(exc):
                        raise
                    time.sleep(0.002)
            raise AssertionError("write never acquired the table lock")

        def rows_for(worker):
            return [
                (f"W{worker}", f"job {worker}-{i}", 1 + (worker + i) % 5)
                for i in range(writes_each)
            ]

        def worker(index):
            version = versions[index % 2]  # TasKy and TasKy2 accept inserts
            def run():
                conn = connect(
                    scenario.engine, version, autocommit=True, backend=backend
                )
                read = connect(
                    scenario.engine,
                    versions[(index + 1) % 3],
                    autocommit=True,
                    backend=backend,
                )
                for author, task, prio in rows_for(index):
                    if version == "TasKy":
                        with_write_retries(
                            lambda: conn.execute(
                                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                                (author, task, prio),
                            )
                        )
                    else:
                        def insert_decomposed():
                            fk = conn.execute(
                                "SELECT id FROM Author ORDER BY id LIMIT 1"
                            ).fetchone()[0]
                            conn.execute(
                                "INSERT INTO Task(task, prio, author) VALUES (?, ?, ?)",
                                (task, prio, fk),
                            )

                        with_write_retries(insert_decomposed)
                    with_write_retries(
                        lambda: read.execute(
                            f"SELECT * FROM {'Todo' if read.version_name == 'Do!' else 'Task'}"
                        ).fetchall()
                    )
                conn.close()
                read.close()

            return run

        _run_threads([worker(i) for i in range(num_threads)])

        # Replay the same inserts sequentially on the reference engine.
        for index in range(num_threads):
            version = versions[index % 2]
            conn = connect(reference.engine, version, autocommit=True)
            for author, task, prio in rows_for(index):
                if version == "TasKy":
                    conn.execute(
                        "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                        (author, task, prio),
                    )
                else:
                    fk = conn.execute(
                        "SELECT id FROM Author ORDER BY id LIMIT 1"
                    ).fetchone()[0]
                    conn.execute(
                        "INSERT INTO Task(task, prio, author) VALUES (?, ?, ?)",
                        (task, prio, fk),
                    )
        assert_states_match(
            reference.engine,
            visible_state(reference.engine),
            scenario.engine,
            visible_state(scenario.engine, backend),
        )
        backend.close()

    def test_concurrent_statements_during_catalog_transition(self, tmp_path):
        """DDL quiesces the pool and republishes delta code while reader
        threads keep issuing statements; nothing deadlocks or crashes."""
        scenario = build_tasky(50)
        backend = LiveSqliteBackend.attach(
            scenario.engine, database=str(tmp_path / "ddl.db")
        )
        stop = threading.Event()

        def churn():
            conn = connect(scenario.engine, "TasKy", autocommit=True, backend=backend)
            while not stop.is_set():
                conn.execute("SELECT * FROM Task").fetchall()
            conn.close()

        threads = [threading.Thread(target=churn) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            ddl = connect(scenario.engine, "TasKy", autocommit=True, backend=backend)
            ddl.execute("MATERIALIZE 'TasKy2';")
            ddl.execute(
                "CREATE SCHEMA VERSION zz FROM TasKy WITH RENAME TABLE Task INTO T2;"
            )
            ddl.close()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        zz = connect(scenario.engine, "zz", autocommit=True, backend=backend)
        assert zz.execute("SELECT * FROM T2").rowcount == 50
        backend.close()

    def test_cached_plans_survive_transitions_under_load(self, tmp_path):
        """Readers execute cached statements on surviving versions while
        one thread cycles leaf evolve / drop and another moves the data
        to v2 and back: no error, every result right, every repeat a
        cache hit, and no dropped leaf's plan left once its drop returns."""
        engine = InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a * 2 INTO R;"
        )
        backend = LiveSqliteBackend.attach(engine, database=str(tmp_path / "life.db"))
        seed = connect(engine, "v1", autocommit=True, backend=backend)
        seed.executemany(
            "INSERT INTO R(a, b) VALUES (?, ?)", [(i, f"r{i}") for i in range(20)]
        )
        seed.close()
        stop = threading.Event()

        def reader(version: str, sql: str, expected):
            def run():
                conn = connect(engine, version, autocommit=True, backend=backend)
                cursor = conn.execute(sql, (7,))
                assert cursor.fetchall() == expected
                while not stop.is_set():
                    cursor = conn.execute(sql, (7,))
                    assert cursor.cache_event == "hit"
                    assert cursor.fetchall() == expected
                conn.close()

            return run

        def leaf_cycles():
            conn = connect(engine, "v2", autocommit=True, backend=backend)
            sql = "SELECT z FROM R WHERE a = ?"
            for cycle in range(8):
                name = f"leaf{cycle}"
                conn.execute(
                    f"CREATE SCHEMA VERSION {name} FROM v2 WITH "
                    f"ADD COLUMN z AS a + {cycle} INTO R;"
                )
                leaf = connect(engine, name, autocommit=True, backend=backend)
                assert leaf.execute(sql, (7,)).fetchall() == [(7 + cycle,)]
                key = leaf._plan_key(sql)
                assert engine.plan_cache.peek(key) is not None
                conn.execute(f"DROP SCHEMA VERSION {name};")
                assert engine.plan_cache.peek(key) is None
                leaf.close()
            conn.close()

        def move_pair():
            conn = connect(engine, "v1", autocommit=True, backend=backend)
            conn.execute("MATERIALIZE 'v2';")
            conn.execute("MATERIALIZE 'v1';")
            conn.close()

        def transitions():
            try:
                _run_threads([leaf_cycles, move_pair])
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            _run_threads([
                reader("v1", "SELECT a, b FROM R WHERE a = ?", [(7, "r7")]),
                reader("v2", "SELECT a, c FROM R WHERE a = ?", [(7, 14)]),
                reader("v2", "SELECT b, c FROM R WHERE a = ?", [("r7", 14)]),
                transitions,
            ])
        finally:
            sys.setswitchinterval(interval)
            backend.close()

