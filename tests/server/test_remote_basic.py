"""The remote transport's PEP-249 surface: binding, paging, pipelining."""

import pytest

import repro
from repro.errors import InterfaceError, OperationalError, ProgrammingError
from repro.server.client import connect_remote
from repro.server.server import ReproServer


def remote(server, version=None, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    return connect_remote(*server.address, version, **kwargs)


class TestHello:
    def test_bind_and_read(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        assert conn.version_name == "TasKy"
        assert conn.backend_name == "memory"
        local = repro.connect(scenario.engine, "TasKy", autocommit=True)
        sql = "SELECT author, task, prio FROM Task ORDER BY rowid"
        assert conn.execute(sql).fetchall() == local.execute(sql).fetchall()
        conn.close()

    def test_unknown_version_is_interface_error(self, tasky_server):
        _, server = tasky_server
        with pytest.raises(InterfaceError, match="Nope"):
            remote(server, "Nope")

    def test_version_optional_when_single(self):
        db = repro.InVerDa()
        db.execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a TEXT);")
        with ReproServer(db) as server:
            conn = remote(server)
            assert conn.version_name == "V1"
            conn.close()

    def test_version_required_when_ambiguous(self, tasky_server):
        _, server = tasky_server
        with pytest.raises(InterfaceError, match="version="):
            remote(server)

    def test_unreachable_server(self):
        with pytest.raises(OperationalError, match="cannot reach"):
            connect_remote("127.0.0.1", 1, "TasKy", timeout=0.5)

    def test_description_matches_local(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        local = repro.connect(scenario.engine, "TasKy", autocommit=True)
        sql = "SELECT author, prio FROM Task"
        assert conn.execute(sql).description == local.execute(sql).description
        conn.close()


class TestParameterBinding:
    def test_qmark_binding(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        conn.execute(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("Zed", "zz", 9)
        )
        rows = conn.execute(
            "SELECT task FROM Task WHERE author = ? AND prio = ?", ("Zed", 9)
        ).fetchall()
        assert rows == [("zz",)]
        conn.close()

    def test_wrong_parameter_count_raises_remotely(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        with pytest.raises(ProgrammingError, match="parameter"):
            conn.execute("SELECT * FROM Task WHERE prio = ?", (1, 2))
        conn.close()

    def test_string_params_rejected_client_side(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        with pytest.raises(ProgrammingError, match="sequence"):
            conn.execute("SELECT * FROM Task WHERE author = ?", "Ann")
        conn.close()

    def test_executemany_single_round_trip(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        cur = conn.executemany(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            [("B1", "b", 1), ("B2", "b", 2), ("B3", "b", 3)],
        )
        assert cur.rowcount == 3
        assert conn.execute("SELECT * FROM Task WHERE task = 'b'").rowcount == 3
        conn.close()


class TestPaging:
    def test_fetch_across_pages(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=3)
        local = repro.connect(scenario.engine, "TasKy", autocommit=True)
        sql = "SELECT author, task, prio FROM Task ORDER BY rowid"
        expected = local.execute(sql).fetchall()
        assert len(expected) == 20

        cur = conn.execute(sql)
        assert cur.fetchone() == expected[0]
        assert cur.fetchmany(5) == expected[1:6]  # spans page boundaries
        assert cur.fetchall() == expected[6:]
        assert cur.fetchone() is None
        conn.close()

    def test_iteration_across_pages(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=2)
        sql = "SELECT task FROM Task ORDER BY rowid"
        assert list(conn.execute(sql)) == repro.connect(
            scenario.engine, "TasKy", autocommit=True
        ).execute(sql).fetchall()
        conn.close()

    def test_fetchmany_default_arraysize(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=4)
        cur = conn.execute("SELECT * FROM Task")
        assert len(cur.fetchmany()) == 1  # PEP 249 default arraysize
        cur.arraysize = 7
        assert len(cur.fetchmany()) == 7
        conn.close()

    def test_new_execute_discards_unfinished_statement(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=2)
        cur = conn.cursor()
        cur.execute("SELECT * FROM Task")  # leaves rows server-side
        cur.execute("SELECT * FROM Task WHERE prio = 1")
        assert cur.fetchall() == cur.execute("SELECT * FROM Task WHERE prio = 1").fetchall()
        conn.close()

    def test_open_statement_cap(self, tasky_server):
        from repro.server.server import MAX_OPEN_STATEMENTS

        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=1)
        cursors = [conn.cursor() for _ in range(MAX_OPEN_STATEMENTS)]
        for cur in cursors:
            cur.execute("SELECT * FROM Task")  # each holds a paged statement
        with pytest.raises(OperationalError, match="open statements"):
            conn.cursor().execute("SELECT * FROM Task")
        # draining one frees a slot
        cursors[0].fetchall()
        conn.cursor().execute("SELECT * FROM Task").fetchall()
        conn.close()


class TestPipelining:
    def test_batch_executes_in_order(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        cursors = conn.pipeline(
            [
                ("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("P", "p1", 1)),
                ("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("P", "p2", 2)),
                ("SELECT task FROM Task WHERE author = ? ORDER BY prio", ("P",)),
            ]
        )
        assert [c.rowcount for c in cursors[:2]] == [1, 1]
        assert cursors[2].fetchall() == [("p1",), ("p2",)]
        conn.close()

    def test_error_mid_batch_still_runs_the_rest(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        with pytest.raises(ProgrammingError, match="Nope"):
            conn.pipeline(
                [
                    ("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("Q", "q1", 1)),
                    "SELECT * FROM Nope",
                    ("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("Q", "q2", 1)),
                ]
            )
        # statements before AND after the failing one took effect
        assert conn.execute("SELECT * FROM Task WHERE author = 'Q'").rowcount == 2
        conn.close()

    def test_pipeline_error_does_not_leak_open_statements(self, tasky_server):
        from repro.server.server import MAX_OPEN_STATEMENTS

        _, server = tasky_server
        # page_size=1: every successful SELECT in a failing batch leaves a
        # paged statement server-side; the error path must free them.
        conn = remote(server, "TasKy", autocommit=True, page_size=1)
        for _ in range(MAX_OPEN_STATEMENTS + 2):
            with pytest.raises(ProgrammingError, match="Nope"):
                conn.pipeline(["SELECT * FROM Task", "SELECT * FROM Nope"])
        assert conn.execute("SELECT * FROM Task").rowcount == 20
        conn.close()

    def test_connection_stays_usable_after_pipeline_error(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        with pytest.raises(ProgrammingError):
            conn.pipeline(["SELECT * FROM Nope"])
        assert conn.execute("SELECT * FROM Task").rowcount == 20
        conn.close()


class TestServerStatus:
    def test_status_counts_clients_and_versions(self, tasky_server):
        _, server = tasky_server
        a = remote(server, "TasKy")
        b = remote(server, "Do!")
        status = a.server_status()
        assert status["clients"] == 2
        assert set(status["versions"]) == {"TasKy", "Do!", "TasKy2"}
        assert status["protocol"] == 2
        a.close()
        b.close()

    def test_status_reports_pool_on_live_backend(self, wal_server):
        _, server, backend = wal_server
        a = remote(server, "TasKy")
        b = remote(server, "TasKy2")
        with a, b:
            status = a.server_status()
        assert a.backend_name == "sqlite"
        assert status["pool"]["leased"] == 2  # one overflow handle per open transaction
        assert set(status["pool"]["leases"]) == {"primary", "overflow"}
        assert status["pool"]["database"] == backend.pool.database
        a.close()
        b.close()


class TestRemoteOverLiveBackend:
    def test_sessions_are_independent(self, wal_server):
        scenario, server, backend = wal_server
        a = remote(server, "TasKy")
        b = remote(server, "Do!", autocommit=True)
        before = b.execute("SELECT * FROM Todo").rowcount
        a.execute("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", ("W", "w", 1))
        # WAL: b's snapshot reads see only committed state
        assert b.execute("SELECT * FROM Todo").rowcount == before
        a.commit()
        assert b.execute("SELECT * FROM Todo").rowcount == before + 1
        a.close()
        b.close()

    def test_close_returns_session_to_pool(self, wal_server):
        _, server, backend = wal_server
        before = backend.pool.stats()["leased"]
        conn = remote(server, "TasKy")
        conn.execute("INSERT INTO Task(author, task, prio) VALUES ('X', 'x', 1)")
        assert backend.pool.stats()["leased"] == before + 1  # the open transaction's
        conn.close()
        deadline = _wait_until(lambda: backend.pool.stats()["leased"] == before)
        assert deadline, "leased session was not returned on client close"


def _wait_until(predicate, timeout=5.0):
    import time

    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()
