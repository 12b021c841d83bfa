"""Server failure modes: crashes, drops, garbage, and concurrent clients."""

import socket
import struct
import threading
import time

import pytest

import repro
from repro.errors import OperationalError
from repro.server import protocol
from repro.server.client import connect_remote
from repro.server.protocol import ProtocolError
from repro.server.server import ReproServer
from repro.workloads.tasky import build_tasky


def remote(server, version=None, **kwargs):
    kwargs.setdefault("timeout", 30.0)
    return connect_remote(*server.address, version, **kwargs)


def raw(server):
    """A bare socket to ``server`` and the frame reader on it."""
    sock = socket.create_connection(server.address, timeout=10)
    return sock, protocol.FrameReader(sock)


def hello():
    """The frame binding a raw socket to TasKy, as request 1."""
    return protocol.encode_frame(
        {"id": 1, "op": "hello", "version": "TasKy",
         "protocol": protocol.PROTOCOL_VERSION, "autocommit": True}
    )


def wait_until(predicate, timeout=5.0):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestClientDisconnect:
    def test_disconnect_mid_transaction_rolls_back(self, wal_server):
        scenario, server, backend = wal_server
        watcher = remote(server, "TasKy", autocommit=True)
        before = watcher.execute("SELECT * FROM Task").rowcount

        crasher = remote(server, "TasKy")
        crasher.execute("DELETE FROM Task")
        crasher._drop_socket()  # vanish without close/rollback

        assert wait_until(
            lambda: watcher.execute("SELECT * FROM Task").rowcount == before
        ), "uncommitted work of a vanished client was not rolled back"
        watcher.close()

    def test_disconnect_returns_session_to_pool(self, wal_server):
        _, server, backend = wal_server
        baseline = backend.pool.stats()["leased"]
        crasher = remote(server, "TasKy")
        crasher.execute("INSERT INTO Task(author, task, prio) VALUES ('X', 'x', 1)")
        assert backend.pool.stats()["leased"] == baseline + 1
        crasher._drop_socket()
        assert wait_until(
            lambda: backend.pool.stats()["leased"] == baseline
        ), "vanished client's session never returned to the pool"

    def test_disconnect_mid_transaction_on_memory_engine(self, tasky_server):
        scenario, server = tasky_server
        watcher = remote(server, "TasKy", autocommit=True)
        before = watcher.execute("SELECT * FROM Task").rowcount
        crasher = remote(server, "TasKy")
        crasher.execute("DELETE FROM Task")
        crasher._drop_socket()
        assert wait_until(
            lambda: watcher.execute("SELECT * FROM Task").rowcount == before
        )
        watcher.close()


class TestVersionDropped:
    def test_dropped_version_yields_clean_error(self, tasky_server):
        scenario, server = tasky_server
        conn = remote(server, "Do!", autocommit=True)
        assert conn.execute("SELECT * FROM Todo").rowcount >= 0
        scenario.engine.drop_schema_version("Do!")
        with pytest.raises(OperationalError, match="dropped"):
            conn.execute("SELECT * FROM Todo")
        # the error repeats (no hang, no crash) until the client gives up
        with pytest.raises(OperationalError, match="dropped"):
            conn.commit()
        conn.close()

    def test_dropped_version_releases_session(self, wal_server):
        scenario, server, backend = wal_server
        conn = remote(server, "Do!")
        conn.__enter__()  # an open transaction holds an overflow handle
        conn.execute("SELECT * FROM Todo").fetchall()
        leased_with_client = backend.pool.stats()["leased"]
        scenario.engine.drop_schema_version("Do!")
        with pytest.raises(OperationalError, match="dropped"):
            conn.execute("SELECT * FROM Todo")
        assert backend.pool.stats()["leased"] == leased_with_client - 1
        conn.close()

    def test_other_versions_unaffected_by_drop(self, tasky_server):
        scenario, server = tasky_server
        survivor = remote(server, "TasKy", autocommit=True)
        doomed = remote(server, "Do!", autocommit=True)
        scenario.engine.drop_schema_version("Do!")
        with pytest.raises(OperationalError):
            doomed.execute("SELECT * FROM Todo")
        assert survivor.execute("SELECT * FROM Task").rowcount == 20
        survivor.close()
        doomed.close()

    def test_drop_through_another_remote_client(self, tasky_server):
        scenario, server = tasky_server
        admin = remote(server, "TasKy", autocommit=True)
        doomed = remote(server, "Do!", autocommit=True)
        admin.execute("DROP SCHEMA VERSION Do!;")
        with pytest.raises(OperationalError, match="dropped"):
            doomed.execute("SELECT * FROM Todo")
        admin.close()
        doomed.close()


class TestMalformedFrames:
    def test_garbage_body_gets_error_then_disconnect(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(struct.pack(">I", 12) + b"this is junk")
            reply = reader.read()
            assert reply["ok"] is False
            assert reply["error"]["code"] == "ProtocolError"
            assert reader.read() is None  # server closed the stream
        finally:
            sock.close()

    def test_hostile_length_prefix(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(struct.pack(">I", protocol.MAX_FRAME_BYTES * 4))
            reply = reader.read()
            assert reply["ok"] is False and reply["error"]["code"] == "ProtocolError"
            assert reader.read() is None
        finally:
            sock.close()

    def test_request_before_hello(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(protocol.encode_frame({"id": 1, "op": "execute", "sql": "SELECT 1"}))
            reply = reader.read()
            assert reply["ok"] is False
            assert "hello" in reply["error"]["message"]
        finally:
            sock.close()

    def test_unknown_op(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(protocol.encode_frame({"id": 1, "op": "teleport"}))
            reply = reader.read()
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]["message"]
        finally:
            sock.close()

    def test_protocol_version_mismatch(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(protocol.encode_frame(
                {"id": 1, "op": "hello", "version": "TasKy", "protocol": 99}
            ))
            reply = reader.read()
            assert reply["ok"] is False
            assert reply["error"]["code"] == "ProtocolError"
        finally:
            sock.close()

    def test_a_boolean_page_size_is_refused(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        try:
            sock.sendall(hello() + protocol.encode_frame(
                {"id": 2, "op": "execute", "sql": "SELECT * FROM Task", "page_size": True}
            ))
            assert reader.read()["ok"] is True
            reply = reader.read()
            assert reply["ok"] is False
            assert reply["error"]["code"] == "ProtocolError"
            assert "page_size" in reply["error"]["message"]
        finally:
            sock.close()

    def test_server_survives_garbage(self, tasky_server):
        _, server = tasky_server
        for _ in range(3):
            sock = socket.create_connection(server.address, timeout=10)
            sock.sendall(b"\xff\xff")
            sock.close()
        conn = remote(server, "TasKy", autocommit=True)
        assert conn.execute("SELECT * FROM Task").rowcount == 20
        conn.close()


class TestPipelinedFrames:
    def test_a_failing_statement_mid_pipeline_gets_every_reply_in_order(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        statements = ["SELECT * FROM Task", "SELECT author FROM Task",
                      "SELECT nope FROM Task", "SELECT prio FROM Task",
                      "SELECT * FROM Task"]
        try:
            sock.sendall(hello() + b"".join(
                protocol.encode_frame({"id": 10 + i, "op": "execute", "sql": sql})
                for i, sql in enumerate(statements)
            ))
            assert reader.read()["ok"] is True
            replies = [reader.read() for _ in statements]
            assert [r["id"] for r in replies] == [10, 11, 12, 13, 14]
            assert [r["ok"] for r in replies] == [True, True, False, True, True]
            assert all(len(r["rows"]) == 20 for r in replies if r["ok"])
        finally:
            sock.close()

    def test_half_a_request_does_not_hold_back_the_whole_one(self, tasky_server):
        _, server = tasky_server
        sock, reader = raw(server)
        second = protocol.encode_frame({"id": 3, "op": "ping"})
        try:
            sock.sendall(hello() + protocol.encode_frame({"id": 2, "op": "ping"})
                         + second[:5])
            assert [reader.read()["id"] for _ in range(2)] == [1, 2]
            sock.sendall(second[5:])
            assert reader.read() == {"id": 3, "ok": True}
        finally:
            sock.close()


class TestConcurrentClients:
    def test_concurrent_clients_match_sequential(self, tmp_path):
        """Differential check: N remote clients writing concurrently
        through different versions leave the database in the same visible
        state as the same statements applied sequentially in-process."""
        from repro.backend.sqlite import LiveSqliteBackend

        def statements(worker: int):
            return [
                (
                    "Do!",
                    "INSERT INTO Todo(author, task) VALUES (?, ?)",
                    (f"w{worker}", f"todo-{worker}-{i}"),
                )
                if i % 2
                else (
                    "TasKy",
                    "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                    (f"w{worker}", f"task-{worker}-{i}", 1 + i % 3),
                )
                for i in range(10)
            ]

        # Sequential reference run, in-process.
        ref = build_tasky(20, seed=7)
        ref_backend = LiveSqliteBackend.attach(
            ref.engine, database=str(tmp_path / "ref.db")
        )
        for worker in range(4):
            for version, sql, params in statements(worker):
                repro.connect(ref.engine, version, autocommit=True).execute(sql, params)

        # Concurrent remote run.
        live = build_tasky(20, seed=7)
        live_backend = LiveSqliteBackend.attach(
            live.engine, database=str(tmp_path / "live.db"), pool_size=8
        )
        server = ReproServer(live.engine).start()
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                conns = {
                    v: remote(server, v, autocommit=True) for v in ("TasKy", "Do!")
                }
                for version, sql, params in statements(index):
                    conns[version].execute(sql, params)
                for conn in conns.values():
                    conn.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

        def canonical_tasky2(conn):
            """TasKy2 contents with generated author ids resolved to names
            (surrogate ids depend on interleaving order; names do not)."""
            authors = dict(conn.execute("SELECT id, name FROM Author").fetchall())
            tasks = conn.execute("SELECT task, prio, author FROM Task").fetchall()
            return (
                sorted(authors.values()),
                sorted((task, prio, authors[a]) for task, prio, a in tasks),
            )

        try:
            for version, table in [("TasKy", "Task"), ("Do!", "Todo")]:
                seen = remote(server, version, autocommit=True)
                sql = f"SELECT * FROM {table}"
                got = sorted(seen.execute(sql).fetchall())
                want = sorted(
                    repro.connect(ref.engine, version, autocommit=True)
                    .execute(sql)
                    .fetchall()
                )
                assert got == want, (version, table)
                seen.close()
            tasky2 = remote(server, "TasKy2", autocommit=True)
            assert canonical_tasky2(tasky2) == canonical_tasky2(
                repro.connect(ref.engine, "TasKy2", autocommit=True)
            )
            tasky2.close()
        finally:
            server.close()
            live_backend.close()
            ref_backend.close()


class TestClientDesync:
    def test_reply_id_mismatch_closes_connection(self, tasky_server):
        from repro.errors import InterfaceError

        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        # Force a desynchronized exchange: write one request, then demand
        # the reply of a request that was never sent.
        with conn._io_lock:
            conn._write_request({"op": "ping"})
            with pytest.raises(ProtocolError, match="does not match"):
                conn._read_reply(-1)
        # The stream position is unknowable; the connection must be dead,
        # not silently serving stale replies.
        with pytest.raises(InterfaceError, match=r"execute\(\)"):
            conn.execute("SELECT * FROM Task")

    def test_dropped_cursors_release_statement_slots(self, tasky_server):
        from repro.server.server import MAX_OPEN_STATEMENTS

        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True, page_size=1)
        # Idiomatic DB-API: a fresh (paged) cursor per statement, never
        # explicitly closed.  GC must return each slot to the server.
        for _ in range(MAX_OPEN_STATEMENTS + 5):
            conn.execute("SELECT * FROM Task").fetchone()
        assert conn.execute("SELECT * FROM Task").rowcount == 20
        conn.close()


class TestOversizedResults:
    def test_huge_statement_rejected_not_hung(self, tasky_server):
        _, server = tasky_server
        conn = remote(server, "TasKy", autocommit=True)
        giant = "SELECT * FROM Task WHERE author = '" + "x" * protocol.MAX_FRAME_BYTES + "'"
        with pytest.raises(ProtocolError, match="limit"):
            conn.execute(giant)
        conn.close()


class TestShutdown:
    """Closing the listening socket does not wake a blocked ``accept()``
    on Linux; ``close()``/``drain()`` must shut it down first instead of
    waiting out the accept thread's join timeout."""

    @pytest.mark.parametrize("stop", ["close", "drain"])
    def test_idle_server_stops_promptly(self, stop):
        server = ReproServer(repro.InVerDa()).start()
        address = server.address
        time.sleep(0.05)  # let the accept thread block in accept()
        started = time.monotonic()
        getattr(server, stop)()
        assert time.monotonic() - started < 1.0
        assert not server._accept_thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0)
