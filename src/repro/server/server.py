"""A threaded TCP server putting co-existing schema versions on the wire.

:class:`ReproServer` listens on a socket and serves the frames of
:mod:`repro.server.protocol`.  Every accepted client gets its own handler
thread and — once it has sent ``hello`` naming a schema version — its own
**server-side DB-API connection** to that version, opened through the
exact same :func:`repro.sql.connection.connect` path in-process callers
use.  On the live SQLite backend that connection has its own
:class:`~repro.backend.sqlite.SqliteSession`, which leases a handle per
statement and per transaction, so N remote clients are N real database
sessions: independent transactions, WAL snapshot reads, parallel
execution.

Results are **paged**: an ``execute`` response carries at most
``page_size`` rows plus a statement handle; the client driver pulls the
rest with ``fetch`` requests, and the server drops each page as soon as it
is sent — a slow client holds at most one statement's remaining rows, and
at most :data:`MAX_OPEN_STATEMENTS` statements, in server memory.

Catalog transitions reach connected clients through the engine's existing
machinery: statements take the read side of the catalog RWLock, BiDEL DDL
takes the write side and quiesces every pooled session.  The server
additionally registers a catalog listener so that a client bound to a
version that gets dropped receives a clean ``OperationalError`` response
on its next request (its session is closed) instead of
hanging or seeing engine internals fail.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import InterfaceError, OperationalError
from repro.obs import engine_snapshot
from repro.obs.http import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.sql.connection import connect as sql_connect
from repro.sql.connection import resolve_version_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import InVerDa

#: Per-client cap on concurrently open (partially fetched) statements.
MAX_OPEN_STATEMENTS = 32


class _ClientHandler:
    """One connected client: a socket, a handler thread, and — after
    ``hello`` — a server-side DB-API connection bound to one version."""

    def __init__(self, server: "ReproServer", sock: socket.socket, peer: Any):
        self.server = server
        self.sock = sock
        self.peer = peer
        self.reader = protocol.FrameReader(sock)
        #: Encoded replies not yet sent: they go out in one ``sendall``
        #: before the reader would wait for the next request.
        self._pending: list[bytes] = []
        self.connection = None  # server-side repro.sql Connection
        self.version_name: str | None = None
        self.version_dropped = False
        self._statements: dict[int, Any] = {}  # stmt_id -> open cursor
        self._stmt_counter = 0
        #: True while a request is processed or its reply unsent — the
        #: graceful drain waits on this before disconnecting the client.
        self.busy = False
        #: The last non-null description sent: the one the client holds.
        self._described: tuple | None = None
        self.thread = threading.Thread(
            target=self._run, name=f"repro-client-{peer}", daemon=True
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.thread.start()

    def shutdown(self) -> None:
        """Server-initiated teardown: unblock the reader and let the
        handler thread run its normal disconnect path."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _run(self) -> None:
        try:
            while True:
                if not self.reader.buffered():
                    # About to wait on the peer: nothing may stay unsent.
                    self._flush()
                    self.busy = False
                try:
                    request = self.reader.read()
                except ProtocolError as exc:
                    # The stream position is unknowable after a framing
                    # error: answer once, then drop the connection.
                    self._send_error(None, exc)
                    break
                except OSError:
                    break  # socket torn down under the reader
                if request is None:
                    break  # clean disconnect
                self.busy = True
                if not self._handle(request):
                    break
            self._flush()
        except _Disconnect:
            pass
        finally:
            self.busy = False
            self._teardown()

    def _release_connection(self) -> None:
        # A client that leaves mid-transaction must not leak its work:
        # closing the server-side connection rolls back any open
        # transaction and returns its handle to the pool.
        self._statements.clear()
        if self.connection is not None:
            try:
                self.connection.close()
            except Exception:
                pass
            self.connection = None

    def _teardown(self) -> None:
        self._release_connection()
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._forget_handler(self)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        """Send every pending reply in one write."""
        if self._pending:
            frames = b"".join(self._pending)
            self._pending.clear()
            try:
                self.sock.sendall(frames)
            except OSError:
                raise _Disconnect from None

    def _send(self, message: dict) -> None:
        """Queue a reply; a result description the client holds stays
        home, a new one goes out in wire form.  Raises ``ProtocolError``
        (nothing queued) if the reply cannot be encoded."""
        description = message.get("description")
        if description is not None:
            if description == self._described:
                del message["description"]
            else:
                message["description"] = protocol.description_to_wire(description)
        self._pending.append(protocol.encode_frame(message))
        if description is not None:
            self._described = description

    def _send_error(self, request_id: Any, exc: BaseException) -> None:
        self._pending.append(
            protocol.encode_frame(protocol.error_response(request_id, exc))
        )

    def _handle(self, request: dict) -> bool:
        """Process one request; returns False when the connection ends."""
        request_id = request.get("id")
        op = request.get("op")
        try:
            handler = _OPS.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            # Count only known ops: a hostile peer must not mint unbounded
            # label values.
            self.server._m_requests[op].inc()
            response = handler(self, request)
        except Exception as exc:  # noqa: BLE001 - every failure becomes a frame
            self._send_error(request_id, exc)
            return True
        if response is None:
            return False  # an op that ends the connection (close)
        response["id"] = request_id
        response["ok"] = True
        try:
            self._send(response)
        except ProtocolError as exc:
            # The RESPONSE could not be serialized; the stream is still in
            # sync (nothing was written), so answer with the failure.
            self._send_error(request_id, exc)
        return True

    def _require_connection(self, op: str):
        if self.connection is None:
            raise ProtocolError(f"{op} before hello: bind a schema version first")
        if self.version_dropped:
            # Close the session eagerly; the client keeps getting
            # this clean error (not a hang, not an internals traceback)
            # until it disconnects.
            try:
                self.connection.close()
            except Exception:
                pass
            raise OperationalError(
                f"schema version {self.version_name!r} was dropped on the server; "
                "close this connection and reconnect to a live version"
            )
        return self.connection

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        requested = request.get("protocol", protocol.PROTOCOL_VERSION)
        if requested != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {requested}, "
                f"server speaks {protocol.PROTOCOL_VERSION}"
            )
        if self.connection is not None:
            raise ProtocolError("hello: this connection is already bound")
        engine = self.server.engine
        version = resolve_version_name(engine, request.get("version"))
        backend = request.get("backend", None)
        if backend is None:
            backend = self.server.backend
        connection = sql_connect(
            engine,
            version,
            autocommit=bool(request.get("autocommit", False)),
            backend=backend,
        )
        self.connection = connection
        self.version_name = version
        return {
            "server": "repro",
            "protocol": protocol.PROTOCOL_VERSION,
            "version": version,
            "backend": connection.backend_name,
        }

    def _page_size(self, request: dict) -> int:
        size = request.get("page_size", self.server.page_size)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ProtocolError(f"page_size must be a positive integer, got {size!r}")
        return size

    def _result_payload(self, cursor, request: dict) -> dict:
        page = self._page_size(request)
        rows = cursor.fetchmany(page)
        payload = {
            "description": cursor.description,  # _send puts it in wire form
            "rowcount": cursor.rowcount,
            "lastrowid": cursor.lastrowid,
            "rows": protocol.rows_to_wire(rows),
        }
        if cursor.rows_pending:
            if len(self._statements) >= MAX_OPEN_STATEMENTS:
                raise OperationalError(
                    f"too many open statements ({MAX_OPEN_STATEMENTS}); "
                    "drain or close existing results first"
                )
            self._stmt_counter += 1
            self._statements[self._stmt_counter] = cursor
            payload["stmt_id"] = self._stmt_counter
            payload["done"] = False
        else:
            cursor.close()
            payload["done"] = True
        return payload

    def _apply_trace_context(self, connection, request: dict) -> None:
        """Continue a client-side trace: the next statement's engine spans
        join the trace/span ids that rode along in the request frame."""
        trace = request.get("trace")
        if isinstance(trace, dict) and trace.get("trace_id"):
            connection._trace_context = (
                str(trace["trace_id"]),
                str(trace["span_id"]) if trace.get("span_id") else None,
            )

    def _timing_envelope(self, cursor, started: float) -> dict:
        """Server-side timing breakdown attached to every execute reply,
        so the client can separate engine time from network time."""
        envelope = {
            "engine_ms": (time.perf_counter() - started) * 1000.0,
            "kind": cursor.statement_kind,
            "cache": cursor.cache_event,
        }
        if cursor.trace is not None:
            envelope["trace_id"] = cursor.trace.trace_id
            envelope["span_id"] = cursor.trace.root.span_id
            envelope["spans"] = [span.to_dict() for span in cursor.trace.spans]
        return envelope

    def _op_execute(self, request: dict) -> dict:
        connection = self._require_connection("execute")
        params = request.get("params") or []
        if not isinstance(params, list):
            raise ProtocolError("params must be a JSON array")
        cursor = connection.cursor()
        self._apply_trace_context(connection, request)
        started = time.perf_counter()
        cursor.execute(str(request.get("sql", "")), tuple(params))
        payload = self._result_payload(cursor, request)
        payload["timing"] = self._timing_envelope(cursor, started)
        return payload

    def _op_executemany(self, request: dict) -> dict:
        connection = self._require_connection("executemany")
        seq = request.get("params_seq") or []
        if not isinstance(seq, list) or not all(isinstance(p, list) for p in seq):
            raise ProtocolError("params_seq must be a JSON array of arrays")
        cursor = connection.cursor()
        self._apply_trace_context(connection, request)
        started = time.perf_counter()
        cursor.executemany(str(request.get("sql", "")), [tuple(p) for p in seq])
        payload = self._result_payload(cursor, request)
        payload["timing"] = self._timing_envelope(cursor, started)
        return payload

    def _op_fetch(self, request: dict) -> dict:
        self._require_connection("fetch")
        stmt_id = request.get("stmt_id")
        cursor = self._statements.get(stmt_id)
        if cursor is None:
            raise InterfaceError(
                f"fetch(): unknown statement {stmt_id!r} (already drained or closed)"
            )
        rows = cursor.fetchmany(self._page_size(request))
        done = not cursor.rows_pending
        if done:
            del self._statements[stmt_id]
            cursor.close()
        return {"rows": protocol.rows_to_wire(rows), "done": done}

    def _op_close_statement(self, request: dict) -> dict:
        cursor = self._statements.pop(request.get("stmt_id"), None)
        if cursor is not None:
            cursor.close()
        return {}

    def _op_begin(self, request: dict) -> dict:
        connection = self._require_connection("begin")
        connection._enter_scope()
        return {"txn": connection.in_transaction}

    def _op_commit(self, request: dict) -> dict:
        connection = self._require_connection("commit")
        connection.commit()
        return {"txn": connection.in_transaction}

    def _op_rollback(self, request: dict) -> dict:
        connection = self._require_connection("rollback")
        connection.rollback()
        return {"txn": connection.in_transaction}

    def _op_txn(self, request: dict) -> dict:
        connection = self._require_connection("txn")
        return {"txn": connection.in_transaction}

    def _op_ping(self, request: dict) -> dict:
        return {}

    def _op_status(self, request: dict) -> dict:
        return self.server.status()

    def _op_check(self, request: dict) -> dict:
        """Static pre-flight of a BiDEL script, structured: one dict per
        diagnostic plus the summary.  The SQL-level ``CHECK <bidel>``
        statement rides the ordinary execute op; this op serves clients
        that want the findings without a cursor."""
        from repro.check.diagnostics import record_findings
        from repro.check.preflight import preflight_script

        engine = self.server.engine
        script = str(request.get("script", ""))
        with engine.catalog_lock.read_locked():
            diagnostics = preflight_script(engine, script)
            summary = record_findings(engine, diagnostics, scope="server-check")
        return {
            "findings": [d.as_dict() for d in diagnostics],
            "summary": summary,
        }

    def _op_metrics(self, request: dict) -> dict:
        """The engine's metrics registry in Prometheus text format — the
        wire-protocol twin of the ``--metrics-port`` HTTP endpoint."""
        return {
            "content_type": METRICS_CONTENT_TYPE,
            "text": self.server.engine.metrics.render_prometheus(),
        }

    def _op_close(self, request: dict) -> None:
        # Release before acknowledging: a client whose close() returned
        # relies on its transaction being rolled back already.
        self._release_connection()
        self._send({"id": request.get("id"), "ok": True})
        return None  # ends the handler loop; the acknowledgement is flushed


class _Disconnect(Exception):
    """Internal: the peer is unreachable; abandon the handler loop."""


_OPS = {
    "hello": _ClientHandler._op_hello,
    "execute": _ClientHandler._op_execute,
    "executemany": _ClientHandler._op_executemany,
    "fetch": _ClientHandler._op_fetch,
    "close_statement": _ClientHandler._op_close_statement,
    "begin": _ClientHandler._op_begin,
    "commit": _ClientHandler._op_commit,
    "rollback": _ClientHandler._op_rollback,
    "txn": _ClientHandler._op_txn,
    "ping": _ClientHandler._op_ping,
    "status": _ClientHandler._op_status,
    "check": _ClientHandler._op_check,
    "metrics": _ClientHandler._op_metrics,
    "close": _ClientHandler._op_close,
}


class ReproServer:
    """Serve an engine's co-existing schema versions over TCP.

    ::

        server = ReproServer(engine, backend="sqlite").start()
        ...
        conn = repro.connect_remote(*server.address, version="TasKy")
        ...
        server.close()

    ``backend`` is the default execution backend for clients that do not
    request one in ``hello`` (same values as :func:`repro.connect`);
    ``page_size`` bounds the rows per response frame.  ``port=0`` (the
    default) binds an ephemeral port — read it back from
    :attr:`address`.
    """

    def __init__(
        self,
        engine: "InVerDa",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backend=None,
        page_size: int = protocol.DEFAULT_PAGE_SIZE,
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self.backend = backend
        self.page_size = page_size
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: list[_ClientHandler] = []
        self._lock = threading.Lock()
        self._closed = False
        requests = engine.metrics.counter(
            "repro_server_requests_total",
            "Wire-protocol requests handled, by op.",
            ("op",),
        )
        self._m_requests = {op: requests.bound(op=op) for op in _OPS}
        self._m_clients = engine.metrics.gauge(
            "repro_server_clients",
            "Currently connected wire-protocol clients.",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound — resolves ``port=0``."""
        if self._listener is None:
            raise InterfaceError("address: the server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "ReproServer":
        if self._listener is not None:
            raise InterfaceError("start(): the server is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.engine.add_catalog_listener(self._on_catalog_event)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = _ClientHandler(self, sock, peer)
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                self._handlers.append(handler)
                self._m_clients.set(len(self._handlers))
            handler.start()

    def _stop_listening(self) -> None:
        """Release the listening socket and wake the accept thread.

        ``close()`` alone does not interrupt a thread already blocked in
        ``accept()`` on Linux (the descriptor stays referenced until the
        call returns); ``shutdown()`` does, so it comes first."""
        if self._listener is None:
            return
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down
        try:
            self._listener.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting, disconnect every client (rolling back their
        open transactions, returning their handles to the pool), and release
        the listening socket."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handlers = list(self._handlers)
        self.engine.remove_catalog_listener(self._on_catalog_event)
        self._stop_listening()
        for handler in handlers:
            handler.shutdown()
        for handler in handlers:
            handler.thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting new connections immediately,
        give every in-flight request up to ``timeout`` seconds to finish,
        then disconnect the remaining clients exactly like :meth:`close`
        (server-side connections roll back any open transaction and
        return their transactions' handles to the pool).

        A request still running at the deadline is cut off mid-flight —
        the deadline exists precisely so a wedged statement cannot hold
        the shutdown hostage."""
        # New connects are refused from here on; connected clients get
        # their in-flight replies before the sockets drop.
        self._stop_listening()
        deadline = time.monotonic() + timeout
        with self._lock:
            handlers = list(self._handlers)
        for handler in handlers:
            while handler.busy and time.monotonic() < deadline:
                time.sleep(0.01)
        self.close()

    def __enter__(self) -> "ReproServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _forget_handler(self, handler: _ClientHandler) -> None:
        with self._lock:
            if handler in self._handlers:
                self._handlers.remove(handler)
            self._m_clients.set(len(self._handlers))

    # ------------------------------------------------------------------
    # Catalog transitions
    # ------------------------------------------------------------------

    def _on_catalog_event(self, event: str, **info) -> None:
        """Engine hook (runs under the catalog write lock): flag handlers
        whose bound version no longer exists, so their next request gets
        the clean dropped-version error."""
        if event != "drop":
            return
        dropped = info.get("version")
        with self._lock:
            for handler in self._handlers:
                if handler.version_name == dropped:
                    handler.version_dropped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """The unified observability snapshot (``repro.obs/1``) plus the
        server-specific facts (protocol, client count, served versions)."""
        with self._lock:
            clients = len(self._handlers)
        payload = engine_snapshot(self.engine, backend=self.engine.live_backend)
        payload.update(
            {
                "protocol": protocol.PROTOCOL_VERSION,
                "clients": clients,
                "versions": self.engine.version_names(),
                "page_size": self.page_size,
            }
        )
        return payload


def serve(
    engine: "InVerDa",
    host: str = "127.0.0.1",
    port: int = protocol.DEFAULT_PORT,
    **kwargs,
) -> ReproServer:
    """Start (and return) a :class:`ReproServer` for ``engine``."""
    return ReproServer(engine, host, port, **kwargs).start()
