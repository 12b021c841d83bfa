"""The client driver: PEP-249 over the wire.

:func:`connect_remote` opens a TCP connection to a :class:`ReproServer`
and returns a :class:`RemoteConnection` with the same surface as the
in-process :func:`repro.connect` — cursors, ``?`` parameter binding,
``commit``/``rollback``, ``with conn:`` transaction scopes, autocommit —
so application code is transport-agnostic: the entire ``tests/sql/``
suite runs unmodified against a live server.

Both classes subclass the shared DB-API core of
:mod:`repro.sql.connection`; only statement dispatch differs.  Results
are **paged**: an ``execute`` reply carries the first ``page_size`` rows,
and ``fetchone``/``fetchmany``/``fetchall`` transparently pull further
pages from the server on demand, so a large result never sits in client
(or server) memory twice.

**Pipelining**: :meth:`RemoteConnection.pipeline` writes a batch of
statements as back-to-back request frames, in one ``sendall``, before
reading any response — one network round trip for the whole batch instead
of one per statement.  The server executes them strictly in order; each
statement gets its own cursor in the returned list.
"""

from __future__ import annotations

import itertools
import socket
import sys
import threading
import time
from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import OperationalError, ProgrammingError
from repro.obs import Span, Tracer
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.sql.connection import BaseConnection, BaseCursor
from repro.sql.planner import StatementResult

_request_ids = itertools.count(1)

#: Seconds close() waits for the server's goodbye acknowledgement.
GOODBYE_TIMEOUT = 5.0


class ConnectionLostError(OperationalError):
    """The TCP stream to the server died mid-conversation."""


def _wire_params(parameters: Sequence[Any] | None) -> list:
    if parameters is None:
        return []
    if isinstance(parameters, (str, bytes)):
        raise ProgrammingError("parameters must be a sequence of values, not a string")
    if isinstance(parameters, Mapping):
        raise ProgrammingError(
            "qmark paramstyle takes a positional sequence, not a mapping"
        )
    return list(parameters)


class RemoteCursor(BaseCursor):
    """A cursor whose statements execute on the server, with paged rows."""

    _connection: "RemoteConnection"

    def __init__(self, connection: "RemoteConnection"):
        super().__init__(connection)
        self._stmt_id: int | None = None

    # -- execution ---------------------------------------------------------

    def execute(self, operation: str, parameters: Sequence[Any] | None = None) -> "RemoteCursor":
        connection = self._check_open("execute")
        self._discard_statement()
        request = {
            "op": "execute",
            "sql": operation,
            "params": _wire_params(parameters),
            "page_size": connection.page_size,
        }
        return self._traced_exchange(connection, operation, request)

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> "RemoteCursor":
        connection = self._check_open("executemany")
        self._discard_statement()
        request = {
            "op": "executemany",
            "sql": operation,
            "params_seq": [_wire_params(p) for p in seq_of_parameters],
            "page_size": connection.page_size,
        }
        return self._traced_exchange(connection, operation, request)

    def _traced_exchange(self, connection: "RemoteConnection", operation: str,
                         request: dict) -> "RemoteCursor":
        """One instrumented round trip: start the client span (injecting
        the trace context into the frame so the server continues it), send
        the request, and fold the reply's timing envelope back into
        metrics + the trace."""
        self.trace = None
        self.cache_event = None
        self.statement_kind = None
        builder = connection._begin_client_trace(operation, request)
        started = time.perf_counter()
        try:
            reply = connection._request(request)
        except BaseException:
            connection._finish_client_trace(self, operation, started, builder,
                                            None, error=True)
            raise
        self._install_reply(reply)
        connection._finish_client_trace(self, operation, started, builder,
                                        reply.get("timing"))
        return self

    def _install_reply(self, reply: dict) -> None:
        connection = self._connection
        if "description" not in reply:  # the shape the server sent last
            description = connection._description
        elif reply["description"] is None:
            description = None
        else:
            description = connection._description = protocol.description_from_wire(
                reply["description"]
            )
        self._install_result(
            StatementResult(
                description=description,
                rows=protocol.rows_from_wire(reply.get("rows", [])),
                rowcount=reply.get("rowcount", -1),
                lastrowid=reply.get("lastrowid"),
            ),
            exhausted=reply.get("done", True),
        )
        self._stmt_id = reply.get("stmt_id")

    # -- paging ------------------------------------------------------------

    def _fetch_more(self, size: int) -> list[tuple]:
        if self._stmt_id is None:
            return []
        reply = self._connection._request(
            {
                "op": "fetch",
                "stmt_id": self._stmt_id,
                "page_size": max(size, self._connection.page_size),
            }
        )
        if reply.get("done", True):
            self._stmt_id = None
        return protocol.rows_from_wire(reply.get("rows", []))

    def _discard_statement(self) -> None:
        """Tell the server to free a half-fetched previous result."""
        if self._stmt_id is None:
            return
        stmt_id, self._stmt_id = self._stmt_id, None
        try:
            self._connection._request({"op": "close_statement", "stmt_id": stmt_id})
        except Exception:
            pass  # connection already gone; the server freed it on teardown

    def close(self) -> None:
        if not self._closed and not self._connection._closed:
            self._discard_statement()
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # A dropped half-fetched cursor must not pin its open-statement
        # slot on the server until the connection closes.  Skipped during
        # interpreter shutdown: the exchange could block on a server
        # whose threads are already gone.
        try:
            if not sys.is_finalizing():
                self.close()
        except Exception:
            pass


class RemoteConnection(BaseConnection):
    """A DB-API connection to one schema version of a remote server."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        version: str | None,
        autocommit: bool = False,
        backend: str | None = None,
        page_size: int = protocol.DEFAULT_PAGE_SIZE,
        trace: bool = False,
        slow_ms: float | None = None,
    ):
        super().__init__(autocommit=autocommit)
        #: Client-side tracer: spans cover the full round trip, with the
        #: network/engine split computed from the server's timing
        #: envelope.  Also owns this driver's slow-query ring buffer.
        self.tracer = Tracer(enabled=trace, slow_ms=slow_ms)
        self._sock = sock
        self._reader = protocol.FrameReader(sock)
        #: The last non-null result description received: a reply that
        #: omits its description means this one.
        self._description: tuple | None = None
        # One in-flight request/response exchange at a time per connection
        # (PEP 249 threadsafety level 1; pipeline() batches under the same
        # lock).
        self._io_lock = threading.Lock()
        self.page_size = page_size
        hello = {"op": "hello", "protocol": protocol.PROTOCOL_VERSION, "autocommit": autocommit}
        if version is not None:
            hello["version"] = version
        if backend is not None:
            hello["backend"] = backend
        try:
            reply = self._request(hello)
        except Exception:
            self._drop_socket()
            raise
        self._version_name: str = reply["version"]
        self._backend_name: str = reply.get("backend", "unknown")

    # -- metadata ----------------------------------------------------------

    @property
    def version_name(self) -> str:
        return self._version_name

    @property
    def backend_name(self) -> str:
        return self._backend_name

    @property
    def in_transaction(self) -> bool:
        """Authoritative server-side transaction state (a catalog
        transition may have force-ended the transaction since the last
        statement)."""
        self._check_open("in_transaction")
        return bool(self._request({"op": "txn"}).get("txn"))

    def server_status(self) -> dict:
        """The server's ``status`` payload (clients, versions, pool)."""
        self._check_open("server_status")
        reply = self._request({"op": "status"})
        return {k: v for k, v in reply.items() if k not in ("id", "ok")}

    def stats(self) -> dict:
        """Unified observability snapshot (``repro.obs/1``), mirroring the
        in-process ``Connection.stats()``: the server's plan-cache
        counters, catalog facts, workload/tracing/metrics snapshots, and
        (on the live backend) its session pool occupancy — plus this
        driver's own client-side tracer under ``client``."""
        status = self.server_status()
        payload = {
            key: status[key]
            for key in ("schema", "plan_cache", "catalog", "workload",
                        "tracing", "metrics", "check", "pool")
            if key in status
        }
        payload["backend"] = self._backend_name
        payload["client"] = {"tracing": self.tracer.stats()}
        return payload

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text format (the ``metrics``
        op — same payload the ``--metrics-port`` HTTP endpoint serves)."""
        self._check_open("metrics_text")
        return str(self._request({"op": "metrics"}).get("text", ""))

    def check(self, script: str) -> dict:
        """Static pre-flight of a BiDEL script on the server (the
        ``check`` op): ``{"findings": [...], "summary": {...}}`` — the
        structured twin of executing ``CHECK <script>`` on a cursor."""
        self._check_open("check")
        reply = self._request({"op": "check", "script": script})
        return {
            "findings": reply.get("findings", []),
            "summary": reply.get("summary", {}),
        }

    # -- statement tracing -------------------------------------------------

    def _begin_client_trace(self, operation: str, request: dict):
        """Start the client span and inject its ids into the request frame
        so the server-side spans join this trace; ``None`` when untraced."""
        if not self.tracer.enabled:
            return None
        builder = self.tracer.begin("client.statement")
        builder.root.attributes["sql"] = operation
        request["trace"] = {
            "trace_id": builder.trace_id,
            "span_id": builder.root.span_id,
        }
        return builder

    def _finish_client_trace(self, cursor: RemoteCursor, operation: str,
                             started: float, builder, timing: dict | None, *,
                             error: bool = False) -> None:
        total = time.perf_counter() - started
        timing = timing or {}
        cursor.cache_event = timing.get("cache")
        cursor.statement_kind = timing.get("kind")
        self.tracer.note_statement(
            operation, self._version_name, total,
            trace_id=builder.trace_id if builder is not None else None,
        )
        if builder is None:
            return
        engine_ms = timing.get("engine_ms")
        if engine_ms is not None:
            network = max(total - engine_ms / 1000.0, 0.0)
            builder.add_span("network", network,
                             round_trip_ms=total * 1000.0,
                             engine_ms=engine_ms)
        for wire_span in timing.get("spans") or []:
            # The server continued our trace; its spans come back in the
            # reply envelope and rejoin the client-side trace verbatim
            # (parent ids line up because the server's root span was
            # parented on our root span id).
            builder.spans.append(
                Span(
                    name=str(wire_span.get("name", "span")),
                    trace_id=str(wire_span.get("trace_id", builder.trace_id)),
                    span_id=str(wire_span.get("span_id", "")),
                    parent_id=wire_span.get("parent_id"),
                    start=builder.root.start,
                    duration=float(wire_span.get("duration_ms") or 0.0) / 1000.0,
                    attributes=dict(wire_span.get("attributes") or {}),
                )
            )
        cursor.trace = builder.finish(
            kind=timing.get("kind"),
            cache=timing.get("cache"),
            version=self._version_name,
            error=error,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<repro.server.RemoteConnection version={self._version_name!r} {state}>"

    # -- wire I/O ----------------------------------------------------------

    def _fail(self, exc: Exception) -> Exception:
        """The stream is desynchronized or dead: no later exchange can be
        trusted, so the connection closes itself before surfacing ``exc``
        (the protocol contract: framing errors drop the connection)."""
        self._closed = True
        self._drop_socket()
        return exc

    def _write_requests(self, messages: list[dict]) -> list[int]:
        """Number ``messages`` and send them in one write."""
        ids = []
        for message in messages:
            message["id"] = next(_request_ids)
            ids.append(message["id"])
        # A ProtocolError here leaves the stream in sync: nothing was sent.
        frames = b"".join(protocol.encode_frame(message) for message in messages)
        try:
            self._sock.sendall(frames)
        except OSError as exc:
            raise self._fail(
                ConnectionLostError(f"connection to server lost: {exc}")
            ) from exc
        return ids

    def _write_request(self, message: dict) -> int:
        return self._write_requests([message])[0]

    def _read_reply(self, request_id: int) -> dict:
        try:
            reply = self._reader.read()
        except ProtocolError as exc:
            raise self._fail(exc)  # garbage frame: position unknowable
        except OSError as exc:
            # Includes a request timeout: the server's late reply would
            # desynchronize every later exchange, so the connection dies.
            raise self._fail(
                ConnectionLostError(f"connection to server lost: {exc}")
            ) from exc
        if reply is None:
            raise self._fail(
                ConnectionLostError(
                    "connection to server lost: server closed the stream"
                )
            )
        if reply.get("id") != request_id:
            raise self._fail(
                ProtocolError(
                    f"response id {reply.get('id')!r} does not match "
                    f"request {request_id}"
                )
            )
        if not reply.get("ok"):
            raise protocol.exception_from(reply.get("error", {}))
        return reply

    def _request(self, message: dict) -> dict:
        with self._io_lock:
            return self._read_reply(self._write_request(message))

    # -- pipelining --------------------------------------------------------

    def pipeline(
        self, operations: Sequence[tuple[str, Sequence[Any] | None] | str]
    ) -> list[RemoteCursor]:
        """Execute a batch of statements in one round trip.

        ``operations`` is a sequence of SQL strings or ``(sql, params)``
        pairs.  All request frames go out in one ``sendall`` before any
        response is read; the server executes them in order, each
        independently (an error in one statement does not skip the rest —
        transaction semantics are exactly as if the statements had been
        sent one by one).  Returns one cursor per statement; raises the
        *first* statement error after the whole batch has been drained, so
        the stream never desynchronises.
        """
        self._check_open("pipeline")
        requests = []
        for operation in operations:
            sql, params = operation if isinstance(operation, tuple) else (operation, None)
            requests.append(
                {
                    "op": "execute",
                    "sql": sql,
                    "params": _wire_params(params),
                    "page_size": self.page_size,
                }
            )
        cursors: list[RemoteCursor] = []
        first_error: Exception | None = None
        with self._io_lock:
            ids = self._write_requests(requests)
            for request_id in ids:
                cursor = RemoteCursor(self)
                try:
                    cursor._install_reply(self._read_reply(request_id))
                except (ProtocolError, ConnectionLostError):
                    raise  # stream is unusable; no point draining
                except Exception as exc:  # noqa: BLE001 - statement-level failure
                    if first_error is None:
                        first_error = exc
                cursors.append(cursor)
        if first_error is not None:
            # The caller never sees these cursors: free their half-fetched
            # statements server-side, or they would pin open-statement
            # slots until the connection closes.
            for cursor in cursors:
                cursor._discard_statement()
            raise first_error
        return cursors

    # -- transactions ------------------------------------------------------

    def commit(self) -> None:
        self._check_open("commit")
        self._request({"op": "commit"})

    def rollback(self) -> None:
        self._check_open("rollback")
        self._request({"op": "rollback"})

    def _enter_scope(self) -> None:
        self._request({"op": "begin"})

    # -- cursors -----------------------------------------------------------

    def cursor(self) -> RemoteCursor:
        self._check_open("cursor")
        return RemoteCursor(self)

    # -- lifecycle ---------------------------------------------------------

    def _drop_socket(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Tell the server goodbye (it rolls back any open transaction and
        returns the session to the pool) and release the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            # The server acknowledges only after the rollback, so once
            # close() returns the open transaction is gone.  The wait is
            # bounded: a server that is already gone must not hang the
            # caller (the disconnect triggers the same teardown anyway).
            with self._io_lock:
                self._write_request({"op": "close"})
                self._sock.settimeout(GOODBYE_TIMEOUT)
                self._reader.read()
        except Exception:
            pass  # best effort: the server tears down on disconnect anyway
        self._drop_socket()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            if sys.is_finalizing():
                # An in-process server's threads are already gone: skip
                # the goodbye exchange, just release the socket.
                self._closed = True
                self._drop_socket()
            else:
                self.close()
        except Exception:
            pass


def connect_remote(
    host: str,
    port: int = protocol.DEFAULT_PORT,
    version: str | None = None,
    *,
    autocommit: bool = False,
    backend: str | None = None,
    page_size: int = protocol.DEFAULT_PAGE_SIZE,
    timeout: float | None = None,
    request_timeout: float | None = None,
    trace: bool = False,
    slow_ms: float | None = None,
) -> RemoteConnection:
    """Open a DB-API connection to ``version`` on a remote repro server.

    A drop-in replacement for :func:`repro.connect` when the engine lives
    in another process: same cursor surface, same transaction semantics,
    same error classes.  ``version`` may be omitted when the server has
    exactly one active schema version; ``backend`` overrides the server's
    default execution backend for this connection; ``timeout`` bounds the
    TCP connect *and* every later request round trip (``None`` = wait
    forever).

    ``request_timeout`` sets the per-request deadline separately from the
    connect timeout: a server that accepts the connection but then hangs
    (or stalls mid-reply) fails the in-flight call with a clean
    :class:`~repro.errors.OperationalError` after this many seconds
    instead of blocking ``execute()`` forever.  The connection is
    unusable afterwards — a late reply arriving after the deadline would
    desynchronize every later exchange, so the driver drops the stream
    rather than guess.  ``None`` falls back to ``timeout``.

    ``trace=True`` records a client-side span trace for every statement
    (readable from ``cursor.trace``): the trace context rides along in
    each request frame, the server continues it engine-side, and the
    reply's timing envelope splits the round trip into client, network,
    and engine spans.  ``slow_ms`` sets the client driver's slow-query
    threshold (round-trip wall time).
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise OperationalError(f"cannot reach repro server at {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(request_timeout if request_timeout is not None else timeout)
    return RemoteConnection(
        sock,
        version=version,
        autocommit=autocommit,
        backend=backend,
        page_size=page_size,
        trace=trace,
        slow_ms=slow_ms,
    )
