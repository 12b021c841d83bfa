"""PEP-249-style connections and cursors over co-existing schema versions.

``repro.connect(engine, version=...)`` binds a DB-API connection to ONE
schema version — the paper's promise that "each schema version itself
appears to the user like a full-fledged single-schema database" made
literal: the client speaks SQL, the engine routes every statement through
the generated mapping logic so writes surface (correctly transformed) in
every other co-existing version.

The module defines the access layer twice over:

- :class:`BaseConnection` / :class:`BaseCursor` — the transport-independent
  DB-API core (cursor buffering and fetch semantics, context-manager
  transaction scopes, closed-state checks that name the offending method).
  Both the in-process transport below and the network transport in
  :mod:`repro.server.client` subclass these, so the two surfaces cannot
  drift apart.
- :class:`Connection` / :class:`Cursor` — the in-process transport:
  statements are parsed and planned in the caller's process, directly
  against the engine (or its live SQLite backend).

Transactions
------------

On the **in-memory engine** writes are applied eagerly and journalled, so
transactions are undo-log-backed: ``commit()`` discards the journal,
``rollback()`` replays it backwards — undoing the write everywhere it
propagated.  Connections share the engine's single journal: a connection
whose transaction began while another connection's was open joins that
transaction and only rolls back its own suffix, and isolation is READ
UNCOMMITTED (single-process, single-writer engine).

On the **live SQLite backend** every connection has its own session,
which leases a ``sqlite3`` handle to the shared database per statement:
the backend's primary handle when it is free, else a pooled overflow
handle.  An open transaction keeps its own overflow handle until it ends,
so transactions are real and per-session: ``BEGIN``/``COMMIT``/``ROLLBACK``
run on that handle and concurrent sessions proceed in parallel.  Isolation
follows the database mode — snapshot isolation under WAL (file-backed
databases: readers never block and see committed state), READ UNCOMMITTED
on the default shared-cache in-memory database (in-flight writes are
visible across sessions, and a write conflicting with another session's
open transaction fails fast with ``OperationalError``).

Common semantics on both backends:

- with ``autocommit=False`` (the DB-API default) a transaction starts
  implicitly at the first write and ends at ``commit()``/``rollback()``;
- with ``autocommit=True`` each statement commits itself, but ``with
  conn:`` still opens an explicit transaction scope for its duration;
- ``with conn:`` commits on normal exit and rolls back on exception;
  nested ``with`` blocks join the outermost transaction (only the
  outermost block commits or rolls back);
- executing BiDEL DDL through a cursor implicitly commits EVERY open
  transaction, across all sessions (DDL is not transactional); a stale
  transaction token detects this and makes later commit/rollback inert.
"""

from __future__ import annotations

import re
import sqlite3
import time
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.catalog.versions import SchemaVersion
from repro.errors import (
    AccessError,
    CatalogError,
    ExpressionError,
    InterfaceError,
    OperationalError,
    ProgrammingError,
    SchemaError,
)
from repro.relational.types import DataType
from repro.sql.ast import BidelStatement, Check, Explain, SqlStatement
from repro.sql.parser import parse_statement
from repro.sql.plancache import DdlPlan
from repro.sql.planner import StatementResult, compile_statement_memory

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.sqlite import LiveSqliteBackend, SqliteSession
    from repro.core.engine import InVerDa


@dataclass
class _Transaction:
    journal: list | None  # engine undo log (memory backends only)
    mark: int  # journal length (memory) / session epoch (sqlite) at begin
    owner: bool  # did this connection open the engine-level journal?


def _normalize_params(parameters: Sequence[Any] | None, expected: int) -> tuple:
    if parameters is None:
        parameters = ()
    if isinstance(parameters, (str, bytes)):
        raise ProgrammingError("parameters must be a sequence of values, not a string")
    if isinstance(parameters, Mapping):
        raise ProgrammingError(
            "qmark paramstyle takes a positional sequence, not a mapping"
        )
    params = tuple(parameters)
    if len(params) != expected:
        raise ProgrammingError(
            f"statement takes {expected} parameter(s), {len(params)} given"
        )
    return params


#: Reusable no-op context for the untraced fast path (nullcontext carries
#: no state, so one instance serves every statement).
_NOOP_SPAN = nullcontext()


def _span(builder, name: str, **attributes):
    """A tracing span when a trace is active, otherwise a shared no-op."""
    if builder is None:
        return _NOOP_SPAN
    return builder.span(name, **attributes)


_EXPLAIN_PREFIX = re.compile(r"^\s*EXPLAIN\s+", re.IGNORECASE)

_EXPLAIN_DESCRIPTION = (
    ("property", DataType.TEXT, None, None, None, None, None),
    ("value", DataType.TEXT, None, None, None, None, None),
)


class ExplainPlan:
    """The compiled form of ``EXPLAIN <statement>``: wraps the inner
    statement's plan and, when run, reports its provenance — plan class,
    rendered backend SQL, the plan SQLite chose for it on this
    connection's session, the flattened view's stored SQL, and whether
    the inner statement currently sits in the shared plan cache —
    without touching any data."""

    kind = "explain"
    param_count = 0

    def __init__(self, inner):
        self.inner = inner

    def run_explain(self, connection: "Connection", operation: str) -> StatementResult:
        engine = connection.engine
        rows: list[tuple[str, str]] = [
            ("statement_kind", self.inner.kind),
            ("backend", connection.backend_name),
            ("version", connection.version_name),
            ("catalog_generation", str(engine.catalog_generation)),
        ]
        rows.extend(
            (name, str(value))
            for name, value in self.inner.explain_entries(connection._session)
        )
        view_name = getattr(self.inner, "view_name", None)
        if view_name and connection._session is not None:
            stored = connection._session.execute(
                "SELECT sql FROM sqlite_master WHERE type = 'view' AND name = ?",
                (view_name,),
            ).fetchone()
            if stored and stored[0]:
                rows.append(("view_sql", stored[0]))
        if connection._use_plan_cache:
            inner_text = _EXPLAIN_PREFIX.sub("", operation)
            key = (inner_text, connection.version_name, connection.backend_name)
            cached = engine.plan_cache.peek(key, engine.catalog_generation)
            rows.append(("plan_cached", str(cached is not None).lower()))
        else:
            rows.append(("plan_cached", "off"))
        return StatementResult(
            description=_EXPLAIN_DESCRIPTION, rows=rows, rowcount=len(rows)
        )


_CHECK_DESCRIPTION = (
    ("code", DataType.TEXT, None, None, None, None, None),
    ("severity", DataType.TEXT, None, None, None, None, None),
    ("object", DataType.TEXT, None, None, None, None, None),
    ("message", DataType.TEXT, None, None, None, None, None),
)


class CheckPlan:
    """The compiled form of ``CHECK <bidel script>``: runs the static
    pre-flight analyzer over the wrapped script against the current
    catalog and reports one row per diagnostic.  Nothing is executed and
    nothing is mutated — the catalog generation, the plan cache, and the
    workload data stay exactly as they were."""

    kind = "check"
    param_count = 0

    def __init__(self, script: str):
        self.script = script

    def run_check(self, connection: "Connection", operation: str) -> StatementResult:
        from repro.check.diagnostics import record_findings
        from repro.check.preflight import preflight_script

        engine = connection.engine
        diagnostics = preflight_script(engine, self.script)
        record_findings(engine, diagnostics, scope="check-statement")
        rows = [d.as_row() for d in diagnostics]
        return StatementResult(
            description=_CHECK_DESCRIPTION, rows=rows, rowcount=len(rows)
        )


@contextmanager
def _translated_errors():
    """Surface engine-level and backend failures as DB-API error classes."""
    try:
        yield
    except (SchemaError, ExpressionError, CatalogError) as exc:
        raise ProgrammingError(str(exc)) from exc
    except AccessError as exc:
        raise OperationalError(str(exc)) from exc
    except sqlite3.Error as exc:
        raise OperationalError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Transport-independent DB-API core
# ---------------------------------------------------------------------------


class BaseCursor:
    """The transport-independent half of a DB-API cursor.

    Subclasses implement :meth:`execute` / :meth:`executemany` (filling the
    row buffer via :meth:`_install_result`) and, for paged transports,
    :meth:`_fetch_more`.  Fetch semantics, iteration, and closed-state
    checks live here so every transport behaves identically.
    """

    def __init__(self, connection: "BaseConnection"):
        self._connection = connection
        self._closed = False
        self.arraysize = 1
        self._description: tuple[tuple, ...] | None = None
        self._rowcount = -1
        self._lastrowid: int | None = None
        self._buffer: list[tuple] = []  # fetched rows
        self._pos = 0  # next unconsumed row in the buffer (O(1) fetchone)
        self._exhausted = True  # no further rows beyond the buffer
        #: The finished trace of the last executed statement (a
        #: :class:`repro.obs.Trace`), or ``None`` when untraced.
        self.trace = None
        #: Plan-cache outcome of the last statement: hit | miss | off.
        self.cache_event: str | None = None
        #: Statement kind of the last execute (select | insert | ...).
        self.statement_kind: str | None = None

    # -- metadata ----------------------------------------------------------

    @property
    def connection(self) -> "BaseConnection":
        return self._connection

    @property
    def description(self) -> tuple[tuple, ...] | None:
        return self._description

    @property
    def rowcount(self) -> int:
        return self._rowcount

    @property
    def lastrowid(self) -> int | None:
        return self._lastrowid

    @property
    def rows_pending(self) -> bool:
        """Whether further ``fetch*`` calls can still return rows (the
        network server uses this to decide if a statement needs paging)."""
        return self._pos < len(self._buffer) or not self._exhausted

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._install_result(StatementResult())

    def _check_open(self, operation: str) -> "BaseConnection":
        """Fail with the *offending method's name* when closed."""
        if self._closed:
            raise InterfaceError(f"{operation}(): cannot operate on a closed cursor")
        connection = self._connection
        connection._check_open(operation)
        return connection

    def _install_result(self, result: StatementResult, *, exhausted: bool = True) -> None:
        self._description = result.description
        self._rowcount = result.rowcount
        self._lastrowid = result.lastrowid
        self._buffer = list(result.rows)
        self._pos = 0
        self._exhausted = exhausted

    # -- execution (transport-specific) ------------------------------------

    def execute(self, operation: str, parameters: Sequence[Any] | None = None) -> "BaseCursor":
        raise NotImplementedError

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> "BaseCursor":
        raise NotImplementedError

    # -- fetching ----------------------------------------------------------

    def _fetch_more(self, size: int) -> list[tuple]:
        """Pull up to ``size`` further rows from the transport.  The
        in-process transport buffers complete results, so the default is
        empty; the network transport pages rows from the server here."""
        return []

    def _remaining(self) -> int:
        return len(self._buffer) - self._pos

    def _compact(self) -> None:
        """Release consumed rows once they are at least half the buffer:
        amortized O(1) per row, so paged consumers (the network server
        streaming a result to a slow client) hold at most ~2x the
        *remaining* rows in memory, never the full result."""
        if self._pos and self._pos * 2 >= len(self._buffer):
            del self._buffer[: self._pos]
            self._pos = 0

    def _refill(self, want: int) -> None:
        if self._exhausted or self._remaining() >= want:
            return
        if self._pos:  # drop consumed rows before growing the buffer
            del self._buffer[: self._pos]
            self._pos = 0
        while not self._exhausted and len(self._buffer) < want:
            page = self._fetch_more(max(want - len(self._buffer), 1))
            if not page:
                self._exhausted = True
                break
            self._buffer.extend(page)

    def fetchone(self) -> tuple | None:
        self._check_open("fetchone")
        self._refill(1)
        if self._pos >= len(self._buffer):
            return None
        row = self._buffer[self._pos]
        self._pos += 1
        self._compact()
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        self._check_open("fetchmany")
        if size is None:
            size = self.arraysize
        size = max(size, 0)  # a negative size must never rewind the cursor
        self._refill(size)
        rows = self._buffer[self._pos : self._pos + size]
        self._pos += len(rows)
        self._compact()
        return rows

    def fetchall(self) -> list[tuple]:
        self._check_open("fetchall")
        while not self._exhausted:
            page = self._fetch_more(max(self.arraysize, 1))
            if not page:
                break
            self._buffer.extend(page)
        self._exhausted = True
        rows = self._buffer[self._pos :]
        self._buffer = []
        self._pos = 0
        return rows

    def __iter__(self) -> Iterator[tuple]:
        while (row := self.fetchone()) is not None:
            yield row

    # -- PEP 249 no-ops ----------------------------------------------------

    def setinputsizes(self, sizes) -> None:  # noqa: D102 - PEP 249
        pass

    def setoutputsize(self, size, column=None) -> None:  # noqa: D102 - PEP 249
        pass


class BaseConnection:
    """The transport-independent half of a DB-API connection.

    Subclasses provide :meth:`cursor`, :meth:`commit`, :meth:`rollback`,
    :meth:`close`, the :attr:`in_transaction` property, and
    :meth:`_enter_scope` (open the explicit transaction of a ``with``
    block).  The shared surface — execute shortcuts, context-manager
    semantics, closed-state checks naming the offending method — lives
    here.
    """

    def __init__(self, *, autocommit: bool = False):
        self.autocommit = autocommit
        self._closed = False
        self._with_depth = 0

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self, operation: str) -> None:
        if self._closed:
            raise InterfaceError(
                f"{operation}(): cannot operate on a closed connection"
            )

    def close(self) -> None:
        raise NotImplementedError

    def cursor(self) -> BaseCursor:
        raise NotImplementedError

    # -- statement shortcuts -----------------------------------------------

    def execute(self, operation: str, parameters: Sequence[Any] | None = None) -> BaseCursor:
        """Shortcut: a fresh cursor with ``operation`` already executed."""
        self._check_open("execute")
        return self.cursor().execute(operation, parameters)

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> BaseCursor:
        self._check_open("executemany")
        return self.cursor().executemany(operation, seq_of_parameters)

    # -- transactions ------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        raise NotImplementedError

    def commit(self) -> None:
        raise NotImplementedError

    def rollback(self) -> None:
        raise NotImplementedError

    def _enter_scope(self) -> None:
        """Open the explicit transaction scope of a ``with`` block."""
        raise NotImplementedError

    def __enter__(self) -> "BaseConnection":
        self._check_open("__enter__")
        self._with_depth += 1
        self._enter_scope()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._with_depth -= 1
        if self._with_depth == 0 and not self._closed:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False


# ---------------------------------------------------------------------------
# In-process transport
# ---------------------------------------------------------------------------


class Cursor(BaseCursor):
    """A DB-API cursor bound to its connection's schema version."""

    _connection: "Connection"

    # -- execution ---------------------------------------------------------

    def execute(self, operation: str, parameters: Sequence[Any] | None = None) -> "Cursor":
        """Execute one SQL statement (or a BiDEL DDL script).

        Statements are planned through the engine's shared
        :class:`~repro.sql.plancache.PlanCache`: a repeated statement text
        on the same version and backend skips parsing and planner lowering
        entirely (plans are tagged with the catalog generation, so DDL on
        any connection invalidates them).

        Every statement lands in the engine's metrics registry (latency,
        workload, error counters); spans are recorded only when tracing is
        on for this connection/engine or the statement arrived with a
        remote trace context."""
        return self._run_statement("execute", self._execute_inner, operation, parameters)

    def _run_statement(self, name: str, inner, operation: str, argument) -> "Cursor":
        """The wrapper every statement runs in: open check, result reset,
        trace, timing, and the metrics/trace bookkeeping on both exits.
        ``inner`` does the work and returns the statement kind."""
        connection = self._check_open(name)
        self._install_result(StatementResult())
        self.trace = None
        self.cache_event = None
        builder = connection._begin_statement_trace(operation)
        started = time.perf_counter()
        kind = "unknown"
        try:
            kind = inner(connection, connection.engine, builder, operation, argument)
        except BaseException:
            connection._finish_statement(self, operation, kind, started, builder,
                                         error=True)
            raise
        connection._finish_statement(self, operation, kind, started, builder)
        return self

    def _plan(self, connection, builder, operation):
        """Plan ``operation`` through the shared cache, noting how."""
        with _span(builder, "plan"):
            plan, cached = connection._plan_for(operation)
        self.cache_event = (
            "hit" if cached else ("miss" if connection._use_plan_cache else "off")
        )
        return plan

    def _execute_inner(self, connection, engine, builder, operation,
                       parameters) -> str:
        with engine.catalog_lock.read_locked(), connection._lease():
            plan = self._plan(connection, builder, operation)
            if plan.kind == "explain":
                with _translated_errors():
                    self._install_result(plan.run_explain(connection, operation))
                engine.workload.record(connection.version_name, "explain")
                return "explain"
            if plan.kind == "check":
                with _translated_errors():
                    self._install_result(plan.run_check(connection, operation))
                engine.workload.record(connection.version_name, "check")
                return "check"
            if plan.kind != "ddl":
                params = _normalize_params(parameters, plan.param_count)
                if plan.kind == "select":
                    with connection._execute_span(builder), _translated_errors():
                        self._install_result(connection._run_plan(plan, params))
                    engine.workload.record(connection.version_name, "select")
                    return "select"
                with connection._execute_span(
                    builder
                ), connection._write_scope(), _translated_errors():
                    self._install_result(connection._run_plan(plan, params))
                engine.workload.record(connection.version_name, plan.kind)
                return plan.kind
        # BiDEL DDL runs outside the read scope: the engine takes the
        # catalog write lock itself.  DDL is not transactional: it
        # implicitly commits EVERY open transaction. A journal kept across
        # a migration would name physical tables the swap may drop, making
        # rollback a lie.
        _normalize_params(parameters, plan.param_count)
        with _span(builder, "commit"):
            connection.commit()
            connection._force_end_transactions()
        with _span(builder, "execute", backend="engine"), _translated_errors():
            engine.execute(plan.statement.text)
        engine.workload.record(connection.version_name, "ddl")
        return "ddl"

    def executemany(
        self, operation: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> "Cursor":
        """Execute a DML statement once per parameter row, atomically.

        The statement is planned ONCE (via the shared plan cache) and only
        parameter binding varies per row.  INSERTs take a batched fast
        path on both backends: the in-memory engine applies the whole
        batch as a single change set (one propagation pass through the
        version genealogy), the SQLite backend issues one multi-row
        ``executemany`` against the generated view.  Everything else runs
        row by row inside one atomic scope. Either way, an error in the
        middle of the batch undoes the whole batch.
        """
        return self._run_statement(
            "executemany", self._executemany_inner, operation, seq_of_parameters
        )

    def _executemany_inner(self, connection, engine, builder, operation,
                           seq_of_parameters) -> str:
        seq_of_parameters = list(seq_of_parameters)
        with engine.catalog_lock.read_locked(), connection._lease():
            plan = self._plan(connection, builder, operation)
            if plan.kind in ("select", "ddl", "explain", "check"):
                raise ProgrammingError("executemany() only accepts DML statements")
            if plan.kind == "insert":
                normalized = [
                    _normalize_params(parameters, plan.param_count)
                    for parameters in seq_of_parameters
                ]
                with connection._execute_span(
                    builder, batch=len(normalized)
                ), connection._write_scope(), _translated_errors():
                    self._install_result(
                        connection._run_plan_many(plan, normalized)
                    )
            else:
                total = 0
                lastrowid: int | None = None
                with connection._execute_span(
                    builder, batch=len(seq_of_parameters)
                ), connection._write_scope(), _translated_errors():
                    for parameters in seq_of_parameters:
                        params = _normalize_params(parameters, plan.param_count)
                        result = connection._run_plan(plan, params)
                        total += max(result.rowcount, 0)
                        if result.lastrowid is not None:
                            lastrowid = result.lastrowid
                self._install_result(
                    StatementResult(rowcount=total, lastrowid=lastrowid)
                )
            engine.workload.record(
                connection.version_name, plan.kind, len(seq_of_parameters)
            )
            return plan.kind


class Connection(BaseConnection):
    """A DB-API connection to one co-existing schema version."""

    def __init__(
        self,
        engine: "InVerDa",
        version: SchemaVersion,
        *,
        autocommit: bool = False,
        backend: "LiveSqliteBackend | None" = None,
        plan_cache: bool = True,
        trace: bool = False,
        slow_ms: float | None = None,
    ):
        super().__init__(autocommit=autocommit)
        self.engine = engine
        self._version = version
        self._backend = backend
        self._use_plan_cache = plan_cache
        self._trace = trace
        self._slow_ms = slow_ms
        #: One-shot remote trace context ``(trace_id, parent_span_id)``;
        #: the network server sets it right before executing a statement
        #: that arrived with a client-side trace, so the engine-side spans
        #: join the client's trace instead of starting their own.
        self._trace_context: tuple[str, str] | None = None
        # Metric families are resolved once per connection, not per
        # statement — the hot path only pays dict-free method calls.
        metrics = engine.metrics
        self._m_latency = metrics.histogram(
            "repro_statement_latency_seconds",
            "Statement wall time by schema version, statement kind, and "
            "plan-cache outcome.",
            ("version", "kind", "cache"),
        )
        self._latency_series: dict = {}  # (kind, cache) -> its series, bound once
        self._m_errors = metrics.counter(
            "repro_statement_errors_total",
            "Statements that raised, by schema version.",
            ("version",),
        )
        self._m_slow = metrics.counter(
            "repro_slow_statements_total",
            "Statements exceeding the slow-query threshold, by version.",
            ("version",),
        )
        # On the live backend every connection has its own session, which
        # leases a handle per statement and per transaction.
        self._session: "SqliteSession | None" = (
            backend.open_session() if backend is not None else None
        )
        self._txn: _Transaction | None = None

    # -- metadata ----------------------------------------------------------

    @property
    def version_name(self) -> str:
        return self._version.name

    @property
    def backend_name(self) -> str:
        return "memory" if self._backend is None else "sqlite"

    @property
    def in_transaction(self) -> bool:
        if self._txn is None:
            return False
        if (
            self._session is not None
            and self._session.transaction_epoch != self._txn.mark
        ):
            # The transaction was force-ended (catalog transition or
            # backend shutdown); report reality, not the stale token.
            return False
        return True

    # -- statement dispatch ------------------------------------------------

    def _plan_for(self, operation: str):
        """The compiled plan for ``operation`` — from the engine's shared
        plan cache when possible, else parsed and lowered now (and cached
        for the next statement).  Must run under the catalog read lock so
        the generation tag is stable while the plan is compiled and used.
        Returns ``(plan, cached)`` where ``cached`` reports a cache hit."""
        if self._version.dropped:
            # Without this guard a session pinned to a dropped version
            # could keep executing statements against table versions the
            # dropped version *shares* with surviving ones (their views
            # outlive the drop).  The documented contract — and what the
            # network server already enforces — is a clean OperationalError.
            raise OperationalError(
                f"schema version {self._version.name!r} was dropped; close "
                "this connection and reconnect to a live version"
            )
        engine = self.engine
        cache = engine.plan_cache if self._use_plan_cache else None
        generation = engine.catalog_generation
        key = (operation, self._version.name, self.backend_name)
        if cache is not None:
            plan = cache.get(key, generation)
            if plan is not None:
                self._check_data_plane(plan)
                return plan, True
        statement = parse_statement(operation)
        with _translated_errors():
            plan = self._compile(statement)
        if cache is not None and plan.kind not in ("ddl", "explain", "check"):
            # DDL executions bump the generation and clear the cache, so a
            # DDL entry could never be hit again — don't churn LRU slots
            # that could hold hot DML plans (re-parse is already cheap via
            # the parser's own text cache).  EXPLAIN is an introspection
            # one-off: caching it would shadow the inner statement's own
            # cache status, which is exactly what it reports.
            cache.put(key, generation, plan)
        return plan, False

    def _check_data_plane(self, plan) -> None:
        """A cached plan must honour the same guard a fresh compile does:
        once a live backend owns the data plane, a connection still bound
        to the in-memory snapshot may not serve (stale) data — only DDL,
        which runs through the engine, is still allowed."""
        if plan.kind != "ddl" and self._session is None:
            _require_memory_plane(self.engine)

    def _compile(self, statement: SqlStatement):
        if isinstance(statement, BidelStatement):
            return DdlPlan(statement)
        if isinstance(statement, Explain):
            return ExplainPlan(self._compile(statement.statement))
        if isinstance(statement, Check):
            # Compiled before the stale-session guard: CHECK reads only
            # the catalog, never the data plane, so a pre-attach
            # connection may still run it (like DDL and EXPLAIN over it).
            return CheckPlan(statement.script)
        if self._session is None:
            # A connection that predates the backend attach (or outlived
            # the backend) must refuse rather than silently diverge from
            # the SQLite state.
            _require_memory_plane(self.engine)
            return compile_statement_memory(self._version, statement)
        from repro.backend.planner import compile_statement_sqlite

        return compile_statement_sqlite(self._version, statement)

    def _lease(self):
        """The scope of a data-plane statement's handle lease: the first
        thing the statement runs on the session leases a handle, and the
        scope's end returns it.  BiDEL DDL runs nothing on the session,
        so it leases nothing."""
        return _NOOP_SPAN if self._session is None else self._session

    def _run_plan(self, plan, params: tuple) -> StatementResult:
        if self._session is None:
            return plan.run(self.engine, params)
        return plan.run(self._session, params)

    def _run_plan_many(self, plan, seq_of_parameters) -> StatementResult:
        if self._session is None:
            return plan.run_many(self.engine, seq_of_parameters)
        return plan.run_many(self._session, seq_of_parameters)

    # -- statement instrumentation -----------------------------------------

    def _begin_statement_trace(self, operation: str):
        """A :class:`~repro.obs.TraceBuilder` for this statement, or
        ``None`` on the untraced fast path.  A pending remote trace
        context (set by the network server) always wins: the engine-side
        spans join the client's trace."""
        context, self._trace_context = self._trace_context, None
        tracer = self.engine.tracer
        if context is not None:
            builder = tracer.begin(
                "engine.statement", trace_id=context[0], parent_id=context[1]
            )
        elif self._trace or tracer.enabled:
            builder = tracer.begin("statement")
        else:
            return None
        builder.root.attributes["sql"] = operation
        return builder

    def _execute_span(self, builder, **attributes):
        """The ``execute`` span around a data-plane statement — a shared
        no-op when untraced.  On the live backend it also counts, as
        ``sqlite_statements``, everything SQLite ran on the session's
        lease meanwhile: the scope's own BEGIN / COMMIT / savepoint
        statements and every trigger statement of the cascade."""
        if builder is None:
            return _NOOP_SPAN
        span = builder.span("execute", backend=self.backend_name, **attributes)
        return span if self._session is None else self._counting(span)

    @contextmanager
    def _counting(self, span):
        session, events = self._session, 0

        def count(_text):
            nonlocal events
            events += 1

        with span as execute:
            previous = session.set_trace_callback(count)
            try:
                yield
            finally:
                execute.attributes["sqlite_statements"] = events
                if not session.closed:
                    session.set_trace_callback(previous)

    def _finish_statement(self, cursor: BaseCursor, operation: str, kind: str,
                          started: float, builder, *, error: bool = False) -> None:
        """Record the statement's metrics (latency or error counter, slow
        log) and, when traced, close the trace onto the cursor."""
        duration = time.perf_counter() - started
        version = self.version_name
        cursor.statement_kind = kind
        cache = cursor.cache_event or "off"
        if error:
            self._m_errors.inc(version=version)
        else:
            series = self._latency_series.get((kind, cache))
            if series is None:
                series = self._latency_series[kind, cache] = self._m_latency.bound(
                    version=version, kind=kind, cache=cache
                )
            series.observe(duration)
        slow = self.engine.tracer.note_statement(
            operation, version, duration,
            threshold_ms=self._slow_ms,
            trace_id=builder.trace_id if builder is not None else None,
        )
        if slow is not None:
            self._m_slow.inc(version=version)
        if builder is not None:
            cursor.trace = builder.finish(
                kind=kind, cache=cache, version=version, error=error
            )

    def stats(self) -> dict:
        """Unified observability snapshot (``repro.obs/1``): plan-cache
        counters, catalog durability facts (generation, fingerprint,
        on-disk staleness), workload and tracing summaries, the full
        metrics snapshot, and — on the live backend — the session pool's
        occupancy."""
        from repro.obs import engine_snapshot

        return engine_snapshot(self.engine, backend=self._backend)

    def _force_end_transactions(self) -> None:
        """DDL implicitly commits every open transaction, including other
        connections' (they will find their journal gone).  Backend
        sessions are quiesced by the engine itself, under the catalog
        write lock, before it touches the catalog."""
        if self._backend is None:
            self.engine._undo_log = None

    def table_names(self) -> list[str]:
        return self._version.table_names()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<repro.sql.Connection version={self.version_name!r} {state}>"

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction (its handle returns to the
        pool), close the backend session, and close the connection."""
        if self._closed:
            return
        if self._txn is not None:
            self.rollback()
        self._closed = True
        if self._session is not None:
            self._session.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown or an already-closed pool

    # -- cursors -----------------------------------------------------------

    def cursor(self) -> Cursor:
        self._check_open("cursor")
        return Cursor(self)

    # -- transactions ------------------------------------------------------

    def _begin(self) -> None:
        if self._txn is not None:
            if (
                self._session is not None
                and self._session.transaction_epoch != self._txn.mark
            ):
                self._txn = None  # force-ended; a fresh transaction begins
            else:
                return
        if self._session is not None:
            with _translated_errors():
                self._session.begin()
            self._txn = _Transaction(
                journal=None, mark=self._session.transaction_epoch, owner=True
            )
            return
        log = self.engine._undo_log
        if log is None:
            log = []
            self.engine._undo_log = log
            self._txn = _Transaction(journal=log, mark=0, owner=True)
        else:
            self._txn = _Transaction(journal=log, mark=len(log), owner=False)

    def commit(self) -> None:
        """End the current transaction, keeping its writes."""
        self._check_open("commit")
        if self._txn is None:
            return
        if self._session is not None:
            self._txn, txn = None, self._txn
            if self._session.transaction_epoch != txn.mark:
                return  # the transaction this token names already ended
            with self.engine.catalog_lock.read_locked(), _translated_errors():
                self._session.commit()
            return
        if self._txn.owner and self.engine._undo_log is self._txn.journal:
            self.engine._undo_log = None
        self._txn = None

    def rollback(self) -> None:
        """Undo every write of the current transaction — including its
        propagated effects in all other schema versions."""
        self._check_open("rollback")
        if self._txn is None:
            return
        if self._session is not None:
            self._txn, txn = None, self._txn
            if self._session.transaction_epoch != txn.mark:
                return  # the transaction this token names already ended
            with self.engine.catalog_lock.read_locked(), _translated_errors():
                self._session.rollback()
            return
        # Only touch the journal this transaction actually wrote into. If
        # it is gone (the owning connection committed or rolled back), the
        # joined transaction ended with it and there is nothing to undo —
        # a mark into a NEWER journal would erase someone else's writes.
        if self.engine._undo_log is self._txn.journal:
            self.engine._rollback_to(self._txn.mark)
            if self._txn.owner:
                self.engine._undo_log = None
        self._txn = None

    @contextmanager
    def _write_scope(self):
        """Statement-level atomicity around a write.

        Opens the implicit transaction when not in autocommit mode; a
        failure mid-statement (or mid-executemany-batch) never leaves
        partial effects behind."""
        self._check_open("execute")
        if not self.autocommit:
            self._begin()
        if self._session is not None:
            # Both forms run on this connection's OWN lease — the
            # statement's, or its open transaction's — so conflicts with
            # other sessions surface as SQLite lock errors, not silent
            # joins.
            session = self._session
            if self.autocommit and not session.in_transaction:
                # The statement is the transaction — success commits it,
                # any failure rolls it back, which undoes exactly the
                # statement (or executemany batch).  It takes the
                # backend's write lock up front: routed writes read the
                # view before the trigger writes, and that deferred
                # upgrade loses a WAL snapshot race against any
                # concurrent writer (e.g. an online backfill chunk) as an
                # immediate, untimed-out lock error.  It queues for the
                # backend write *gate* first — waiters on a Python lock
                # are woken the moment the holder releases, where
                # SQLite's busy handler would poll and starve behind a
                # back-to-back backfill chunk loop.
                with session.backend.write_gate:
                    with _translated_errors():
                        session.begin_immediate()
                    try:
                        yield
                        with _translated_errors():
                            session.commit()
                    except BaseException:
                        if not session.closed:
                            session.rollback()
                        raise
                return
            # Inside a transaction a savepoint bounds the statement's
            # effects.  The name is fixed, so its texts are prepared once
            # per handle; SQLite nests equal names, and ROLLBACK TO /
            # RELEASE address the innermost.
            with _translated_errors():
                session.execute("SAVEPOINT repro_stmt")
            try:
                yield
            except BaseException:
                if not session.closed:
                    session.execute("ROLLBACK TO repro_stmt")
                    session.execute("RELEASE repro_stmt")
                raise
            with _translated_errors():
                session.execute("RELEASE repro_stmt")
            return
        engine = self.engine
        if engine._undo_log is None:
            engine._undo_log = []
            try:
                yield
            except BaseException:
                engine._rollback_to(0)
                raise
            finally:
                engine._undo_log = None
        else:
            mark = len(engine._undo_log)
            try:
                yield
            except BaseException:
                engine._rollback_to(mark)
                raise
            else:
                if self.autocommit and self._txn is None:
                    # An autocommit statement ran while another
                    # connection's transaction holds the journal: commit
                    # it NOW by dropping its undo entries, so the foreign
                    # rollback cannot erase a self-committed write.
                    del engine._undo_log[mark:]

    def _enter_scope(self) -> None:
        with self.engine.catalog_lock.read_locked():
            self._begin()


def _require_memory_plane(engine: "InVerDa") -> None:
    """Refuse to serve a statement from the engine's in-memory tables once
    they no longer hold the rows: while a live backend owns the data
    plane, and — the attach having handed the rows over — after that
    backend was closed.  (DDL and ``CHECK`` read the catalog only and
    never come here.)"""
    if engine.live_backend is not None:
        raise InterfaceError(
            "a live execution backend owns this engine's data plane; its "
            "in-memory tables are empty — connect with backend='sqlite'"
        )
    if engine.rows_handed_over:
        raise InterfaceError(
            "this engine's rows live in the database its (now closed) live "
            "backend was attached to; its in-memory tables are empty — "
            "reopen that file with repro.open(path)"
        )


def _resolve_backend(engine: "InVerDa", backend) -> "LiveSqliteBackend | None":
    from repro.backend.sqlite import LiveSqliteBackend

    if backend is None:
        return engine.live_backend
    if isinstance(backend, LiveSqliteBackend):
        return backend
    if backend == "memory":
        _require_memory_plane(engine)
        return None
    if backend == "sqlite":
        live = engine.live_backend
        if live is not None:
            return live
        return LiveSqliteBackend.attach(engine)
    raise InterfaceError(f"unknown backend {backend!r}; use 'memory' or 'sqlite'")


def connect(
    engine: "InVerDa",
    version: str | None = None,
    *,
    autocommit: bool = False,
    backend: str | None = None,
    plan_cache: bool = True,
    trace: bool = False,
    slow_ms: float | None = None,
) -> Connection:
    """Open a DB-API connection to ``version`` of ``engine``.

    ``version`` may be omitted when exactly one schema version is active.
    With ``autocommit=True`` every statement commits itself; explicit
    transaction scopes are still available via ``with conn:``.

    ``backend`` selects the execution engine: ``"memory"`` plans
    statements onto the pure-Python engine, ``"sqlite"`` executes them on
    the live SQLite backend (attaching one on first use) where generated
    views and INSTEAD OF triggers serve reads and writes inside SQLite.
    The default is the engine's attached backend, if any, else memory.

    ``plan_cache=False`` opts this connection out of the engine's shared
    statement-plan cache (every execute re-parses and re-plans; used by
    the fig16 benchmark to measure the cold path).

    ``trace=True`` records a span trace for every statement on this
    connection (readable from ``cursor.trace``) even when the engine's
    tracer is otherwise disabled.  ``slow_ms`` sets a per-connection
    slow-query threshold: statements slower than this land in the
    engine tracer's slow-query ring buffer.
    """
    schema_version = resolve_schema_version(engine, version)
    resolved = _resolve_backend(engine, backend)
    return Connection(
        engine,
        schema_version,
        autocommit=autocommit,
        backend=resolved,
        plan_cache=plan_cache,
        trace=trace,
        slow_ms=slow_ms,
    )


def resolve_schema_version(engine: "InVerDa", version: str | None) -> SchemaVersion:
    """Resolve ``version`` (or the sole active version when ``None``) to
    its :class:`SchemaVersion`; shared by both transports' connects.
    Unknown names surface as :class:`InterfaceError`."""
    if version is None:
        names = engine.version_names()
        if len(names) != 1:
            raise InterfaceError(
                "version= is required when the engine has "
                f"{len(names)} active schema versions ({', '.join(names) or 'none'})"
            )
        version = names[0]
    try:
        return engine.genealogy.schema_version(version)
    except CatalogError as exc:
        raise InterfaceError(str(exc)) from exc


def resolve_version_name(engine: "InVerDa", version: str | None) -> str:
    """Like :func:`resolve_schema_version`, returning just the name."""
    return resolve_schema_version(engine, version).name
