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

One protocol, on either engine: every connection holds a *session* —
:class:`~repro.core.session.MemorySession` on the in-memory engine,
:class:`~repro.backend.sqlite.SqliteSession` on the live SQLite backend
— and drives its transactions only through it:

- with ``autocommit=False`` (the DB-API default) a transaction starts
  implicitly at the first write and ends at ``commit()``/``rollback()``;
- with ``autocommit=True`` each statement commits itself, but ``with
  conn:`` still opens an explicit transaction scope for its duration;
- ``with conn:`` commits on normal exit and rolls back on exception;
  nested ``with`` blocks join the outermost transaction (only the
  outermost block commits or rolls back);
- a write is atomic: a failure mid-statement (or mid-batch) leaves no
  partial effects, inside a transaction or not;
- ``rollback()`` undoes a write everywhere it propagated;
- executing BiDEL DDL — through a cursor or the engine — implicitly
  commits EVERY open transaction, across all sessions (DDL is not
  transactional); the session's ``transaction_epoch`` moves, so the
  connection's stale token makes a later commit/rollback inert.

The two engines differ in isolation only.  The memory engine is
single-writer and READ UNCOMMITTED: writes land eagerly in shared
tables, so a transaction begun while another is open *joins* it and its
rollback undoes the shared journal's suffix since it joined (see
:mod:`repro.core.session`).  On SQLite each transaction is real and
per-session, on its own leased handle: snapshot isolation under WAL
(file-backed databases), READ UNCOMMITTED on the default shared-cache
in-memory database, where a write conflicting with another session's
open transaction fails fast with ``OperationalError``.
"""

from __future__ import annotations

import re
import sqlite3
from collections.abc import Iterator, Mapping, Sequence
from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.catalog.versions import SchemaVersion
from repro.core.session import MemorySession
from repro.errors import (
    AccessError,
    CatalogError,
    EvolutionError,
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
from repro.sql.planner import StatementResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.sqlite import SqliteSession
    from repro.core.engine import InVerDa


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


def _run_each(plan, session, seq_of_parameters) -> StatementResult:
    """A non-INSERT ``executemany``: the plan once per parameter row."""
    total = 0
    lastrowid: int | None = None
    for parameters in seq_of_parameters:
        result = plan.run(session, _normalize_params(parameters, plan.param_count))
        total += max(result.rowcount, 0)
        if result.lastrowid is not None:
            lastrowid = result.lastrowid
    return StatementResult(rowcount=total, lastrowid=lastrowid)


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
        if connection._use_plan_cache:
            key = connection._plan_key(_EXPLAIN_PREFIX.sub("", operation))
            cached = engine.plan_cache.peek(key)
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


def _translated(exc: BaseException) -> Exception | None:
    """The DB-API error an engine-level or backend failure surfaces as, or
    ``None`` for one that passes through as it is."""
    if isinstance(exc, (SchemaError, ExpressionError, CatalogError, EvolutionError)):
        return ProgrammingError(str(exc))
    if isinstance(exc, (AccessError, sqlite3.Error)):
        return OperationalError(str(exc))
    return None


def _surfaced(call) -> None:
    """``call()``, its failures surfaced as :func:`_translated` says."""
    try:
        call()
    except Exception as exc:
        translated = _translated(exc)
        if translated is None:
            raise
        raise translated from exc


_DATA_KINDS = frozenset({"select", "insert", "update", "delete"})


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
        """Take ``result``, its row list as the buffer (a plan's own)."""
        rows = result.rows
        self._description = result.description
        self._rowcount = result.rowcount
        self._lastrowid = result.lastrowid
        self._buffer = rows if type(rows) is list else list(rows)
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
        entirely, also right after DDL on any connection (a plan lives as
        long as its schema version).

        Every statement lands in the engine's metrics registry (latency,
        workload, error counters); spans are recorded only when tracing is
        on for this connection/engine or the statement arrived with a
        remote trace context."""
        return self._run_statement("execute", operation, parameters)

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
        return self._run_statement("executemany", operation, seq_of_parameters)

    def _run_statement(self, name: str, operation: str, argument) -> "Cursor":
        """The one path every statement takes, traced or not: open check,
        plan, run under the catalog read lock, one result install, and the
        statement's metrics (and trace) on both exits.  Engine and backend
        failures surface as DB-API errors; a failed statement leaves the
        cursor without a result."""
        connection = self._connection
        if self._closed or connection._closed:
            self._check_open(name)
        self.trace = self.cache_event = None
        engine = connection.engine
        builder = None
        if connection._trace or connection._trace_context or engine.tracer.enabled:
            builder = connection._begin_statement_trace(operation)
        started = perf_counter()
        kind, count = "unknown", 1
        many = name == "executemany"
        try:
            if many:
                argument = list(argument)
                count = len(argument)
            with engine.catalog_lock:
                if builder is None:
                    plan, cached = connection._plan_for(operation)
                else:
                    with builder.span("plan"):
                        plan, cached = connection._plan_for(operation)
                self.cache_event = "hit" if cached else (
                    "miss" if connection._use_plan_cache else "off"
                )
                kind = plan.kind
                if many and kind not in ("insert", "update", "delete"):
                    raise ProgrammingError("executemany() only accepts DML statements")
                if kind in _DATA_KINDS:
                    self._run_data(connection, builder, plan, argument, many)
                elif kind == "check":
                    self._install_result(plan.run_check(connection, operation))
                elif kind == "explain":
                    with connection._session:
                        self._install_result(plan.run_explain(connection, operation))
            if kind == "ddl":
                self._run_ddl(connection, builder, plan, argument)
        except BaseException as exc:
            self._install_result(StatementResult())
            connection._finish_statement(
                self, operation, kind, count, started, builder, error=True
            )
            translated = _translated(exc)
            if translated is None:
                raise
            raise translated from exc
        connection._finish_statement(self, operation, kind, count, started, builder)
        return self

    def _run_data(self, connection, builder, plan, argument, many: bool) -> None:
        """A data-plane statement in one scope of the session.  Traced, it
        runs in the ``execute`` span, which the session makes count (as
        ``sqlite_statements`` on the live backend) what SQLite ran on its
        lease: the write's own BEGIN / COMMIT / savepoint statements and
        every trigger statement of the cascade."""
        session = connection._session
        with session:
            if builder is None:
                result = self._run_plan(connection, session, plan, argument, many)
            else:
                span = builder.span("execute", backend=session.backend_name,
                                    **({"batch": len(argument)} if many else {}))
                with session.counting(span):
                    result = self._run_plan(connection, session, plan, argument, many)
        self._install_result(result)

    @staticmethod
    def _run_plan(connection, session, plan, argument, many: bool) -> StatementResult:
        """A read as it is; a write as one atomic write of the session,
        after the implicit transaction begins (not in autocommit mode)."""
        if not many:
            params = argument
            if type(params) is not tuple or len(params) != plan.param_count:
                params = _normalize_params(params, plan.param_count)
            if plan.kind == "select":
                return plan.run(session, params)
            run, args = plan.run, (session, params)
        elif plan.kind == "insert":
            normalized = [_normalize_params(row, plan.param_count) for row in argument]
            run, args = plan.run_many, (session, normalized)
        else:
            run, args = _run_each, (plan, session, argument)
        if connection._closed:
            connection._check_open("execute")
        if not connection.autocommit:
            connection._begin()
        return session.write(run, *args)

    def _run_ddl(self, connection, builder, plan, argument) -> None:
        """BiDEL DDL runs outside the read scope: the engine takes the
        catalog write lock itself, and commits every open transaction."""
        _normalize_params(argument, plan.param_count)
        self._install_result(StatementResult())
        with builder.span("commit") if builder else nullcontext():
            connection.commit()
        with builder.span("execute", backend="engine") if builder else nullcontext():
            connection.engine.execute(plan.statement.text)


class Connection(BaseConnection):
    """A DB-API connection to one co-existing schema version."""

    def __init__(
        self,
        engine: "InVerDa",
        version: SchemaVersion,
        *,
        autocommit: bool = False,
        session: "MemorySession | SqliteSession",
        plan_cache: bool = True,
        trace: bool = False,
        slow_ms: float | None = None,
    ):
        super().__init__(autocommit=autocommit)
        self.engine = engine
        self._version = version
        #: The engine's session for this connection: every statement and
        #: transaction goes through it.
        self._session = session
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
        self._statement_series: dict = {}  # (kind, cache) -> (latency, workload)
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
        #: The session's ``transaction_epoch`` when this connection's
        #: transaction began; ``None`` outside one.
        self._txn: int | None = None

    # -- metadata ----------------------------------------------------------

    @property
    def version_name(self) -> str:
        return self._version.name

    @property
    def backend_name(self) -> str:
        return self._session.backend_name

    @property
    def in_transaction(self) -> bool:
        # A token whose epoch moved names a transaction something else
        # ended (a catalog transition, backend shutdown, or a joined
        # journal's owner): report reality, not the stale token.
        return self._txn is not None and self._txn == self._session.transaction_epoch

    # -- statement dispatch ------------------------------------------------

    def _plan_key(self, operation: str):
        """This connection's plan-cache key for ``operation``."""
        return (operation, self._version.name, self._session.backend_name)

    def _plan_for(self, operation: str):
        """The compiled plan for ``operation`` — from the engine's shared
        plan cache when possible, else parsed and lowered now (and cached
        for the next statement).  Must run under the catalog read lock, so
        no drop lands between the dropped-version check and the ``put``
        (which would leave a dropped version's plan behind).  Returns
        ``(plan, cached)`` where ``cached`` reports a cache hit."""
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
        cache = self.engine.plan_cache if self._use_plan_cache else None
        key = self._plan_key(operation)
        if cache is not None:
            plan = cache.get(key)
            if plan is not None:
                return plan, True
        plan = self._compile(parse_statement(operation))
        if cache is not None and plan.kind not in ("ddl", "explain", "check"):
            # DDL is rare next to DML — don't churn LRU slots that could
            # hold hot DML plans (re-parse is already cheap via the
            # parser's own text cache).  EXPLAIN is an introspection
            # one-off: caching it would shadow the inner statement's own
            # cache status, which is exactly what it reports.
            cache.put(key, plan)
        return plan, False

    def _compile(self, statement: SqlStatement):
        if isinstance(statement, BidelStatement):
            return DdlPlan(statement)
        if isinstance(statement, Explain):
            return ExplainPlan(self._compile(statement.statement))
        if isinstance(statement, Check):
            return CheckPlan(statement.script)
        return self._session.compile(self._version, statement)

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

    def _finish_statement(self, cursor: BaseCursor, operation: str, kind: str,
                          count: int, started: float, builder, *,
                          error: bool = False) -> None:
        """Count the statement once (latency and workload kind, or an
        error; the slow log) and, when traced, close the trace onto the
        cursor."""
        duration = perf_counter() - started
        version = self._version.name
        cursor.statement_kind = kind
        cache = cursor.cache_event or "off"
        if error:
            self._m_errors.inc(version=version)
        else:
            series = self._statement_series.get((kind, cache))
            if series is None:
                series = self._statement_series[kind, cache] = (
                    self._m_latency.bound(version=version, kind=kind, cache=cache),
                    self.engine.workload.series(version, kind),
                )
            series[0].observe(duration)
            series[1].inc(count)
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

        return engine_snapshot(self.engine, backend=self._session.backend)

    def table_names(self) -> list[str]:
        return self._version.table_names()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<repro.sql.Connection version={self.version_name!r} {state}>"

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction, close the session (a held
        handle returns to the pool), and close the connection."""
        if self._closed:
            return
        if self._txn is not None:
            self.rollback()
        self._closed = True
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
        if self.in_transaction:
            return
        _surfaced(self._session.begin)
        self._txn = self._session.transaction_epoch

    def commit(self) -> None:
        """End the current transaction, keeping its writes."""
        self._check_open("commit")
        self._end(self._session.commit)

    def rollback(self) -> None:
        """Undo every write of the current transaction — including its
        propagated effects in all other schema versions."""
        self._check_open("rollback")
        self._end(self._session.rollback)

    def _end(self, end) -> None:
        live, self._txn = self.in_transaction, None
        if live:
            with self.engine.catalog_lock:
                _surfaced(end)

    def _enter_scope(self) -> None:
        with self.engine.catalog_lock:
            self._begin()


def _open_session(engine: "InVerDa", backend) -> "MemorySession | SqliteSession":
    """The session a new connection runs on: the engine's own, or one on
    the live backend ``backend`` names."""
    from repro.backend.sqlite import LiveSqliteBackend

    if backend == "memory":
        session = MemorySession(engine)
        session.require_data_plane()  # refuse now, not at the first statement
        return session
    if backend == "sqlite":
        backend = engine.live_backend or LiveSqliteBackend.attach(engine)
    elif backend is None:
        backend = engine.live_backend
        if backend is None:
            return MemorySession(engine)
    elif not isinstance(backend, LiveSqliteBackend):
        raise InterfaceError(f"unknown backend {backend!r}; use 'memory' or 'sqlite'")
    return backend.open_session()


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
    the fig16 benchmark and ``benchmarks/e2e/layers.py`` to measure the
    cold path).

    ``trace=True`` records a span trace for every statement on this
    connection (readable from ``cursor.trace``) even when the engine's
    tracer is otherwise disabled.  ``slow_ms`` sets a per-connection
    slow-query threshold: statements slower than this land in the
    engine tracer's slow-query ring buffer.
    """
    schema_version = resolve_schema_version(engine, version)
    return Connection(
        engine,
        schema_version,
        autocommit=autocommit,
        session=_open_session(engine, backend),
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
