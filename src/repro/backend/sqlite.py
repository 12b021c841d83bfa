"""The live SQLite execution backend.

``LiveSqliteBackend.attach(engine)`` snapshots the engine's physical
storage into a SQLite database, installs the generated views and ``INSTEAD
OF`` trigger programs for every co-existing schema version, and registers
itself with the engine so the delta code is regenerated on every catalog
transition (evolution, migration, drop).

From then on SQLite is the data plane: reads of any version go through the
generated views, writes issued against any version's view propagate to the
physical and auxiliary tables entirely inside SQLite via the trigger
cascade, and ``MATERIALIZE`` runs as a generated in-place SQL migration
(stage new physical tables from the old views, swap, regenerate).  The
rows are handed over, not copied: once the snapshot commits the engine's
in-memory tables are emptied and the engine is catalog plus storage layout.

Concurrency
-----------

The backend is a *session* architecture over a
:class:`~repro.backend.pool.SessionPool`: one administrative handle, the
pool's *primary* (snapshot load, delta-code installation, migrations),
plus pooled *overflow* handles.  Every SQL-layer connection has a
:class:`SqliteSession` that leases a handle per statement: the primary
when it is free, else an overflow handle.  A session holding an open
transaction keeps one overflow handle until the transaction ends, so
``BEGIN``/``COMMIT``/``ROLLBACK`` stay real and per-session and a
transaction never holds the primary.  With a file-backed database the
pool runs in WAL mode, so concurrent readers never block; the default
``:memory:`` database uses SQLite's shared cache with
``read_uncommitted`` (the engine's legacy isolation).  Catalog
transitions are pool-wide events: the engine's catalog lock stops new
statements, :meth:`LiveSqliteBackend.quiesce` commits every session's
open transaction (DDL is not transactional), and the delta code is
regenerated once on the primary — atomically, under a savepoint.  Every
handle sees the republished views and triggers because they live in the
shared database itself; the primary, which ran the DDL, even skips the
schema reload every other handle pays on its next statement, which is why
single-threaded autocommit clients stall on no reload at all.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.backend import codegen, emit, online
from repro.backend.emit import q, qcols
from repro.backend.planner import compile_statement_sqlite
from repro.backend.pool import SessionPool, shared_memory_uri
from repro.errors import BackendError, CatalogCorruptError, CatalogError, InterfaceError
from repro.obs.timing import ms_since
from repro.persist.store import BackfillRecord, CatalogStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import SmoInstance
    from repro.catalog.versions import SchemaVersion
    from repro.core.engine import InVerDa


#: Oldest SQLite the backend runs on: ``RETURNING`` (3.35) carries a
#: write's row count out of an INSTEAD OF cascade; ``NULLS LAST`` needs 3.30.
MIN_SQLITE = (3, 35)


def _errors(findings) -> list[str]:
    return [
        f"[{d.code}] {d.obj}: {d.message}" for d in findings if d.severity == "error"
    ]


def _text_bytes(texts) -> int:
    return sum(len(text.encode()) for text in texts)


def _next_row_ids(connection: sqlite3.Connection, count: int = 1) -> range:
    """Advance the shared row-identifier sequence on ``connection`` (inside
    its open transaction, if any) by ``count`` and return the new values.
    Two plain statements on purpose: ``UPDATE … RETURNING`` buffers its
    row through an ephemeral table, a page-cache allocation per call."""
    connection.execute(
        f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + ? WHERE name = ?",
        (count, emit.ROW_ID_SEQUENCE),
    )
    (last,) = connection.execute(
        f"SELECT value FROM {emit.SEQUENCES_TABLE} WHERE name = ?",
        (emit.ROW_ID_SEQUENCE,),
    ).fetchone()
    return range(last - count + 1, last + 1)


class SqliteSession:
    """One client's access to the backend's shared database.

    A session owns no handle; it leases one.  It has the session surface
    of :class:`repro.core.session.MemorySession`, which is all a DB-API
    connection uses.  The session is the
    context manager of a statement scope (``with session:``): the first
    thing the statement runs leases a handle, and the scope's end returns
    it:

    - while the session holds an open transaction, that transaction's
      overflow handle;
    - else the pool's primary handle when it is free — the handle that
      ran every transition's DDL, so it never reloads the schema;
    - else an overflow handle for this one statement.

    A call outside a statement scope (``allocate_keys``, a bare
    ``execute``) leases the same way for that one call.  :meth:`begin`
    leases an overflow handle that the transaction keeps until
    ``COMMIT``, ``ROLLBACK`` or a quiesce ends it, so a transaction never
    holds the primary.  ``BEGIN``/``COMMIT``/``ROLLBACK`` never interact
    with other sessions' transactions.

    ``transaction_epoch`` is bumped whenever something *other than the
    owner* ends the session's transaction (a catalog transition's
    quiesce, or backend shutdown), so a SQL-layer connection holding a
    stale transaction token can detect that its transaction already ended
    instead of committing or rolling back work it does not own.
    """

    backend_name = "sqlite"
    compile = staticmethod(compile_statement_sqlite)

    def __init__(self, backend: "LiveSqliteBackend"):
        self.backend = backend
        self.pool = backend.pool
        self.transaction_epoch = 0
        self._trace_callback = None
        self._closed = False
        self._close_lock = threading.Lock()
        self._held: sqlite3.Connection | None = None  # the open transaction's
        self._leased: sqlite3.Connection | None = None  # the statement's
        self._on_primary = False
        self._scopes = 0

    # -- leases ----------------------------------------------------------

    def __enter__(self) -> "SqliteSession":
        """Open a statement scope.  Scopes nest; the outermost one's end
        returns the lease."""
        self._scopes += 1
        return self

    def __exit__(self, *exc) -> None:
        self._scopes -= 1
        if not self._scopes and self._leased is not None:
            self._release_statement()

    def _handle(self) -> sqlite3.Connection:
        """The handle the current statement runs on, leased on first use."""
        if self._closed:
            raise InterfaceError("cannot operate on a closed backend session")
        handle = self._held or self._leased
        if handle is None:
            handle = self.pool.try_primary()
            self._on_primary = handle is not None
            if handle is None:
                handle = self.pool.acquire()
            if self._trace_callback is not None:
                handle.set_trace_callback(self._trace_callback)
            self._leased = handle
        return handle

    def _release_statement(self) -> None:
        handle, self._leased = self._leased, None
        if handle is None:
            return
        if self._trace_callback is not None:
            handle.set_trace_callback(None)
        if not self._on_primary:
            self.pool.release(handle)
            return
        try:
            if handle.in_transaction:  # a statement never leaves one open
                handle.execute("ROLLBACK")
        finally:
            self.pool.release_primary()

    def _release_held(self) -> None:
        handle, self._held = self._held, None
        if handle is not None:
            if self._trace_callback is not None:
                handle.set_trace_callback(None)
            self.pool.release(handle)

    def _call(self, method, *args):
        if self._scopes:
            return method(self._handle(), *args)
        with self:
            return method(self._handle(), *args)

    # -- statement execution ---------------------------------------------

    def execute(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        if self._scopes:  # a statement's own SQL: straight to its lease
            return self._handle().execute(sql, parameters)
        return self._call(sqlite3.Connection.execute, sql, parameters)

    def cursor(self) -> sqlite3.Cursor:
        return self._call(sqlite3.Connection.cursor)

    def set_trace_callback(self, callback):
        """Install ``callback`` as this session's ``sqlite3`` trace
        callback and return the one it displaces, for the caller to put
        back.  It is applied to each handle the session leases and cleared
        when the lease ends, so it sees this session's statements only."""
        if self._closed:
            raise InterfaceError("cannot operate on a closed backend session")
        previous, self._trace_callback = self._trace_callback, callback
        handle = self._held or self._leased
        if handle is not None:
            handle.set_trace_callback(callback)
        return previous

    def allocate_keys(self, count: int) -> range:
        """``count`` consecutive identifiers from the shared sequence, taken
        on this session's lease (joins its open transaction, if any)."""
        return self._call(_next_row_ids, count)

    def allocate_key(self) -> int:
        return self.allocate_keys(1)[0]

    # -- transactions ----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        handle = self._held or self._leased
        return not self._closed and handle is not None and handle.in_transaction

    def begin(self) -> None:
        """Open a transaction on an overflow handle the session keeps
        until the transaction ends."""
        if self._held is None:
            if self._closed:
                raise InterfaceError("cannot operate on a closed backend session")
            self._release_statement()
            self._held = self.pool.acquire()
            if self._trace_callback is not None:
                self._held.set_trace_callback(self._trace_callback)
        if not self._held.in_transaction:
            try:
                self._held.execute("BEGIN")
            except BaseException:
                self._release_held()
                raise

    def commit(self) -> None:
        self._end("COMMIT")

    def rollback(self) -> None:
        self._end("ROLLBACK")

    def _end(self, verb: str) -> None:
        """End the open transaction — the held one, or the statement's
        own — and return a held handle to the pool once it has ended."""
        if self._closed:
            raise InterfaceError("cannot operate on a closed backend session")
        handle = self._held or self._leased
        if handle is None:
            return
        if handle.in_transaction:
            handle.execute(verb)
        if handle is self._held:
            self._release_held()

    def end_transaction(self, *, commit: bool) -> None:
        """Forcibly end the session's open transaction on behalf of a
        pool-wide event, bumping the epoch so the owner learns of it."""
        handle = self._held
        if self._closed or handle is None:
            return
        try:
            if handle.in_transaction:
                self.transaction_epoch += 1
                handle.execute("COMMIT" if commit else "ROLLBACK")
        finally:
            self._release_held()

    def write(self, run, *args):
        """``run(*args)`` as one atomic write, on this session's own lease —
        the statement's, or its open transaction's — so conflicts with
        other sessions surface as SQLite lock errors, not silent joins."""
        handle = self._held or self._leased
        if handle is not None and handle.in_transaction and not self._closed:
            # Inside a transaction a savepoint bounds the statement's
            # effects.  The name is fixed, so its texts are prepared once
            # per handle; SQLite nests equal names, and ROLLBACK TO /
            # RELEASE address the innermost.
            self.execute("SAVEPOINT repro_stmt")
            try:
                result = run(*args)
            except BaseException:
                if not self._closed:
                    self.execute("ROLLBACK TO repro_stmt")
                    self.execute("RELEASE repro_stmt")
                raise
            self.execute("RELEASE repro_stmt")
            return result
        # The statement is the transaction: a failure undoes exactly the
        # statement (or executemany batch).  It takes SQLite's write lock up
        # front, since a routed write reads the view before its trigger
        # writes, and that deferred upgrade loses a WAL snapshot race
        # (SQLITE_BUSY_SNAPSHOT, busy timeout or not) to any concurrent
        # writer such as an online backfill chunk.  It queues for the
        # backend write *gate* first: a Python lock wakes its waiter at
        # once, where SQLite's busy handler polls and starves behind a
        # back-to-back chunk loop.
        with self.backend.write_gate:
            self.execute("BEGIN IMMEDIATE")
            try:
                result = run(*args)
                self._end("COMMIT")
            except BaseException:
                if not self._closed:
                    self._end("ROLLBACK")
                raise
        return result

    @contextmanager
    def counting(self, span):
        """``span``, noting as ``sqlite_statements`` everything SQLite ran
        on this session's lease meanwhile: the write's own BEGIN /
        COMMIT / savepoint statements and every trigger statement of the
        cascade."""
        events = 0

        def count(_text):
            nonlocal events
            events += 1

        with span as execute:
            previous = self.set_trace_callback(count)
            try:
                yield
            finally:
                execute.attributes["sqlite_statements"] = events
                if not self._closed:
                    self.set_trace_callback(previous)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Roll back any open transaction and return its handle to the
        pool.  Safe against concurrent closers (a user thread racing the
        backend's shutdown or a GC-triggered ``Connection.__del__``): only
        one of them releases the handle.  A statement in flight returns
        its own lease when its scope ends."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self.transaction_epoch += 1
        self.backend._forget_session(self)
        self._release_held()


class LiveSqliteBackend:
    """A SQLite database serving reads *and* writes on every version."""

    def __init__(self, engine: "InVerDa", pool: SessionPool):
        self.engine = engine
        self.pool = pool
        # The administrative handle, the pool's primary: snapshot load,
        # delta-code install, migrations, the engine-facing read helpers
        # below — and every autocommit statement that finds it free.
        self.connection = pool.primary
        self._closed = False
        self._sessions: list[SqliteSession] = []
        self._sessions_lock = threading.Lock()
        # Fair admission for single-statement write transactions: the
        # online backfill's chunk loop and autocommit session writes both
        # take this before BEGIN IMMEDIATE.  SQLite's busy handler makes
        # blocked writers *poll* (at up to 100 ms intervals), so a chunk
        # loop re-acquiring the database write lock back-to-back starves
        # every live writer for the whole move; a Python lock wakes the
        # next waiter the moment the holder releases.
        self.write_gate = threading.Lock()
        # The durable catalog: every catalog-transition hook writes
        # through it, inside the same transaction as the DDL it installs.
        self.store = CatalogStore(self.connection)
        #: True when attach found a persisted catalog and recovered it
        #: instead of snapshotting the engine.
        self.recovered = False
        #: True when recovery reused the file's installed views/triggers
        #: (vouched for by the ``verified_at`` mark, or textually what the
        #: catalog renders) instead of regenerating them.
        self.delta_reused = False
        #: Wall-clock seconds the whole attach-side recovery took (log
        #: replay, verification, and delta regeneration when needed);
        #: ``None`` until a recovery has run.
        self.recovery_seconds = None
        #: The same recovery phase by phase (``catalog_stats()["recovery"]``).
        self.recovery_phases: dict | None = None
        # Test hook: callable(point: str) invoked at named points inside
        # catalog transitions, so the crash-safety suite can simulate a
        # process dying between the catalog write and the commit.  Any
        # callable works: one-shot closures for targeted crash tests, or
        # repro.testing.RandomFaultInjector for seeded probability-based
        # injection across a long soak run.
        self.fault_injector = None
        #: When True, the static delta-code verifier runs after every
        #: committed catalog transition (off the statement hot path, but
        #: on the transition path — opt-in via attach()).  Findings land
        #: in the metrics and ``engine.last_check``; error-severity ones
        #: raise CatalogError.
        self.verify_transitions = False
        # What the delta code of each table version reads is fixed between
        # two MATERIALIZEs, so its rendered text is kept across evolve and
        # drop; what is *installed* is never remembered — regenerate()
        # reads it from sqlite_master every time.
        self.renderer = codegen.Renderer(engine)
        #: Generated objects the last regenerate() created / dropped /
        #: left in place, and the ``bytes`` of delta code it left
        #: installed; ``None`` until one has run.
        self.last_install: dict | None = None
        # (objects, UTF-8 bytes of their text) installed: a scoped
        # regenerate() reads only its own names from sqlite_master and
        # carries the totals over.
        self._delta_size = (0, 0)
        self._delta_objects = engine.metrics.counter(
            "repro_delta_objects_total",
            "Generated views and triggers touched by delta-code installs.",
            ("action",),
        )
        self._delta_bytes = engine.metrics.gauge(
            "repro_delta_code_bytes", "Installed generated view and trigger text."
        )
        self._compactions = engine.metrics.counter(
            "repro_catalog_compactions_total",
            "Drops that rewrote the catalog log as a snapshot of the catalog.",
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        engine: "InVerDa",
        *,
        database: str = ":memory:",
        pool_size: int = 8,
        max_sessions: int | None = None,
        busy_timeout: float = 5.0,
        cached_statements: int = 256,
        repair: bool = False,
        force: bool = False,
        verify_transitions: bool = False,
        resume_backfill: bool | None = True,
    ) -> "LiveSqliteBackend":
        """Snapshot ``engine`` into SQLite, install the generated delta
        code, and register with the engine.

        ``database=":memory:"`` (the default) serves all sessions from one
        shared-cache in-memory database; a file path opens (or creates)
        that file in WAL mode so concurrent readers scale.  ``pool_size``,
        ``max_sessions``, ``busy_timeout``, and ``cached_statements`` are
        passed through to the :class:`~repro.backend.pool.SessionPool`.

        The catalog is durable: the engine's genealogy, materialization,
        and generation live in ``_repro_catalog_*`` tables inside the
        database, written in the same transaction as every catalog
        transition's DDL.  When the database already carries a catalog (a
        file from a previous process), ``engine`` must be fresh and is
        *recovered* from it — the stored BiDEL log is replayed,
        fingerprints are verified against the physical tables, and the
        installed views/triggers are reused when still current.  ``repair``/``force`` are the
        recovery escape hatches (see :func:`repro.persist.recover`).

        ``verify_transitions`` (default ``False``) runs the static
        delta-code verifier (:mod:`repro.check`) after every committed
        catalog transition.  The check never touches the statement hot
        path — it costs only on DDL, and nothing at all when left off.

        ``resume_backfill`` decides what happens when the recovered
        catalog carries an in-flight online-MATERIALIZE journal (the
        process died mid-backfill): ``True`` (the default) finishes the
        move — remaining chunks plus cutover — before the open returns,
        ``False`` rolls the prepare phase back cleanly, and ``None``
        leaves journal and machinery untouched (static inspection, e.g.
        ``repro.check --db``).  A stale journal (superseded by a later
        committed transition) is always rolled back.
        """
        if engine.live_backend is not None:
            raise CatalogError(
                "this engine already serves through a live backend; close() "
                "it before attaching another"
            )
        if sqlite3.sqlite_version_info < MIN_SQLITE:
            raise InterfaceError(
                f"the live backend needs SQLite {'.'.join(map(str, MIN_SQLITE))} "
                f"or later; this Python's sqlite3 is linked to {sqlite3.sqlite_version}"
            )
        if database == ":memory:":
            database, uri, wal = shared_memory_uri(), True, False
        elif database.startswith("file:"):
            uri, wal = True, "mode=memory" not in database
            if not wal and "cache=shared" not in database:
                # A private in-memory URI would give every pooled session
                # its own empty database; all sessions must share one.
                database += ("&" if "?" in database else "?") + "cache=shared"
        else:
            uri, wal = False, True
        pool = SessionPool(
            database,
            uri=uri,
            wal=wal,
            pool_size=pool_size,
            max_sessions=max_sessions,
            busy_timeout=busy_timeout,
            cached_statements=cached_statements,
            plan_cache_stats=engine.plan_cache.stats,
            metrics=engine.metrics,
        )
        backend = cls(engine, pool)
        backend.verify_transitions = verify_transitions
        try:
            if CatalogStore.has_catalog(backend.connection):
                backend._recover(
                    repair=repair, force=force, resume_backfill=resume_backfill
                )
            else:
                backend._install_fresh()
        except BaseException:
            backend._closed = True
            pool.close()
            raise
        engine.attach_backend(backend)
        return backend

    def _install_fresh(self) -> None:
        """First attach to an empty database: load the engine's snapshot,
        install the delta code, and write the initial catalog — all in one
        transaction."""
        if self.engine.rows_handed_over:
            raise CatalogError(
                "this engine's rows live in the database it was attached to "
                "(its in-memory tables were emptied then); reopen that file "
                "with repro.open(path) instead of attaching the engine to a "
                "new database"
            )
        with self._transaction():
            self._load_snapshot()
            self.store.save_snapshot(self.engine)
            self._install_delta_code()
            self.store.set_delta_meta(*self._delta_key())
        # Hand the rows over.  The schemas stay: they are the storage
        # layout the code generators read.
        for table in self.engine.database.tables.values():
            table.clear()
        self.engine.rows_handed_over = True

    def _recover(
        self, *, repair: bool, force: bool, resume_backfill: bool | None = True
    ) -> None:
        """Attach to a database that already carries a persisted catalog:
        rebuild the engine from it instead of snapshotting the engine
        over it, and reuse the installed delta code when still current."""
        from repro.persist.fingerprint import catalog_fingerprint
        from repro.persist.recovery import recover

        recover_started = time.perf_counter()
        phases: dict = {}
        reattach = bool(self.engine.genealogy.schema_versions)
        if reattach:
            # Re-attach of an engine that already holds this catalog
            # (close() + attach() in one process): accept only an exact
            # fingerprint match — anything else would silently serve one
            # catalog's data through another catalog's views.
            state = self.store.load()
            if catalog_fingerprint(self.engine) != state.fingerprint:
                raise CatalogError(
                    "this database already carries a different catalog; "
                    "attach a fresh engine (repro.open) or use another file"
                )
            # Attach happens before any session can run, so the write
            # lock is not needed (or held) here.
            self.engine.catalog_generation = state.generation  # repro-lint: allow(RPC302)
            self.engine.metrics.gauge("repro_catalog_generation").set(
                state.generation
            )
        else:
            state = recover(
                self.engine, self.connection, repair=repair, force=force, phases=phases
            )
        self.recovered = True
        # A recovered engine never held the rows: the file does.
        self.engine.rows_handed_over = True
        installed = codegen.installed_objects(self.connection)
        current = (state.delta_generation, state.delta_emission) == self._delta_key()
        if reattach or force:
            # Neither path verifies, so neither goes by a mark or leaves
            # one: current code is reused while every name is there.
            self.delta_reused = current and self._wanted().keys() <= installed.keys()
            if not self.delta_reused:
                with self._transaction():
                    self._install_delta_code()
                    self.store.set_delta_meta(*self._delta_key())
        else:
            if repair:  # may have recreated tables under the mark
                state.verified = {}
            self._verify_on_open(state, installed, current, phases)
        if self.delta_reused:
            self._delta_size = (
                len(installed), _text_bytes(sql for _kind, sql, _view in installed.values())
            )
            self._delta_bytes.set(codegen.script_bytes(*self._delta_size))
        phases["install"] = self.last_install
        backfill_started = time.perf_counter()
        self._finish_backfill(resume_backfill)
        phases["backfill_ms"] = ms_since(backfill_started)
        phases["total_ms"] = ms_since(recover_started)
        self.recovery_phases = phases
        self.recovery_seconds = phases["total_ms"] / 1000
        self.engine.metrics.histogram(
            "repro_recovery_duration_seconds",
            "Attach-side recovery duration (catalog.recovery_seconds).",
        ).observe(self.recovery_seconds)

    def _verify_on_open(
        self, state, installed: dict, current: bool, phases: dict
    ) -> None:
        """The open's delta-code gate.  A ``verified_at`` mark whose digest
        still describes this file stands in for the verifier; anything else
        takes the full path: verify the render, reuse the installed objects
        if they are that render text for text (install by diff otherwise),
        hold the database against it (RPC109), leave a mark."""
        from repro.check import delta
        from repro.check.diagnostics import record_findings

        outcomes = self.engine.metrics.counter(
            "repro_recovery_verify_total",
            "Opens that ran the delta-code verifier in full, or skipped it "
            "on a matching verified-at mark.",
            ("outcome",),
        )
        mark = state.verified
        if current and mark.get("digest") == delta.verified_digest(
            state.log_digest, self._delta_key(), installed
        ):
            self.delta_reused = True
            self.engine.last_check = dict(
                mark["summary"], scope="recovery", verified_at=mark["generation"]
            )
            phases["verify_skipped"] = True
            outcomes.inc(outcome="skipped")
            return
        outcomes.inc(outcome="full")
        started = time.perf_counter()
        findings = delta.verify_delta_code(self.engine, backend=self)
        phases["verify_delta_ms"] = ms_since(started)
        if not _errors(findings):
            wanted = self._wanted()
            if current and wanted == {
                name: sql for name, (_kind, sql, _view) in installed.items()
            }:
                self.delta_reused = True
            else:
                with self._transaction():
                    self._install_delta_code()
                    self.store.set_delta_meta(*self._delta_key())
                installed = codegen.installed_objects(self.connection)
            findings += delta.check_installed(installed, list(wanted.values()))
        summary = record_findings(self.engine, findings, scope="recovery")
        if summary["errors"]:
            raise CatalogCorruptError(
                "the delta code of the persisted catalog does not verify "
                "(force=True skips verification):\n- " + "\n- ".join(_errors(findings))
            )
        self._fault("recover:before-mark")
        self._write_mark(state.log_digest, installed, summary)

    def _write_mark(self, log_digest: str, installed: dict, summary: dict) -> None:
        """Leave the ``verified_at`` mark over exactly the state a
        zero-error verdict (RPC109 included) was just reached for, in its
        own short transaction; a read-only or busy file goes without."""
        from repro.check.delta import verified_digest

        key = self._delta_key()
        mark = {
            "digest": verified_digest(log_digest, key, installed),
            "generation": key[0],
            "summary": summary,
        }
        try:
            with self._transaction():
                self.store.set_verified(mark)
        except sqlite3.OperationalError:
            pass

    def _finish_backfill(self, resume: bool | None) -> None:
        """Converge an in-flight online-MATERIALIZE journal found at
        attach time.

        A journal row means the process died between ``prepare`` and the
        cutover commit: the capture triggers, staging tables, and chunk
        cursors are all on disk and the catalog still describes the
        pre-move state.  ``resume=True`` finishes the move from the
        recorded cursors (the journal phase tells us nothing more is
        needed — every chunk committed atomically with its cursor);
        ``False`` drops the transitional machinery instead; ``None``
        touches nothing.  A journal whose generation does not match the
        recovered catalog was superseded by a later committed transition
        and is rolled back regardless — its staged rows describe a
        physical layout that no longer exists.
        """
        record = self.store.read_backfill()
        if record is None:
            return
        stale = record.generation != self.engine.catalog_generation or any(
            uid not in self.engine.genealogy.smo_instances for uid in record.smos
        )
        if resume is None and not stale:
            return
        if stale or not resume:
            with self._transaction():
                self._roll_back_prepare()
            return
        move = online.Move(
            online.plan_from_payload(record.plan),
            online=True,
            cursors={name: int(p) for name, p in record.cursors.items()},
            chunks=record.chunks,
        )
        # The cutover drives the live backend; normally the engine
        # registers us after attach() returns, but the resume needs the
        # hookup now (attach_backend is idempotent).
        self.engine.attach_backend(self)
        while not self.copy_chunk(move):
            pass
        schema = frozenset(
            self.engine.genealogy.smo_instances[uid] for uid in record.smos
        )
        self.engine._cut_over(schema, move)

    def _delta_key(self) -> tuple[int, int]:
        """What installed delta code must have been generated for (the
        catalog generation) and by (the emitter revision) to be reused."""
        return self.engine.catalog_generation, codegen.EMISSION_STAMP

    def _load_snapshot(self) -> None:
        cursor = self.connection.cursor()
        cursor.execute(emit.sequences_ddl())
        for name, value in self.engine.database.sequences.items():
            cursor.execute(
                f"INSERT OR REPLACE INTO {emit.SEQUENCES_TABLE} VALUES (?, ?)",
                (name, value),
            )
        cursor.execute(
            f"INSERT OR IGNORE INTO {emit.SEQUENCES_TABLE} VALUES (?, 0)",
            (emit.ROW_ID_SEQUENCE,),
        )
        for name, table in self.engine.database.tables.items():
            columns = table.schema.column_names
            cursor.execute(emit.table_ddl(name, columns))
            placeholders = ", ".join("?" for _ in range(len(columns) + 1))
            cursor.executemany(
                f"INSERT INTO {q(name)} VALUES ({placeholders})",
                [(key, *row) for key, row in table],
            )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def open_session(self) -> SqliteSession:
        """A session for one SQL-layer connection; it leases handles per
        statement and per transaction, none at open."""
        if self._closed:
            raise InterfaceError("cannot open a session on a closed backend")
        session = SqliteSession(self)
        with self._sessions_lock:
            self._sessions.append(session)
        return session

    def _forget_session(self, session: SqliteSession) -> None:
        with self._sessions_lock:
            if session in self._sessions:
                self._sessions.remove(session)

    def live_sessions(self) -> list[SqliteSession]:
        with self._sessions_lock:
            return list(self._sessions)

    def quiesce(self) -> None:
        """Commit every session's open transaction ahead of a catalog
        transition (BiDEL DDL is not transactional and implicitly commits
        every open transaction, pool-wide) and return its handle to the
        pool.  Called by the engine while it holds the catalog write lock,
        so no statements are in flight."""
        for session in self.live_sessions():
            session.end_transaction(commit=True)
        with self.pool.primary_held():
            if self.connection.in_transaction:
                self.connection.execute("COMMIT")

    # ------------------------------------------------------------------
    # Delta-code generation
    # ------------------------------------------------------------------

    def _run(self, statements: list[str]) -> None:
        cursor = self.connection.cursor()
        for statement in statements:
            try:
                cursor.execute(statement)
            except sqlite3.Error as exc:
                raise BackendError(
                    f"generated SQL failed: {exc}\n--- statement ---\n{statement}"
                ) from exc

    def _drop(self, installed: dict, names) -> None:
        """Drop the generated objects ``names`` — triggers first: a
        ``DROP VIEW`` would take its triggers along unseen."""
        cursor = self.connection.cursor()
        for kind in ("trigger", "view"):
            for name in names:
                if installed[name][0] == kind:
                    cursor.execute(f"DROP {kind.upper()} IF EXISTS {q(name)}")

    def drop_generated(self) -> None:
        """Drop every generated view and trigger ahead of a MATERIALIZE
        swap, and forget the rendered text: the move changes the routes it
        was rendered for."""
        installed = codegen.installed_objects(self.connection)
        self._drop(installed, installed)
        self._delta_objects.inc(len(installed), action="dropped")
        self.renderer = codegen.Renderer(self.engine)

    def regenerate(self, scope: codegen.Scope | None = None) -> None:
        """Bring scaffolding, views, and trigger programs to the catalog's
        current state — atomically, touching only what differs.

        ``scope`` (:func:`codegen.transition_scope`) is what an evolve or
        drop touched; without one, the whole catalog.  The wanted
        ``CREATE`` text of every generated object in scope is compared with
        what ``sqlite_master`` holds under those names: objects the catalog
        no longer renders, or renders differently, are dropped (a trigger
        also when its view is), and only the missing ones are created.  A
        first install is the same diff against a database that holds none.

        It all runs under a savepoint: a mid-install failure (a
        :class:`BackendError` from any generated statement) rolls the
        database back to the previous, complete delta code instead of
        leaving half-installed views serving wrong answers.
        """
        cursor = self.connection.cursor()
        cursor.execute("SAVEPOINT repro_regenerate")
        try:
            wanted = self._wanted(scope)
            installed = codegen.installed_objects(
                self.connection, None if scope is None else scope.object_names()
            )
            stale = {
                name
                for name, (_kind, sql, _view) in installed.items()
                if wanted.get(name) != sql
            }
            stale.update(
                name
                for name, (kind, _sql, view) in installed.items()
                if kind == "trigger" and view in stale
            )
            self._drop(installed, stale)
            self._fault("regenerate:dropped")
            self._run(
                codegen.scaffold_statements(
                    self.engine, None if scope is None else scope.added
                )
            )
            missing = [
                statement
                for name, statement in wanted.items()
                if name not in installed or name in stale
            ]
            self._run(missing)
        except BaseException:
            cursor.execute("ROLLBACK TO repro_regenerate")
            cursor.execute("RELEASE repro_regenerate")
            raise
        cursor.execute("RELEASE repro_regenerate")
        if scope is None:
            objects = len(installed)
            size = _text_bytes(sql for _kind, sql, _view in installed.values())
        else:
            objects, size = self._delta_size
        kept = objects - len(stale)
        size += _text_bytes(missing) - _text_bytes(installed[name][1] for name in stale)
        self._delta_size = (kept + len(missing), size)
        self.last_install = {
            "created": len(missing),
            "dropped": len(stale),
            "kept": kept,
        }
        for action, count in self.last_install.items():
            self._delta_objects.inc(count, action=action)
        self.last_install["bytes"] = codegen.script_bytes(*self._delta_size)
        self._delta_bytes.set(self.last_install["bytes"])

    def _view_statements(self, scope: codegen.Scope | None = None) -> list[str]:
        """The view emission :meth:`regenerate` installs.  The product has
        one — the composed emission; the test suite's nested-emission
        backend overrides exactly this method to keep the three-way
        memory / composed / nested oracle running."""
        return self.renderer.view_statements(scope)

    def delta_statements(
        self, scope: codegen.Scope | None = None
    ) -> tuple[list[str], list[str]]:
        """(``CREATE VIEW``, ``CREATE TRIGGER``) statements :meth:`regenerate`
        installs — for the whole catalog, or ``scope`` — rendered through
        :attr:`renderer`."""
        return self._view_statements(scope), self.renderer.trigger_statements(scope)

    def _wanted(self, scope: codegen.Scope | None = None) -> dict[str, str]:
        """``{object name: CREATE text}`` of :meth:`delta_statements`."""
        views, triggers = self.delta_statements(scope)
        return {
            codegen.created_name(statement) or statement: statement
            for statement in (*views, *triggers)
        }

    def generated_sql(self) -> str:
        """The full delta-code script (for inspection and code metrics)."""
        return codegen.script(self._wanted().values())

    # ------------------------------------------------------------------
    # Engine hooks (ExecutionBackend)
    # ------------------------------------------------------------------
    #
    # Every catalog transition is one explicit transaction on the
    # administrative handle: the catalog rows (via ``self.store``) and the
    # DDL they describe commit together, so a crash at any point — the
    # fault-injection suite exercises the ``_fault`` markers — leaves the
    # database wholly before or wholly after the transition.

    def _begin(self) -> None:
        if not self.connection.in_transaction:
            self.connection.execute("BEGIN")

    def _abort(self) -> None:
        if self.connection.in_transaction:
            self.connection.execute("ROLLBACK")

    @contextmanager
    def _transaction(self):
        """Run the block inside the administrative handle's transaction
        (joining the open one, if any), holding the primary: roll back
        when it raises, commit when it completes."""
        with self.pool.primary_held():
            self._begin()
            try:
                yield
                self.connection.commit()
            except BaseException:
                self._abort()
                raise

    def _install_delta_code(self, scope: codegen.Scope | None = None) -> None:
        """Regenerate the delta code for the catalog's current state — the
        whole catalog, or ``scope`` — and bring the shared aux tables of
        that scope up to it.  The caller stamps what was installed."""
        self.regenerate(scope)
        self._run(
            codegen.repair_all_statements(
                self.engine, None if scope is None else scope.added
            )
        )

    def _fault(self, point: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector(point)

    def _roll_back_prepare(self) -> None:
        """Roll back the prepare of a journaled move that never cut over —
        capture machinery, staging tables, journal.  Every catalog
        transition runs this inside its own transaction, so none commits
        over a journal it supersedes."""
        record = self.store.read_backfill()
        if record is not None:
            self._run(online.rollback_statements(online.plan_from_payload(record.plan)))
            self.store.clear_backfill()

    def on_evolution(self, version: "SchemaVersion", added: list["SmoInstance"]) -> None:
        scope = codegen.transition_scope(self.engine, version, added=added)
        with self._transaction():
            self._roll_back_prepare()
            self.store.record_evolution(self.engine, version)
            self._fault("evolution:after-catalog")
            self._run(codegen.evolution_statements(added))
            self._install_delta_code(scope)
            self.store.write_meta(self.engine, self._delta_key())
            self._fault("evolution:before-commit")

    def on_materialize(
        self,
        schema: frozenset["SmoInstance"],
        apply: Callable[[], None],
        move: online.Move | None = None,
    ) -> None:
        """The MATERIALIZE hook: a move's whole cutover, one transaction.

        Without ``move`` it is the offline move, prepared in the same
        transaction.  An online ``move`` first finishes what its chunks
        began.  Then every table no chunk copied is staged whole, the
        staged tables are swapped in, ``apply`` (the engine's layout
        rebuild and flag flip) runs, and delta code and catalog follow.
        """
        renderer = self.renderer
        try:
            with self._transaction():
                if move is None:
                    self._roll_back_prepare()
                    move = online.Move(online.build_plan(self.engine, schema))
                plan, cursors = move.plan, move.cursors
                if move.online:
                    # Rows past the last chunk cursor, then every row live
                    # writes touched — the write lock makes both final.
                    self._run([online.copy_sql(t, cursors[t.stage]) for t in plan.trackable()])
                    bound = int(self.connection.execute(online.dirty_bound_sql()).fetchone()[0])
                    if bound:
                        self._run(online.repair_statements(plan, cursors, bound, final=True))
                    for table_move in plan.trackable():
                        staged_sql, live_sql = online.count_check_sql(table_move)
                        staged = self.connection.execute(staged_sql).fetchone()[0]
                        live = self.connection.execute(live_sql).fetchone()[0]
                        if staged != live:
                            raise BackendError(
                                f"online backfill diverged for {table_move.view}: "
                                f"staged {staged} rows but the live view serves {live}"
                            )
                    self._fault("materialize-online:pre-cutover")
                    self._run(online.capture_teardown_statements(plan))
                whole = [t for t in plan.tables if t.stage not in cursors]
                self._run(online.stage_statements(whole))
                stage, swap = codegen.migration_statements(self.engine, schema)
                self._run(stage)
                self._fault("materialize:staged")
                self.drop_generated()
                self._run(swap)
                self._fault("materialize:swapped")
                apply()
                self._install_delta_code()
                self.store.record_materialize(self.engine)
                self.store.write_meta(self.engine, self._delta_key())
                if move.online:
                    # The journal, the cutover DDL, and the new catalog
                    # commit together: a crash before this commit leaves
                    # the backfill resumable, after it the move is done.
                    self.store.clear_backfill()
                self._fault("materialize:before-commit")
        except BaseException:
            # The layout rolls back with the transaction, and its renders
            # with it: the delta code is rendered for the old layout again.
            self.renderer = renderer
            raise

    # ------------------------------------------------------------------
    # The online schedule (journaled backfill; see repro.backend.online)
    # ------------------------------------------------------------------

    def prepare_move(
        self, schema: frozenset["SmoInstance"], chunk_rows: int | None = None
    ) -> online.Move:
        """Prepare an online move: install the change-capture machinery and
        the empty staging tables of the tables it tracks, and journal it —
        one transaction, under the engine's brief write-lock window."""
        plan = online.build_plan(self.engine, schema)
        move = online.Move(
            plan,
            online=True,
            chunk_rows=int(chunk_rows) if chunk_rows else online.DEFAULT_CHUNK_ROWS,
            cursors={table_move.stage: 0 for table_move in plan.trackable()},
        )
        with self._transaction():
            self._roll_back_prepare()
            self._run(online.prepare_statements(plan))
            self.store.write_backfill(
                BackfillRecord(
                    phase="backfill",
                    generation=self.engine.catalog_generation,
                    smos=list(plan.smos),
                    plan=online.plan_payload(plan),
                    cursors=dict(move.cursors),
                    chunks=0,
                )
            )
            self._fault("materialize-online:prepared")
        return move

    def copy_chunk(self, move: online.Move) -> bool:
        """One chunk of an online move: copy the next keyset page of every
        tracked table into its staging table, repair the rows live writes
        touched since the last chunk, and advance the journal cursors — all
        in one transaction, called under the *read* side of the catalog
        lock so concurrent statements keep flowing.  Returns ``True`` once
        every copy has drained (the cutover's tail copy takes the rows
        arriving later).
        """
        plan = move.plan
        last_error = None
        for _ in range(5):
            cursors = dict(move.cursors)
            # The write gate serializes this chunk's transaction with the
            # autocommit writes of live sessions: without it the loop
            # re-takes the SQLite write lock back-to-back and every live
            # writer — which waits by polling the busy handler — starves
            # until the whole move finishes.  The primary comes first: a
            # statement holding the gate only ever tries the primary.
            with self.pool.primary_held(), self.write_gate:
                self._begin()
                try:
                    copied = 0
                    drained = True
                    bound = int(
                        self.connection.execute(
                            online.dirty_bound_sql()
                        ).fetchone()[0]
                    )
                    for table_move in plan.trackable():
                        result = self.connection.execute(
                            online.copy_sql(
                                table_move,
                                cursors[table_move.stage],
                                move.chunk_rows,
                            )
                        )
                        rows = max(result.rowcount, 0)
                        copied += rows
                        # A partial page means this table's copy reached
                        # the current end of its keyset.  That — not zero
                        # rows — is the termination test: under a steady
                        # write load every chunk copies the handful of
                        # freshly inserted rows, so waiting for an empty
                        # page would never converge.  The cutover tail
                        # picks up whatever arrives after the last
                        # partial page.
                        if rows >= move.chunk_rows:
                            drained = False
                        staged_max = self.connection.execute(
                            online.staged_max_sql(table_move)
                        ).fetchone()[0]
                        if staged_max is not None:
                            cursors[table_move.stage] = max(
                                cursors[table_move.stage], int(staged_max)
                            )
                    if bound:
                        self._run(online.repair_statements(plan, cursors, bound))
                    move.chunks += 1
                    move.rows += copied
                    self.store.update_backfill(cursors=dict(cursors), chunks=move.chunks)
                    self._fault("materialize-online:chunk")
                    self.connection.commit()
                except sqlite3.OperationalError as exc:
                    # A live writer holds the database (or a shared-cache
                    # table) lock: back off and retry the whole chunk —
                    # nothing was committed, so the cursors stay where
                    # the journal says.
                    self._abort()
                    last_error = exc
                except BaseException:
                    self._abort()
                    raise
                else:
                    move.cursors = cursors
                    return drained
            time.sleep(0.01)
        raise BackendError(
            f"online backfill chunk could not get the write lock: {last_error}"
        )

    def on_drop(self, version: "SchemaVersion", removed: list["SmoInstance"]) -> None:
        scope = codegen.transition_scope(self.engine, version, removed=removed)
        if scope is None:
            # Survivors may have left the active set: the whole catalog,
            # rendered afresh.
            self.renderer = codegen.Renderer(self.engine)
        try:
            self._drop_version(version, removed, scope)
        except BaseException:
            # The drop rolled back, but a scoped pass has moved the memo's
            # entries with it: the catalog the engine restores renders afresh.
            self.renderer = codegen.Renderer(self.engine)
            raise

    def _drop_version(
        self, version: "SchemaVersion", removed: list["SmoInstance"], scope
    ) -> None:
        """The drop's transaction: the removed SMOs' tables, the delta code
        and the catalog log (compacted when it has grown)."""
        with self._transaction():
            self._roll_back_prepare()
            cursor = self.connection.cursor()
            for smo in removed:
                semantics = smo.semantics
                tables: set[str] = set()
                if semantics is not None:
                    for role in (
                        set(semantics.aux_src())
                        | set(semantics.aux_tgt())
                        | set(semantics.aux_shared())
                    ):
                        tables.add(smo.aux_table_name(role))
                # Staging tables by name, not by the handler's declared
                # set: that set follows the materialization, and a file
                # scaffolded by an earlier release holds more of them.
                tables.update(
                    row[0]
                    for row in cursor.execute(
                        "SELECT name FROM sqlite_master "
                        "WHERE type = 'table' AND name GLOB ?",
                        (smo.put_table_name("") + "*",),
                    ).fetchall()
                )
                for table in tables:
                    cursor.execute(f"DROP TABLE IF EXISTS {q(table)}")
            self.regenerate(scope)
            log_length = self.store.record_drop(version.name)
            compacted = self.store.compact(self.engine, log_length)
            self.store.write_meta(self.engine, self._delta_key())
            if compacted:
                self._fault("drop:compacted")
            self._fault("drop:before-commit")
        if compacted:
            self._compactions.inc()

    def verify_transition(self, kind: str) -> None:
        """Opt-in post-transition gate: statically verify the delta code
        the transition just installed.  The engine runs it once the
        transition has committed here and in its catalog (the DDL is
        durable either way); an error-severity finding raises so the
        transition fails loudly instead of serving a catalog whose views
        do not resolve."""
        if not self.verify_transitions:
            return
        from repro.check.delta import check_installed, verify_delta_code
        from repro.check.diagnostics import record_findings

        with self.pool.primary_held():
            # From a new memo: the gate must not take the remembered
            # renders on trust; what it renders afresh is then the memo.
            self.renderer = codegen.Renderer(self.engine)
            installed = codegen.installed_objects(self.connection)
            findings = verify_delta_code(self.engine, backend=self)
            findings += check_installed(installed, list(self._wanted().values()))
            summary = record_findings(self.engine, findings, scope=f"transition:{kind}")
            if summary["errors"]:
                raise CatalogError(
                    f"delta code verification failed after {kind}: "
                    + "; ".join(_errors(findings))
                )
            self._write_mark(self.store.load().log_digest, installed, summary)

    # ------------------------------------------------------------------
    # Catalog introspection
    # ------------------------------------------------------------------

    def on_disk_generation(self) -> int | None:
        """The catalog generation last committed to the database — on a
        WAL file this sees other processes' commits, so a caller can
        detect that the shared catalog moved under it."""
        with self.pool.primary_held():
            return self.store.read_generation()

    def catalog_stats(self) -> dict:
        """Durability facts for ``Connection.stats()`` / server status."""
        with self.pool.primary_held():
            on_disk = self.store.read_generation()
            log_entries = self.store.log_size()
        return {
            "generation": self.engine.catalog_generation,
            "fingerprint": self.engine.catalog_fingerprint(),
            "persisted": True,
            "recovered": self.recovered,
            "delta_reused": self.delta_reused,
            "recovery_seconds": self.recovery_seconds,
            "recovery": self.recovery_phases,
            "last_install": self.last_install,
            "retired_versions": len(self.engine.genealogy.retired),
            "on_disk_generation": on_disk,
            "log_entries": log_entries,
            "stale": on_disk is not None and on_disk > self.engine.catalog_generation,
        }

    # ------------------------------------------------------------------
    # Data plane (administrative handle, waited for)
    # ------------------------------------------------------------------

    def allocate_key(self) -> int:
        with self.pool.primary_held():
            return _next_row_ids(self.connection)[0]

    def execute(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        with self.pool.primary_held():
            return self.connection.execute(sql, parameters)

    def select(self, version_name: str, table: str) -> list[tuple]:
        tv = self.engine.genealogy.schema_version(version_name).table_version(table)
        columns = ", ".join(qcols(tv.schema.column_names))
        with self.pool.primary_held():
            return self.connection.execute(
                f"SELECT {columns} FROM {tv.view_name}"
            ).fetchall()

    def select_keyed(self, version_name: str, table: str) -> dict[int, tuple]:
        tv = self.engine.genealogy.schema_version(version_name).table_version(table)
        columns = ", ".join(["p", *qcols(tv.schema.column_names)])
        with self.pool.primary_held():
            rows = self.connection.execute(
                f"SELECT {columns} FROM {tv.view_name}"
            ).fetchall()
        return {row[0]: row[1:] for row in rows}

    def table_names(self) -> list[str]:
        with self.pool.primary_held():
            rows = self.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            ).fetchall()
        return [row[0] for row in rows]

    def close(self) -> None:
        """Roll back in-flight work, close every session, and release the
        database.  Sessions closed here bump their epoch, so a dangling
        SQL-layer connection sees its transaction as ended instead of
        misreporting (or later clobbering) someone else's."""
        if self._closed:
            return
        self._closed = True
        for session in self.live_sessions():
            session.close()
        if self.connection.in_transaction:
            self.connection.execute("ROLLBACK")
        self.engine.detach_backend(self)
        self.pool.close()
