"""The handles of one shared SQLite database: a primary and a pool.

The live backend serves *many* concurrent clients over one database that
holds the physical tables and the generated delta code.  Two kinds of
``sqlite3`` handle serve them:

- the **primary** handle is the backend's administrative handle.  It
  runs every catalog transition's DDL, so SQLite keeps its in-memory
  schema current in place: a statement on it never pays a schema reload
  after a transition.  An autocommit statement runs on it whenever it is
  free (:meth:`SessionPool.try_primary`); transitions, online backfill
  chunks and the engine-facing helpers wait for it
  (:meth:`SessionPool.primary_held`), and a statement never takes it
  while one of them is waiting.
- **overflow** handles are pooled (:meth:`SessionPool.acquire`).  A
  session leases one while it holds an open transaction, or for one
  statement when another thread holds the primary, so transactions stay
  real and independent and concurrent statements still run in parallel.

Two database modes are supported:

- **file-backed (WAL)** — the database lives on disk and is opened in
  write-ahead-log mode: any number of handles read concurrently without
  blocking each other or the (single) writer, each read sees a consistent
  committed snapshot, and writers queue on SQLite's write lock with a
  busy timeout.  This is the serving configuration; it is what the
  ``fig14`` concurrency benchmark measures.
- **shared-cache in-memory** (the default ``:memory:``) — all handles
  attach to one shared-cache memory database with ``read_uncommitted``
  enabled, preserving the engine's documented READ UNCOMMITTED semantics:
  in-flight writes are visible to every co-existing version until rolled
  back, and a write that conflicts with another session's open
  transaction fails fast instead of deadlocking.

Every handle is created with ``check_same_thread=False`` so a handle can
be leased on one thread and driven from another (the pool itself is
thread-safe); SQLite's serialized threading mode makes the cross-thread
calls safe.
"""

from __future__ import annotations

import ctypes
import itertools
import sqlite3
import threading
import time
from contextlib import contextmanager

from repro.errors import OperationalError

_shared_memory_counter = itertools.count()

#: How much freed memory at the top of the heap the process keeps
#: (``M_TRIM_THRESHOLD``), and from what size an allocation gets a mapping
#: of its own (``M_MMAP_THRESHOLD``, which glibc stops adapting by itself
#: once either is set).  Every statement of an ``INSTEAD OF`` trigger
#: cascade that writes to a view makes SQLite open an ephemeral table,
#: whose page cache is one 85 KiB allocation: a write four hops from the
#: data allocates and frees 1.2-1.4 MB.  Under glibc's initial 128 KiB
#: trim threshold each such write shrinks and regrows the heap and takes
#: 30-100 page faults (a third to a half of its time) -- or none,
#: depending on what else sits at the top of the heap in that process.
_HEAP_SLACK = 16 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap_slack() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not glibc: nothing to tune
        return
    mallopt(_M_TRIM_THRESHOLD, _HEAP_SLACK)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_SLACK // 2)


def shared_memory_uri() -> str:
    """A fresh shared-cache in-memory database URI: every connection using
    the same URI sees the same database, and the database lives for as
    long as at least one connection stays open."""
    n = next(_shared_memory_counter)
    return f"file:repro-mem-{n}?mode=memory&cache=shared"


class SessionPool:
    """The primary handle plus a thread-safe pool of overflow handles to
    one database.

    Sizing knobs:

    - ``pool_size`` — how many idle handles are retained for reuse; a
      released handle beyond this is closed instead of cached.
    - ``max_sessions`` — hard cap on overflow handles leased out at once
      (the primary is not counted).  ``None``
      (the default) means unbounded: SQLite itself arbitrates concurrency,
      so an uncapped pool cannot deadlock, only add sessions.  With a cap,
      :meth:`acquire` blocks up to ``acquire_timeout`` seconds and then
      raises :class:`~repro.errors.OperationalError`.
    - ``busy_timeout`` — seconds a session waits on SQLite's write lock
      before a statement fails with "database is locked".
    - ``cached_statements`` — size of sqlite3's per-connection prepared-
      statement cache.  The statement hot path reuses one rendered SQL
      text per cached plan, so a generous cache means repeated statements
      skip SQLite's prepare entirely.
    - ``plan_cache_stats`` — optional zero-argument callable returning the
      engine's plan-cache counters; when set, :meth:`stats` folds them in
      so one ``status`` round trip reports pool *and* cache health.
    - ``metrics`` — optional :class:`repro.obs.MetricsRegistry`; when set,
      lease waits land in ``repro_pool_lease_wait_seconds``, overflow
      occupancy in ``repro_pool_sessions{state=leased|idle}``, and
      ``repro_pool_leases_total{handle=primary|overflow}`` reads the
      pool's own lease counts (each lease is counted once).
    """

    def __init__(
        self,
        database: str,
        *,
        uri: bool = False,
        wal: bool = False,
        pool_size: int = 8,
        max_sessions: int | None = None,
        busy_timeout: float = 5.0,
        acquire_timeout: float = 30.0,
        cached_statements: int = 256,
        plan_cache_stats=None,
        metrics=None,
    ):
        self.database = database
        self.uri = uri
        self.wal = wal
        self.pool_size = pool_size
        self.max_sessions = max_sessions
        self.busy_timeout = busy_timeout
        self.acquire_timeout = acquire_timeout
        self.cached_statements = cached_statements
        self.plan_cache_stats = plan_cache_stats
        self._lease_wait = None
        self._sessions_gauge = None
        if metrics is not None:
            self._lease_wait = metrics.histogram(
                "repro_pool_lease_wait_seconds",
                "Time spent waiting to lease a pooled overflow handle.",
            )
            self._sessions_gauge = metrics.gauge(
                "repro_pool_sessions",
                "Leased and idle overflow handles (the primary is not counted).",
                ("state",),
            )
            metrics.counter(
                "repro_pool_leases_total",
                "Handles leased to sessions, primary or overflow.",
                ("handle",),
            ).collect_from(
                lambda: {(kind,): n for kind, n in self._leases.items()}
            )
        self._idle: list[sqlite3.Connection] = []
        self._leased = 0
        self._leases = {"primary": 0, "overflow": 0}
        self._closed = False
        self._cond = threading.Condition()
        _keep_heap_slack()
        #: The backend's administrative handle, lent to one statement at a
        #: time when free; see :meth:`try_primary` / :meth:`primary_held`.
        self.primary = self.connect()
        self._primary_lock = threading.Lock()
        self._primary_owner: int | None = None
        self._primary_waiting = 0  # guarded by _cond

    # ------------------------------------------------------------------
    # Connection construction
    # ------------------------------------------------------------------

    def _configure(self, connection: sqlite3.Connection) -> sqlite3.Connection:
        connection.isolation_level = None  # manual transaction control
        connection.execute(f"PRAGMA busy_timeout = {int(self.busy_timeout * 1000)}")
        # The online-MATERIALIZE change capture hangs AFTER triggers on the
        # physical tables; without recursive triggers SQLite would skip
        # them for writes made *inside* the INSTEAD OF trigger programs
        # (i.e. every routed write).  No other trigger is affected: the
        # generated delta code only ever uses INSTEAD OF triggers on
        # views, which base-table writes cannot fire.
        connection.execute("PRAGMA recursive_triggers = ON")
        if self.wal:
            # Idempotent: the journal mode is a property of the database
            # file, but every connection must still opt in to NORMAL
            # syncing (durability is not the reproduction's bottleneck).
            connection.execute("PRAGMA journal_mode = WAL")
            connection.execute("PRAGMA synchronous = NORMAL")
        else:
            # Shared-cache mode uses table-level locks; read_uncommitted
            # keeps readers from blocking on (and lets them see) other
            # sessions' in-flight writes — the engine's documented
            # READ UNCOMMITTED isolation.
            connection.execute("PRAGMA read_uncommitted = 1")
        return connection

    def connect(self) -> sqlite3.Connection:
        """One new configured handle, outside the pool's accounting."""
        return self._configure(
            sqlite3.connect(
                self.database,
                uri=self.uri,
                check_same_thread=False,
                timeout=self.busy_timeout,
                cached_statements=self.cached_statements,
            )
        )

    # ------------------------------------------------------------------
    # The primary handle
    # ------------------------------------------------------------------

    def try_primary(self) -> sqlite3.Connection | None:
        """The primary handle for one statement, or ``None`` when another
        thread holds it or waits for it (the caller then leases an
        overflow handle).  Never blocks; :meth:`release_primary` ends the
        lease."""
        # Unlocked read: a waiter registers before it blocks, so at most a
        # statement already past this check goes ahead of it.
        if self._primary_waiting or not self._primary_lock.acquire(blocking=False):
            return None
        self._primary_owner = threading.get_ident()
        self._leases["primary"] += 1  # serialized by the primary lock
        return self.primary

    def release_primary(self) -> None:
        self._primary_owner = None
        self._primary_lock.release()

    @contextmanager
    def primary_held(self):
        """Hold the primary handle for the block, waiting for it: catalog
        transitions, online backfill chunks and the engine-facing helpers.
        A statement does not take the primary while anyone waits here.
        Reentrant on the holding thread."""
        if self._primary_owner == threading.get_ident():
            yield self.primary
            return
        with self._cond:
            self._primary_waiting += 1
        try:
            self._primary_lock.acquire()
        finally:
            with self._cond:
                self._primary_waiting -= 1
        self._primary_owner = threading.get_ident()
        try:
            yield self.primary
        finally:
            self.release_primary()

    # ------------------------------------------------------------------
    # Overflow leasing
    # ------------------------------------------------------------------

    def acquire(self) -> sqlite3.Connection:
        wait_start = time.perf_counter()
        with self._cond:
            if self._closed:
                raise OperationalError("the connection pool is closed")
            if self.max_sessions is not None:
                deadline = time.monotonic() + self.acquire_timeout
                while self._leased >= self.max_sessions:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(timeout=remaining):
                        raise OperationalError(
                            f"no session available within {self.acquire_timeout}s "
                            f"(max_sessions={self.max_sessions})"
                        )
                    if self._closed:
                        raise OperationalError("the connection pool is closed")
            self._leased += 1
            self._leases["overflow"] += 1
            handle = self._idle.pop() if self._idle else None
        self._observe_lease(wait_start)
        if handle is not None:
            return handle
        try:
            return self.connect()
        except BaseException:
            with self._cond:
                self._leased -= 1
                self._cond.notify()
            self._publish_occupancy()
            raise

    def _observe_lease(self, wait_start: float) -> None:
        if self._lease_wait is not None:
            self._lease_wait.observe(time.perf_counter() - wait_start)
        self._publish_occupancy()

    def _publish_occupancy(self) -> None:
        if self._sessions_gauge is None:
            return
        with self._cond:
            leased, idle = self._leased, len(self._idle)
        self._sessions_gauge.set(leased, state="leased")
        self._sessions_gauge.set(idle, state="idle")

    def release(self, connection: sqlite3.Connection) -> None:
        """Return a handle to the pool; any open transaction is rolled
        back so the next lease starts clean."""
        try:
            if connection.in_transaction:
                connection.execute("ROLLBACK")
        except sqlite3.Error:
            connection.close()
            connection = None  # type: ignore[assignment]
        with self._cond:
            self._leased = max(0, self._leased - 1)
            if (
                connection is not None
                and not self._closed
                and len(self._idle) < self.pool_size
            ):
                self._idle.append(connection)
                connection = None  # type: ignore[assignment]
            self._cond.notify()
        self._publish_occupancy()
        if connection is not None:
            connection.close()

    @property
    def leased(self) -> int:
        with self._cond:
            return self._leased

    @property
    def idle(self) -> int:
        with self._cond:
            return len(self._idle)

    def stats(self) -> dict:
        """A consistent snapshot of the pool's sizing and occupancy — the
        numbers the network server's ``status`` op reports to clients.
        ``leased`` / ``idle`` count overflow handles; ``leases`` counts
        every lease so far by handle (``primary`` / ``overflow``)."""
        with self._cond:
            payload = {
                "database": self.database,
                "wal": self.wal,
                "leased": self._leased,
                "idle": len(self._idle),
                "leases": dict(self._leases),
                "pool_size": self.pool_size,
                "max_sessions": self.max_sessions,
                "busy_timeout": self.busy_timeout,
                "cached_statements": self.cached_statements,
                "closed": self._closed,
            }
        if self.plan_cache_stats is not None:
            payload["plan_cache"] = self.plan_cache_stats()
        if self._lease_wait is not None:
            payload["lease_waits"] = self._lease_wait.series_stats()
        return payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for connection in (*idle, self.primary):
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best effort
                pass
