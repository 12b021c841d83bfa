"""The in-memory engine's session: one client's transactions on the engine.

:class:`MemorySession` gives the DB-API connection the surface that
:class:`repro.backend.sqlite.SqliteSession` gives it on the live backend:
the statement scope (``with session:``), ``begin`` / ``commit`` /
``rollback``, ``in_transaction``, ``transaction_epoch``, the atomic
statement write and plan compile.

Its transactions follow the memory engine's deliberate *join semantics*.
The engine applies writes eagerly to shared tables and journals an undo
entry for each, in one journal: a session that begins while another
session's transaction is open joins that journal, and its rollback undoes
the journal's suffix since it joined.  Per-session journals could not
undo one session's writes safely while the single-writer engine
interleaves them with another's.  The journal ends with its owner's
commit or rollback, or with a catalog transition, and
``transaction_epoch`` moves: a joiner learns that its transaction ended
the way a SQLite session learns of a quiesce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InterfaceError
from repro.sql.planner import MemoryPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import InVerDa


class MemorySession:
    """One client's access to the engine's in-memory tables."""

    backend_name = "memory"
    #: The live backend the session runs on: none, it runs on the engine.
    backend = None
    compile = MemoryPlan

    def __init__(self, engine: "InVerDa"):
        self.engine = engine
        self._journal: list | None = None  # the journal our transaction writes into
        self._mark = 0  # its length when we began (the suffix we roll back)
        self._owner = False  # did we open it?

    def __enter__(self) -> "MemorySession":
        """Open a statement scope: the in-memory tables must still hold
        the rows.  They do not while a live backend owns the data plane,
        nor — the attach having handed the rows over — after that
        backend was closed.  (DDL and ``CHECK`` read the catalog only and
        open no scope.)"""
        engine = self.engine
        if engine.live_backend is not None or engine.rows_handed_over:
            self.require_data_plane()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def require_data_plane(self) -> None:
        engine = self.engine
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

    # -- transactions ----------------------------------------------------

    @property
    def transaction_epoch(self) -> int:
        return self.engine._journal_epoch

    @property
    def in_transaction(self) -> bool:
        return self._journal is not None and self._journal is self.engine._undo_log

    def begin(self) -> None:
        """Open the engine's journal, or join the one that is open."""
        engine = self.engine
        journal = engine._undo_log
        self._owner = journal is None
        if self._owner:
            journal = engine._undo_log = []
        self._journal, self._mark = journal, len(journal)

    def commit(self) -> None:
        """Keep the transaction's writes.  A joiner's writes stay in the
        owner's journal and end with it."""
        if self._owner and self.in_transaction:
            self.engine._end_journal()
        self._journal = None

    def rollback(self) -> None:
        """Undo the journal's suffix since this transaction began —
        everywhere it propagated.  A journal that already ended leaves
        nothing to undo: a mark into a newer one would erase someone
        else's writes."""
        if self.in_transaction:
            self.engine._rollback_to(self._mark)
            if self._owner:
                self.engine._end_journal()
        self._journal = None

    close = rollback

    def write(self, run, *args):
        """``run(*args)`` as one atomic write: a failure undoes exactly the
        statement (or ``executemany`` batch).  Outside a transaction of
        this session the statement commits itself — also when another
        session's journal is open, whose rollback must not erase a
        self-committed write."""
        engine = self.engine
        journal = engine._undo_log
        own = journal is None  # the statement's own journal
        if own:
            journal = engine._undo_log = []
        mark = len(journal)
        try:
            result = run(*args)
        except BaseException:
            engine._rollback_to(mark)
            raise
        finally:
            if own:
                engine._undo_log = None
        if self._journal is not journal:  # not in a transaction of ours
            del journal[mark:]
        return result

    def counting(self, span):
        """The ``execute`` span as is: the engine runs no SQL to count."""
        return span
