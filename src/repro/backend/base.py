"""The engine <-> backend synchronisation contract.

An execution backend mirrors the engine's catalog inside an external DBMS.
The engine remains the single owner of the *catalog* (schema versions,
SMO instances, materialization flags); an attached backend owns the *data
plane*.  The engine notifies the backend at every catalog transition so the
backend can regenerate its delta code:

- :meth:`ExecutionBackend.on_evolution` after a ``CREATE SCHEMA VERSION``
  committed new table versions and SMO instances to the catalog, naming
  the SMOs it added;
- :meth:`ExecutionBackend.on_materialize`, the one ``MATERIALIZE`` hook,
  for a move's cutover — the whole offline move; ``MATERIALIZE ONLINE``
  runs :meth:`~ExecutionBackend.prepare_move` and
  :meth:`~ExecutionBackend.copy_chunk` first and hands the move over;
- :meth:`ExecutionBackend.on_drop` after ``DROP SCHEMA VERSION`` removed
  SMO instances from the catalog.

When a hook raises, its transaction has rolled back and the engine restores
its catalog.  Once a hook has committed, the engine calls
:meth:`ExecutionBackend.verify_transition`, the backend's post-commit
check, whose error fails the statement but leaves the transition in place.

Catalog transitions are pool-wide events: the engine takes its catalog
write lock (draining every in-flight session statement), calls
:meth:`ExecutionBackend.quiesce` so the backend can end every session's
open transaction (DDL is not transactional), and only then runs the
hooks above — so delta code is regenerated exactly once and republished
atomically to all sessions.  Online chunks alone run under the read side.

An attached backend takes the rows: the engine's in-memory tables are
emptied once the backend has committed its copy, and reads and writes must
go through backend sessions.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.online import Move
    from repro.catalog.genealogy import SmoInstance
    from repro.catalog.versions import SchemaVersion


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine expects of an attached execution backend."""

    def on_evolution(self, version: "SchemaVersion", added: list["SmoInstance"]) -> None:
        """A new schema version and the SMO instances it ``added`` entered
        the catalog."""

    def on_materialize(
        self, schema: frozenset["SmoInstance"], apply: Callable[[], None],
        move: "Move | None" = None,
    ) -> None:
        """Cut storage over to ``schema`` in one transaction: stage what
        ``move``'s chunks did not (everything, offline), swap it in, call
        ``apply`` (the engine's layout rebuild and flag flip) and
        regenerate views and triggers."""

    def prepare_move(self, schema: frozenset["SmoInstance"], chunk_rows=None) -> "Move":
        """Start and journal an online move to ``schema``."""

    def copy_chunk(self, move: "Move") -> bool:
        """Copy one chunk of ``move``; ``True`` once the copy has drained."""

    def on_drop(self, version: "SchemaVersion", removed: list["SmoInstance"]) -> None:
        """A schema version was dropped; ``removed`` SMOs left the catalog."""

    def verify_transition(self, kind: str) -> None:
        """Check what the committed transition ``kind`` (evolution,
        materialize or drop) installed; raise on an error.  The engine
        calls it after the hook above has committed and keeps the
        transition when it raises: the file holds it already."""

    def quiesce(self) -> None:
        """A catalog transition is imminent (the engine holds the catalog
        write lock): commit every session's open transaction so the
        transition starts from a clean, fully committed data plane."""

    def close(self) -> None:
        """Release the backend's resources."""
