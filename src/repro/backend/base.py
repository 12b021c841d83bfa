"""The engine <-> backend synchronisation contract.

An execution backend mirrors the engine's catalog inside an external DBMS.
The engine remains the single owner of the *catalog* (schema versions,
SMO instances, materialization flags); an attached backend owns the *data
plane*.  The engine notifies the backend at every catalog transition so the
backend can regenerate its delta code:

- :meth:`ExecutionBackend.on_evolution` after a ``CREATE SCHEMA VERSION``
  committed new table versions and SMO instances to the catalog;
- :meth:`ExecutionBackend.on_materialize` when a ``MATERIALIZE`` statement
  moves the physical table schema (called *before* the engine mutates its
  own in-memory storage, so the backend migrates from its current state);
- :meth:`ExecutionBackend.on_drop` after ``DROP SCHEMA VERSION`` removed
  SMO instances from the catalog.

Catalog transitions are pool-wide events: the engine takes its catalog
write lock (draining every in-flight session statement), calls
:meth:`ExecutionBackend.quiesce` so the backend can end every session's
open transaction (DDL is not transactional), and only then runs the
hooks above — so delta code is regenerated exactly once and republished
atomically to all sessions.

An attached backend takes the rows: the engine's in-memory tables are
emptied once the backend has committed its copy, and reads and writes must
go through backend sessions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import SmoInstance
    from repro.catalog.versions import SchemaVersion


@runtime_checkable
class ExecutionBackend(Protocol):
    """What the engine expects of an attached execution backend."""

    def on_evolution(self, version: "SchemaVersion") -> None:
        """A new schema version (and its SMO instances) entered the catalog."""

    def on_materialize(self, schema: frozenset["SmoInstance"]) -> None:
        """The materialization schema is about to become ``schema``; stage
        and swap the backend's physical storage in place (the catalog still
        carries the old materialization flags at this point)."""

    def after_materialize(self) -> None:
        """The catalog now carries the new materialization flags; regenerate
        views and triggers."""

    def on_drop(self, version_name: str, removed: list["SmoInstance"]) -> None:
        """A schema version was dropped; ``removed`` SMOs left the catalog."""

    def quiesce(self) -> None:
        """A catalog transition is imminent (the engine holds the catalog
        write lock): commit every session's open transaction so the
        transition starts from a clean, fully committed data plane."""

    def close(self) -> None:
        """Release the backend's resources."""
