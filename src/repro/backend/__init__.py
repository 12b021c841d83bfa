"""Live execution backends: generated delta code running inside a real DBMS.

The paper's system generates views and ``INSTEAD OF`` triggers inside the
DBMS so that every co-existing schema version is a full read/write SQL
interface executed by the standard query engine (Sections 6-7).  This
package is that execution path for SQLite:

- :mod:`repro.backend.handlers` compiles each SMO's bidirectional mapping
  (its Datalog rule sets where available, hand-derived templates for the
  identifier-generating SMOs) into view ``SELECT`` bodies and trigger
  propagation programs;
- :mod:`repro.backend.codegen` walks the schema version catalog and
  assembles the full delta-code script for the current materialization;
- :mod:`repro.backend.sqlite` owns the live SQLite database: it loads the
  physical tables, installs the generated objects, regenerates them on
  evolution, and executes ``MATERIALIZE`` as an in-place SQL migration;
- :mod:`repro.backend.planner` lowers DB-API statements onto backend SQL
  with WHERE/ORDER BY/LIMIT pushdown;
- :mod:`repro.backend.pool` holds the ``sqlite3`` handles of the one
  shared database (WAL for file-backed databases, shared-cache for
  in-memory ones): the primary, which runs the DDL and every autocommit
  statement that finds it free, and pooled overflow handles for open
  transactions and concurrent statements, so clients of different
  schema versions run real, independent transactions.

``repro.connect(engine, version=..., backend="sqlite")`` is the public
entry point.
"""

from repro.backend.base import ExecutionBackend
from repro.backend.pool import SessionPool
from repro.backend.sqlite import LiveSqliteBackend, SqliteSession

__all__ = ["ExecutionBackend", "LiveSqliteBackend", "SessionPool", "SqliteSession"]
