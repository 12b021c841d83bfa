"""Exception hierarchy shared by every repro subsystem.

All errors raised by the library derive from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors, catalog violations, and runtime
data-access problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ExpressionError(ReproError):
    """Problem while lexing, parsing, or evaluating a scalar expression."""


class ParseError(ReproError):
    """Syntactic problem in a BiDEL script or expression.

    Carries the 1-based ``line``/``column`` of the offending token when
    known, so callers can point users at the exact script location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SchemaError(ReproError):
    """Invalid schema definition or schema lookup failure."""


class DatalogError(ReproError):
    """Malformed Datalog rules or an evaluation-time violation."""


class CatalogError(ReproError):
    """Violation of schema-version-catalog invariants (unknown versions,
    dangling table versions, cyclic genealogies, ...)."""


class MaterializationError(CatalogError):
    """A requested materialization schema violates validity conditions (55)
    or (56) of the paper, or names unknown table versions."""


class CatalogCorruptError(CatalogError):
    """The catalog persisted inside a database does not match the database
    itself: fingerprint mismatches after log replay, or physical tables
    missing/drifted.  Recovery refuses to serve wrong answers; see
    ``repro.open(..., repair=True)`` / ``force=True`` for escape hatches."""


class EvolutionError(ReproError):
    """A BiDEL evolution cannot be applied to the given source version."""


class MissingTableError(EvolutionError):
    """An SMO reads tables its working schema lacks (``tables``)."""

    def __init__(self, message: str, tables: list[str]):
        super().__init__(message)
        self.tables = tables


class TableExistsError(EvolutionError):
    """An SMO creates a table its working schema already has (``table``)."""

    def __init__(self, message: str, table: str):
        super().__init__(message)
        self.table = table


class AccessError(ReproError):
    """Invalid data access through a schema version (unknown table/column,
    bad value types, write to a dropped version, ...)."""


class VerificationError(ReproError):
    """A bidirectionality check (symbolic or runtime) failed."""


class BackendError(ReproError):
    """Failure in an execution backend (e.g. the SQLite delta-code backend)."""


# -- DB-API (PEP 249) hierarchy for the SQL-facing connection layer ---------


class SqlError(ReproError):
    """Base class for the SQL access layer (PEP 249 ``Error``)."""


class InterfaceError(SqlError):
    """Misuse of the DB-API interface itself (e.g. operating on a closed
    connection or cursor) rather than of the database."""


class DatabaseError(SqlError):
    """Error related to the database (PEP 249 ``DatabaseError``)."""


class ProgrammingError(DatabaseError):
    """Bad SQL text, wrong parameter count, unknown table or column."""


class OperationalError(DatabaseError):
    """Errors during statement processing not caused by the statement text
    (e.g. a write rejected because the version accepts no writes)."""


class NotSupportedError(DatabaseError):
    """A requested SQL feature lies outside the supported dialect."""
