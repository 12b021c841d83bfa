"""Lowering SQL statements onto the engine's version routing.

This module owns the CRUD primitives of the access layer: every visible
read goes through :meth:`InVerDa.read_table_version` and every write
through :meth:`InVerDa.apply_change`, so the engine's generated mapping
logic keeps all co-existing schema versions consistent.

Like SQLite, every table exposes a ``rowid`` pseudo-column carrying the
internal tuple identifier ``p`` of the paper's trigger architecture —
unless the table has a real column of that name. ``rowid`` is not part of
``SELECT *`` but may be projected, filtered, and ordered on explicitly,
which gives SQL clients a stable handle on rows of tables without a
visible key column.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.bidel.smo.base import TableChange
from repro.catalog.genealogy import TableVersion
from repro.catalog.versions import SchemaVersion
from repro.errors import (
    AccessError,
    CatalogError,
    ExpressionError,
    ProgrammingError,
)
from repro.expr.ast import Column as ColumnRef
from repro.expr.ast import Expression, is_true
from repro.relational.types import DataType
from repro.sql.ast import (
    Delete,
    Insert,
    OrderItem,
    Select,
    SelectItem,
    SqlStatement,
    Update,
    bind_expression,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import InVerDa
    from repro.core.session import MemorySession

ROWID = "rowid"

RowMapping = dict[str, Any]
Predicate = Callable[[RowMapping], bool]


def resolve_table(version: SchemaVersion, table: str) -> TableVersion:
    try:
        return version.table_version(table)
    except (AccessError, CatalogError) as exc:
        raise ProgrammingError(str(exc)) from exc


def rowid_exposed(tv: TableVersion) -> bool:
    """The ``rowid`` pseudo-column exists unless shadowed by a real one."""
    return not tv.schema.has_column(ROWID)


def visible_rows(engine: "InVerDa", tv: TableVersion) -> Iterable[tuple[int, RowMapping]]:
    """(key, mapping) pairs of the table version's visible extent, each
    mapping carrying the ``rowid`` pseudo-column unless a real one shadows it."""
    schema = tv.schema
    expose = rowid_exposed(tv)
    for key, row in engine.read_table_version(tv, cache={}).items():
        mapping = schema.row_to_mapping(row)
        if expose:
            mapping[ROWID] = key
        yield key, mapping


def insert_rows(
    engine: "InVerDa", tv: TableVersion, mappings: Iterable[Mapping[str, Any]]
) -> list[int]:
    """Insert rows as ONE change batch (a single propagation pass); returns
    the allocated internal tuple identifiers."""
    change = TableChange()
    keys: list[int] = []
    for values in mappings:
        if tv.key_column is not None:
            provided = values.get(tv.key_column)
            key = int(provided) if provided is not None else engine.allocate_key()
            values = dict(values)
            values[tv.key_column] = key
        else:
            key = engine.allocate_key()
        change.upserts[key] = tv.schema.row_from_mapping(values)
        keys.append(key)
    if keys:
        engine.apply_change(tv, change)
    return keys


# ---------------------------------------------------------------------------
# SQL statement execution
# ---------------------------------------------------------------------------


@dataclass
class StatementResult:
    """What one executed statement produced, DB-API shaped."""

    description: tuple[tuple, ...] | None = None
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = -1
    lastrowid: int | None = None


def _where_predicate(where: Expression | None) -> Predicate:
    if where is None:
        return lambda mapping: True
    return lambda mapping: is_true(where.evaluate(mapping))


def _evaluate_scalar(expression: Expression, mapping: RowMapping) -> Any:
    try:
        return expression.evaluate(mapping)
    except ExpressionError as exc:
        raise ProgrammingError(str(exc)) from exc


def _int_clause(expression: Expression, what: str) -> int:
    value = _evaluate_scalar(expression, {})
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProgrammingError(f"{what} must be an integer, got {value!r}")
    return value


def _sort_rows(
    rows: list[tuple[int, RowMapping]], order_by: tuple[OrderItem, ...]
) -> None:
    """Stable multi-key sort; NULLs sort last in either direction."""
    for item in reversed(order_by):
        def sort_key(entry: tuple[int, RowMapping]):
            value = _evaluate_scalar(item.expression, entry[1])
            return (value is None, value) if not item.descending else (value is not None, value)

        rows.sort(key=sort_key, reverse=item.descending)


def _projection(
    tv: TableVersion, items: tuple[SelectItem, ...] | None
) -> tuple[tuple[SelectItem, ...], tuple[tuple, ...]]:
    """Resolve the select list and build the cursor ``description``
    (7-tuples per PEP 249; only name and type_code are populated)."""
    schema = tv.schema
    if items is None:
        items = tuple(SelectItem(ColumnRef(column.name)) for column in schema.columns)
    description = []
    for item in items:
        type_code = None
        expression = item.expression
        if isinstance(expression, ColumnRef):
            if schema.has_column(expression.name):
                type_code = schema.column(expression.name).dtype
            elif expression.name == ROWID and rowid_exposed(tv):
                type_code = DataType.INTEGER
            else:
                raise ProgrammingError(
                    f"table {tv.name!r} has no column {expression.name!r}"
                )
        description.append((item.output_name, type_code, None, None, None, None, None))
    return items, tuple(description)


def execute_select(
    engine: "InVerDa", tv: TableVersion, projection, stmt: Select, params: tuple
) -> StatementResult:
    """``stmt`` over ``tv`` with its resolved ``projection`` (``items,
    description``, see :func:`_projection`)."""
    items, description = projection
    if stmt.param_count:
        items = tuple(
            SelectItem(bind_expression(item.expression, params), item.alias)
            for item in items
        )
    where = bind_expression(stmt.where, params) if stmt.where is not None else None
    order_by = tuple(
        OrderItem(bind_expression(item.expression, params), item.descending)
        for item in stmt.order_by
    )
    predicate = _where_predicate(where)
    matched = [entry for entry in visible_rows(engine, tv) if predicate(entry[1])]
    _sort_rows(matched, order_by)
    if stmt.offset is not None:
        # Negative offsets clamp to 0 (as in SQLite), never a tail slice.
        offset = max(_int_clause(bind_expression(stmt.offset, params), "OFFSET"), 0)
        matched = matched[offset:]
    if stmt.limit is not None:
        limit = _int_clause(bind_expression(stmt.limit, params), "LIMIT")
        if limit >= 0:
            matched = matched[:limit]
    rows = [
        tuple(_evaluate_scalar(item.expression, mapping) for item in items)
        for _key, mapping in matched
    ]
    return StatementResult(description=description, rows=rows, rowcount=len(rows))


def build_insert_mappings(
    version: SchemaVersion, stmt: Insert, params: tuple
) -> tuple[TableVersion, list[RowMapping]]:
    """Evaluate an INSERT's VALUES tuples into column->value mappings."""
    tv = resolve_table(version, stmt.table)
    schema = tv.schema
    if stmt.columns is not None:
        columns = stmt.columns
        for name in columns:
            if not schema.has_column(name):
                raise ProgrammingError(f"table {tv.name!r} has no column {name!r}")
    else:
        columns = schema.column_names
    mappings: list[RowMapping] = []
    for values in stmt.rows:
        if len(values) != len(columns):
            raise ProgrammingError(
                f"row has {len(values)} values; INSERT expects {len(columns)}"
            )
        mappings.append(
            {
                name: _evaluate_scalar(bind_expression(expression, params), {})
                for name, expression in zip(columns, values)
            }
        )
    return tv, mappings


def execute_insert(
    engine: "InVerDa", version: SchemaVersion, stmt: Insert, params: tuple
) -> StatementResult:
    tv, mappings = build_insert_mappings(version, stmt, params)
    keys = insert_rows(engine, tv, mappings)
    return StatementResult(rowcount=len(keys), lastrowid=keys[-1] if keys else None)


def execute_update(
    engine: "InVerDa", tv: TableVersion, stmt: Update, params: tuple
) -> StatementResult:
    schema = tv.schema
    assignments = []
    for name, expression in stmt.assignments:
        if not schema.has_column(name):
            raise ProgrammingError(f"table {tv.name!r} has no column {name!r}")
        if name == tv.key_column:
            raise AccessError(
                f"column {name!r} of {tv.name!r} is the generated "
                "identifier and cannot be updated"
            )
        assignments.append((name, bind_expression(expression, params)))
    where = bind_expression(stmt.where, params) if stmt.where is not None else None
    predicate = _where_predicate(where)
    change = TableChange()
    for key, mapping in visible_rows(engine, tv):
        if not predicate(mapping):
            continue
        updates = {
            name: _evaluate_scalar(expression, mapping)
            for name, expression in assignments
        }
        # Not strict: the mapping's ``rowid`` pseudo-column is no column.
        change.upserts[key] = schema.row_from_mapping({**mapping, **updates}, strict=False)
    if not change.empty:
        engine.apply_change(tv, change)
    return StatementResult(rowcount=len(change.upserts))


def execute_delete(
    engine: "InVerDa", tv: TableVersion, stmt: Delete, params: tuple
) -> StatementResult:
    where = bind_expression(stmt.where, params) if stmt.where is not None else None
    predicate = _where_predicate(where)
    change = TableChange()
    change.deletes.update(
        key for key, mapping in visible_rows(engine, tv) if predicate(mapping)
    )
    if not change.empty:
        engine.apply_change(tv, change)
    return StatementResult(rowcount=len(change.deletes))


class MemoryPlan:
    """A cached statement plan for the in-memory engine.

    Execution on this backend *is* the engine's row-level routing, so the
    plan body only pins what is pure per statement text: the parsed AST,
    the resolved table version, and for SELECTs the resolved select list
    and the prebuilt cursor ``description``.
    """

    _KINDS = {Select: "select", Insert: "insert", Update: "update", Delete: "delete"}

    def __init__(self, version: SchemaVersion, stmt: SqlStatement):
        kind = self._KINDS.get(type(stmt))
        if kind is None:
            raise ProgrammingError(f"cannot execute {type(stmt).__name__} here")
        self.kind = kind
        self.version = version
        self.stmt = stmt
        self.param_count = stmt.param_count
        # Resolve the table (and, for SELECT, the projection) once at
        # compile time, so a cached plan and a cold execution fail
        # identically; a version's tables are fixed while it lives.
        self.table = resolve_table(version, stmt.table)
        self.projection = _projection(self.table, stmt.items) if kind == "select" else None

    def run(self, session: "MemorySession", params: tuple) -> StatementResult:
        engine, kind = session.engine, self.kind
        if kind == "select":
            return execute_select(engine, self.table, self.projection, self.stmt, params)
        if kind == "insert":
            return execute_insert(engine, self.version, self.stmt, params)
        if kind == "update":
            return execute_update(engine, self.table, self.stmt, params)
        return execute_delete(engine, self.table, self.stmt, params)

    def explain_entries(self, _session) -> list[tuple[str, str]]:
        return [
            ("plan", type(self).__name__),
            ("table_version", self.table.name),
            ("routing", "engine row-level routing (memory backend)"),
        ]

    def run_many(self, session: "MemorySession", seq_of_params) -> StatementResult:
        """Bulk-load fast path (``seq_of_params`` rows are already-
        normalized tuples): evaluate every parameter row's VALUES, then
        insert them as ONE change batch (a single propagation pass through
        the version genealogy)."""
        assert isinstance(self.stmt, Insert)
        tv = None
        mappings: list[RowMapping] = []
        for params in seq_of_params:
            tv, row_mappings = build_insert_mappings(
                self.version, self.stmt, params
            )
            mappings.extend(row_mappings)
        keys = insert_rows(session.engine, tv, mappings) if tv is not None else []
        return StatementResult(
            rowcount=len(keys), lastrowid=keys[-1] if keys else None
        )
