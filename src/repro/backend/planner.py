"""Lowering DB-API statements onto live-backend SQL.

The statement AST of :mod:`repro.sql` is rendered back into SQLite SQL
against the generated views, pushing WHERE / ORDER BY / LIMIT / OFFSET
down to the backend's query engine.  ``?`` placeholders are renumbered to
``?N`` so parameter positions survive re-rendering.  Semantics mirror the
in-memory planner: the ``rowid`` pseudo-column maps to the tuple id ``p``,
NULLs sort last in either direction, generated key columns reject updates,
and the cursor ``description`` is identical on both backends.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING

from repro.backend.emit import q, qcols
from repro.catalog.versions import SchemaVersion
from repro.errors import AccessError, ProgrammingError
from repro.expr.ast import Expression
from repro.sql.ast import (
    BidelStatement,
    Delete,
    Insert,
    Parameter,
    Select,
    Update,
    substitute_parameters,
)
from repro.sql.planner import (
    ROWID,
    StatementResult,
    _projection,
    build_insert_mappings,
    resolve_table,
    rowid_exposed,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.sqlite import SqliteSession
    from repro.catalog.genealogy import TableVersion

class _Numbered(Parameter):
    """A parameter rendered as ``?N``, so a statement rendered back keeps
    each parameter at its position.  (:class:`Parameter` renders ``?``:
    a projection's text is its output name.)"""

    def to_sql(self) -> str:
        return f"?{self.index + 1}"


def _render(tv: "TableVersion", expression: Expression) -> str:
    """``expression`` as SQLite SQL over ``tv``'s view: every column
    checked and quoted (``rowid`` is the tuple id ``p``), every parameter
    numbered."""
    references = {}
    for name in sorted(expression.columns()):
        if tv.schema.has_column(name):
            references[name] = q(name)
        elif name == ROWID and rowid_exposed(tv):
            references[name] = "p"
        else:
            raise ProgrammingError(f"table {tv.name!r} has no column {name!r}")
    numbered = substitute_parameters(expression.rename(references), lambda p: _Numbered(p.index))
    return numbered.to_sql()


def _where_sql(tv: "TableVersion", where: Expression | None) -> str:
    if where is None:
        return ""
    # WHERE semantics require a genuine TRUE; SQLite's WHERE already
    # treats NULL as not-satisfied.
    return f" WHERE {_render(tv, where)}"


def _max_param_index(expression) -> int:
    """Highest ``?N`` index (1-based) appearing in an expression tree, 0
    when parameter-free."""
    if isinstance(expression, Parameter):
        return expression.index + 1
    highest = 0
    if is_dataclass(expression):
        for field in fields(expression):
            value = getattr(expression, field.name)
            candidates = value if isinstance(value, tuple) else (value,)
            for candidate in candidates:
                if isinstance(candidate, Expression):
                    highest = max(highest, _max_param_index(candidate))
    return highest


# ---------------------------------------------------------------------------
# Compiled plans
#
# ``compile_statement_sqlite`` lowers a parsed statement ONCE — table
# resolution, column validation, SQL rendering, ``description`` assembly —
# into a plan object whose ``run()`` only binds parameters and executes.
# The engine's :class:`~repro.sql.plancache.PlanCache` keeps each plan for
# as long as its schema version lives: a plan names only its table
# version's view, and no evolution or ``MATERIALIZE`` renames a view.
# sqlite3's per-connection statement cache (sized by the pool's
# ``cached_statements`` knob) keeps the *prepared* form of each plan's SQL
# per session, so a repeated statement costs two dictionary lookups before
# SQLite runs it; after DDL, SQLite re-prepares it once per session.
# ---------------------------------------------------------------------------


def _query_plan(session: "SqliteSession", sql: str, param_count: int) -> str:
    """SQLite's ``EXPLAIN QUERY PLAN`` for ``sql`` on ``session`` — the
    plan the statement would run with there, one detail line per node,
    indented by depth.  Nothing is executed; parameters are bound to
    NULL (the plan does not depend on their values).  SQLite does not
    descend into ``INSTEAD OF`` trigger programs."""
    depth = {0: -1}
    lines = []
    for node, parent, _unused, detail in session.execute(
        "EXPLAIN QUERY PLAN " + sql, (None,) * param_count
    ):
        depth[node] = depth[parent] + 1
        lines.append("  " * depth[node] + detail)
    return "\n".join(lines)


def _view_sql(session: "SqliteSession", view_name: str) -> list[tuple[str, str]]:
    """The ``view_sql`` row: the flattened view's SQL as SQLite stores it."""
    stored = session.execute(
        "SELECT sql FROM sqlite_master WHERE type = 'view' AND name = ?",
        (view_name,),
    ).fetchone()
    return [("view_sql", stored[0])] if stored and stored[0] else []


class SqliteSelectPlan:
    kind = "select"

    def __init__(self, sql: str, description: tuple, param_count: int,
                 view_name: str = ""):
        self.sql = sql
        self.description = description
        self.param_count = param_count
        self.view_name = view_name

    def run(self, session: "SqliteSession", params: tuple) -> StatementResult:
        rows = session.execute(self.sql, params).fetchall()
        return StatementResult(self.description, rows, len(rows))

    def explain_entries(self, session: "SqliteSession") -> list[tuple[str, str]]:
        return [
            ("plan", type(self).__name__),
            ("view", self.view_name),
            ("backend_sql", self.sql),
            ("query_plan", _query_plan(session, self.sql, self.param_count)),
            *_view_sql(session, self.view_name),
        ]


class SqliteInsertPlan:
    kind = "insert"

    def __init__(self, version: SchemaVersion, stmt: Insert, tv: "TableVersion"):
        self.version = version
        self.stmt = stmt
        self.tv = tv
        self.param_count = stmt.param_count
        collist = ", ".join(["p", *qcols(tv.schema.column_names)])
        placeholders = ", ".join("?" for _ in range(len(tv.schema.column_names) + 1))
        self.insert_sql = (
            f"INSERT INTO {tv.view_name} ({collist}) VALUES ({placeholders})"
        )

    def run(self, session: "SqliteSession", params: tuple) -> StatementResult:
        return self.run_many(session, [params])

    def run_many(self, session: "SqliteSession", seq_of_params) -> StatementResult:
        """One multi-row write for the whole batch (``seq_of_params`` rows
        are already-normalized tuples): every parameter row's VALUES are
        evaluated first, the rows that bring no key of their own take
        theirs from the sequence as one block, then a single
        ``executemany`` against the generated view fires the INSTEAD OF
        trigger program per row inside SQLite — no per-row re-planning
        in Python."""
        tv = self.tv
        mappings = [
            values
            for params in seq_of_params
            for values in build_insert_mappings(self.version, self.stmt, params)[1]
        ]
        provided = [
            None if tv.key_column is None else values.get(tv.key_column)
            for values in mappings
        ]
        missing = provided.count(None)
        fresh = iter(session.allocate_keys(missing) if missing else ())
        keys = [next(fresh) if key is None else int(key) for key in provided]
        rows: list[tuple] = []
        for key, values in zip(keys, mappings):
            if tv.key_column is not None:
                values = {**values, tv.key_column: key}
            rows.append((key, *tv.schema.row_from_mapping(values)))
        if rows:
            session.cursor().executemany(self.insert_sql, rows)
        return StatementResult(rowcount=len(keys), lastrowid=keys[-1] if keys else None)

    @property
    def view_name(self) -> str:
        return self.tv.view_name

    def explain_entries(self, session: "SqliteSession") -> list[tuple[str, str]]:
        width = len(self.tv.schema.column_names) + 1
        return [
            ("plan", type(self).__name__),
            ("view", self.view_name),
            ("backend_sql", self.insert_sql),
            ("query_plan", _query_plan(session, self.insert_sql, width)),
            *_view_sql(session, self.view_name),
        ]


class SqliteUpdatePlan:
    kind = "update"

    def __init__(self, count_sql: str, dml_sql: str, where_params: int,
                 param_count: int, view_name: str = ""):
        #: The equivalent read, kept for plan inspection; never executed.
        self.count_sql = count_sql
        self.dml_sql = dml_sql
        #: What ``run`` sends: ``changes()`` is always 0 on a view, but
        #: RETURNING yields one row per view row an INSTEAD OF trigger
        #: fired for — the rows matched before the write.
        self.executed_sql = dml_sql + " RETURNING 1"
        self.where_params = where_params
        self.param_count = param_count
        self.view_name = view_name

    def explain_entries(self, session: "SqliteSession") -> list[tuple[str, str]]:
        return [
            ("plan", type(self).__name__),
            ("view", self.view_name),
            ("backend_sql", self.dml_sql),
            ("executed_sql", self.executed_sql),
            ("query_plan", _query_plan(session, self.executed_sql, self.param_count)),
            ("count_sql", self.count_sql),
            (
                "count_query_plan",
                _query_plan(session, self.count_sql, self.where_params),
            ),
            *_view_sql(session, self.view_name),
        ]

    def run(self, session: "SqliteSession", params: tuple) -> StatementResult:
        rows = session.execute(self.executed_sql, params).fetchall()
        return StatementResult(None, [], len(rows))


class SqliteDeletePlan(SqliteUpdatePlan):
    # A DELETE's only parameters are its WHERE's, so ``run`` is shared.
    kind = "delete"


def compile_select(version: SchemaVersion, stmt: Select) -> SqliteSelectPlan:
    tv = resolve_table(version, stmt.table)
    items, description = _projection(tv, stmt.items)
    select_list = ", ".join(_render(tv, item.expression) for item in items)
    sql = f"SELECT {select_list} FROM {tv.view_name}"
    sql += _where_sql(tv, stmt.where)
    if stmt.order_by:
        keys = []
        for item in stmt.order_by:
            direction = "DESC" if item.descending else "ASC"
            keys.append(f"{_render(tv, item.expression)} {direction} NULLS LAST")
        sql += " ORDER BY " + ", ".join(keys)
    if stmt.limit is not None:
        sql += f" LIMIT {_render(tv, stmt.limit)}"
        if stmt.offset is not None:
            sql += f" OFFSET {_render(tv, stmt.offset)}"
    return SqliteSelectPlan(sql, description, stmt.param_count, tv.view_name)


def compile_insert(version: SchemaVersion, stmt: Insert) -> SqliteInsertPlan:
    tv = resolve_table(version, stmt.table)
    if stmt.columns is not None:
        for name in stmt.columns:
            if not tv.schema.has_column(name):
                raise ProgrammingError(f"table {tv.name!r} has no column {name!r}")
    return SqliteInsertPlan(version, stmt, tv)


def compile_update(version: SchemaVersion, stmt: Update) -> SqliteUpdatePlan:
    tv = resolve_table(version, stmt.table)
    sets = []
    for name, expression in stmt.assignments:
        if not tv.schema.has_column(name):
            raise ProgrammingError(f"table {tv.name!r} has no column {name!r}")
        if name == tv.key_column:
            raise AccessError(
                f"column {name!r} of {tv.name!r} is the generated "
                "identifier and cannot be updated"
            )
        sets.append(f"{q(name)} = {_render(tv, expression)}")
    where_sql = _where_sql(tv, stmt.where)
    count_sql = f"SELECT COUNT(*) FROM {tv.view_name}" + where_sql
    dml_sql = f"UPDATE {tv.view_name} SET {', '.join(sets)}" + where_sql
    return SqliteUpdatePlan(
        count_sql, dml_sql, _max_param_index(stmt.where), stmt.param_count,
        tv.view_name,
    )


def compile_delete(version: SchemaVersion, stmt: Delete) -> SqliteDeletePlan:
    tv = resolve_table(version, stmt.table)
    where_sql = _where_sql(tv, stmt.where)
    count_sql = f"SELECT COUNT(*) FROM {tv.view_name}" + where_sql
    dml_sql = f"DELETE FROM {tv.view_name}" + where_sql
    return SqliteDeletePlan(
        count_sql, dml_sql, _max_param_index(stmt.where), stmt.param_count,
        tv.view_name,
    )


def compile_statement_sqlite(version: SchemaVersion, stmt):
    """Lower ``stmt`` to a reusable plan against ``version``'s views."""
    if isinstance(stmt, Select):
        return compile_select(version, stmt)
    if isinstance(stmt, Insert):
        return compile_insert(version, stmt)
    if isinstance(stmt, Update):
        return compile_update(version, stmt)
    if isinstance(stmt, Delete):
        return compile_delete(version, stmt)
    if isinstance(stmt, BidelStatement):  # pragma: no cover - handled upstream
        raise ProgrammingError("BiDEL DDL runs through the engine, not the backend")
    raise ProgrammingError(f"cannot execute {type(stmt).__name__} here")

