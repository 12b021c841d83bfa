"""Low-level SQL text emitters shared by the backend code generators.

Everything here renders *strings*; nothing talks to a database.  The
conventions mirror the engine's storage model: every table and view carries
the InVerDa tuple identifier as an explicit leading column ``p``, and NULL
handling is always null-safe (``IS`` / ``IS NOT``) because SMO mappings
routinely traffic in NULL payloads (the paper's omega rows).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence

from repro.expr.ast import Expression
from repro.util.naming import quote_identifier

SEQUENCES_TABLE = "repro_sequences"
ROW_ID_SEQUENCE = "p"


def q(name: str) -> str:
    return quote_identifier(name)


def qcols(names: Iterable[str]) -> list[str]:
    return [quote_identifier(name) for name in names]


def sequences_ddl() -> str:
    return (
        f"CREATE TABLE IF NOT EXISTS {SEQUENCES_TABLE} "
        "(name TEXT PRIMARY KEY, value INTEGER NOT NULL)"
    )


def table_ddl(name: str, columns: Sequence[str]) -> str:
    """``CREATE TABLE`` with the leading ``p`` key plus payload columns.

    The table name is quoted like every column: generated physical names
    are sanitized identifiers today, but a reserved word or odd character
    slipping through must never produce broken DDL.
    """
    parts = ["p INTEGER PRIMARY KEY"] + [f"{q(c)}" for c in columns]
    return f"CREATE TABLE IF NOT EXISTS {q(name)} ({', '.join(parts)})"


def filled_table(name: str, columns: Sequence[str], select: str) -> list[str]:
    """``name`` created by a plain ``CREATE TABLE`` — which fails on a name
    already taken — and filled from ``select`` (``p``, then ``columns``)."""
    return [
        table_ddl(name, columns).replace(" IF NOT EXISTS", "", 1),
        f"INSERT INTO {q(name)} ({', '.join(['p', *qcols(columns)])}) {select}",
    ]


def empty_relation(columns: Sequence[str]) -> str:
    """A subquery usable as a table name for an aux role that is not stored
    under the current materialization (the engine reads it as empty)."""
    cols = ", ".join(f"NULL AS {q(c)}" for c in ("p", *columns))
    return f"(SELECT {cols} WHERE 0)"


def seq_next_statements(sequence: str, *, guard: str | None = None) -> list[str]:
    """Advance ``sequence`` by one; the new value is then readable via
    :func:`seq_value`.  With ``guard``, the bump only happens when the guard
    condition holds (used for conditional allocation inside triggers)."""
    where = f"name = '{sequence}'"
    if guard is not None:
        where += f" AND ({guard})"
    return [f"UPDATE {SEQUENCES_TABLE} SET value = value + 1 WHERE {where}"]


def seq_value(sequence: str) -> str:
    return f"(SELECT value FROM {SEQUENCES_TABLE} WHERE name = '{sequence}')"


def seq_draw(scratch: str, rank: str = "rnk") -> tuple[str, str]:
    """``(fresh, advance)`` for drawing identifiers by rank: ``fresh`` is
    the row-id sequence plus a row of ``scratch``'s ``rank`` (counted
    from 1); ``advance``, run after every statement reading ``fresh``,
    moves the sequence past each identifier so drawn."""
    return (
        f"{seq_value(ROW_ID_SEQUENCE)} + {rank}",
        f"UPDATE {SEQUENCES_TABLE} SET value = value + "
        f"COALESCE((SELECT MAX({rank}) FROM {scratch}), 0) "
        f"WHERE name = '{ROW_ID_SEQUENCE}'",
    )


def ident(a: str, b: str) -> str:
    """Null-safe equality."""
    return f"{a} IS {b}"


def all_null(expressions: Sequence[str]) -> str:
    """SQL for "every expression is NULL" (true for an empty sequence,
    matching :func:`repro.bidel.smo.base.is_all_null`)."""
    if not expressions:
        return "1"
    return "(" + " AND ".join(f"{e} IS NULL" for e in expressions) + ")"


def not_all_null(expressions: Sequence[str]) -> str:
    if not expressions:
        return "0"
    return "(" + " OR ".join(f"{e} IS NOT NULL" for e in expressions) + ")"


def rows_differ(left: Mapping[str, str], right: Mapping[str, str]) -> str:
    """Null-safe row inequality across the payload columns of ``left``
    (column -> SQL reference; ``right`` binds the same columns)."""
    if not left:
        return "0"
    return "(" + " OR ".join(f"{ref} IS NOT {right[c]}" for c, ref in left.items()) + ")"


def render_expression(expression: Expression, references: Mapping[str, str]) -> str:
    """Render a scalar expression with column names bound to SQL references
    (``NEW.col``, ``alias.col``, ...)."""
    return expression.rename(dict(references)).to_sql()


def new_refs(columns: Iterable[str], *, row: str = "NEW") -> dict[str, str]:
    return {c: f"{row}.{q(c)}" for c in columns}


# ---------------------------------------------------------------------------
# Row-level write statements
# ---------------------------------------------------------------------------


def upsert_row(
    target: str,
    columns: Sequence[str],
    key_sql: str,
    value_sqls: Sequence[str],
    *,
    guard: str | None = None,
    source: str | None = None,
    plain_table: bool = False,
) -> str:
    """Upsert one row (``key_sql`` -> values) into a view or table; with
    ``source``, the values read that ``FROM`` item and there is a row to
    upsert only where it has one.

    ``columns`` are every column of ``target`` after ``p``, in order — as
    every generated view, data, aux and staging table has them — so the
    statement names none.

    ``INSERT`` into a generated view *is* an upsert: its ``INSTEAD OF
    INSERT`` program bottoms out in ``INSERT OR REPLACE`` on stored tables.
    View targets take the plain verb because SQLite applies an outer
    statement's conflict clause to every statement of the triggers it
    fires, which would turn the key clashes the identifier-generating
    programs abort on into silent replaces.
    """
    assert len(value_sqls) == len(columns), (target, columns, value_sqls)
    verb = "INSERT OR REPLACE" if plain_table else "INSERT"
    values = ", ".join([key_sql, *value_sqls])
    if source is None and guard is None:
        # One row: SQLite codes a VALUES row without the SELECT machinery
        # (for a view target, without staging the row for its trigger).
        return f"{verb} INTO {target} VALUES ({values})"
    source_sql = f" FROM {source}" if source is not None else ""
    where = f" WHERE {guard}" if guard is not None else ""
    return f"{verb} INTO {target} SELECT {values}{source_sql}{where}"


def delete_row(target: str, key_sql: str, *, guard: str | None = None) -> str:
    guard_sql = f" AND ({guard})" if guard is not None else ""
    return f"DELETE FROM {target} WHERE p IS {key_sql}{guard_sql}"


def snapshot_exists(put: str) -> str:
    """Whether a write program's row snapshot ``put`` holds its row."""
    return f"EXISTS (SELECT 1 FROM {put})"


#: A name of a relation the delta code reads: every table and view this
#: package generates is ``<kind>__…`` (:func:`repro.util.naming.physical_name`).
_RELATION = re.compile(rf"\b\w+?__\w+|\b{SEQUENCES_TABLE}\b")


def reads_only_snapshots(*fragments: str | None) -> bool:
    """Do the SQL ``fragments`` name no relation but write programs' row
    snapshots (``put__*``)?  No row-local program writes one, so such a
    fragment reads the same before each statement of one."""
    return all(
        name.startswith("put__")
        for fragment in fragments
        if fragment
        for name in _RELATION.findall(fragment)
    )


def member_row(
    target: str, key_sql: str, present: bool | str, columns: Sequence[str] = (),
    value_sqls: Sequence[str] = (), *, source: str | None = None,
) -> list[str]:
    """Make ``key_sql`` a member of the stored table ``target`` exactly when
    ``present`` holds (a folded ``True`` / ``False`` or SQL text): delete
    it, then insert it under that guard, which is compiled once."""
    if present is False:
        return [delete_row(target, key_sql)]
    guard = None if present is True else present
    return [delete_row(target, key_sql), upsert_row(
        target, columns, key_sql, value_sqls, guard=guard, source=source, plain_table=True
    )]


def apply_extent(target: str, columns: Sequence[str], source: str) -> list[str]:
    """Make the generated view ``target``'s extent equal to ``source``'s (a
    staged table): delete missing rows, update changed rows, insert new
    rows — each firing the view's INSTEAD OF triggers row by row."""
    collist = ", ".join(["p", *qcols(columns)])
    statements = [
        f"DELETE FROM {target} WHERE p NOT IN (SELECT p FROM {source})"
    ]
    if columns:
        setlist = ", ".join(qcols(columns))
        changed = (
            f"SELECT s.p FROM {source} s JOIN {target} t ON t.p = s.p "
            f"WHERE {rows_differ(new_refs(columns, row='s'), new_refs(columns, row='t'))}"
        )
        statements.append(
            f"UPDATE {target} SET ({setlist}) = "
            f"(SELECT {setlist} FROM {source} s WHERE s.p = {target}.p) "
            f"WHERE p IN ({changed})"
        )
    statements.append(
        f"INSERT INTO {target} ({collist}) SELECT {collist} FROM {source} "
        f"WHERE p NOT IN (SELECT p FROM {target})"
    )
    return statements


def create_view(name: str, select_sql: str) -> str:
    return f"CREATE VIEW {q(name)} AS\n{select_sql}"


def create_trigger(
    name: str, operation: str, view_name: str, statements: Sequence[str]
) -> str:
    """An ``INSTEAD OF`` trigger with the given body statements."""
    body = ";\n  ".join(statements)
    return (
        f"CREATE TRIGGER {q(name)} INSTEAD OF {operation} ON {q(view_name)}\n"
        f"BEGIN\n  {body};\nEND"
    )
