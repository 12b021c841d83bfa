"""Statement AST of the SQL-facing access layer.

Statements reuse :mod:`repro.expr` expression nodes for every scalar
position (projections, WHERE, SET values, VALUES tuples, ORDER BY keys,
LIMIT/OFFSET), extended with one extra node: :class:`Parameter`, a
``?`` placeholder bound at execution time (qmark paramstyle).

A parsed statement is immutable and reusable: executing it never mutates
the AST — parameter binding substitutes :class:`~repro.expr.ast.Literal`
nodes into a structural copy via :func:`bind_expression` (one use of
:func:`substitute_parameters`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ProgrammingError
from repro.expr.ast import (
    Binary,
    BoolOp,
    Column,
    Comparison,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Unary,
)


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder; ``index`` is its 0-based position in the
    statement's parameter list."""

    index: int

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        raise ProgrammingError(
            f"parameter {self.index + 1} was never bound; pass a parameter "
            "sequence to Cursor.execute()"
        )

    def to_sql(self) -> str:
        return "?"

    def columns(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> Expression:
        return self


def bind_expression(expression: Expression, params: Sequence[Any]) -> Expression:
    """A structural copy of ``expression`` with every :class:`Parameter`
    replaced by the corresponding ``Literal`` from ``params``."""
    return substitute_parameters(expression, lambda parameter: Literal(params[parameter.index]))


def substitute_parameters(
    expression: Expression, value: Callable[[Parameter], Expression]
) -> Expression:
    """A structural copy of ``expression`` with every :class:`Parameter`
    replaced by ``value(parameter)``."""
    if isinstance(expression, Parameter):
        return value(expression)
    if isinstance(expression, (Literal, Column)):
        return expression
    if isinstance(expression, Unary):
        return Unary(expression.op, substitute_parameters(expression.operand, value))
    if isinstance(expression, Binary):
        return Binary(
            expression.op,
            substitute_parameters(expression.left, value),
            substitute_parameters(expression.right, value),
        )
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            substitute_parameters(expression.left, value),
            substitute_parameters(expression.right, value),
        )
    if isinstance(expression, BoolOp):
        return BoolOp(
            expression.op, tuple(substitute_parameters(item, value) for item in expression.items)
        )
    if isinstance(expression, IsNull):
        return IsNull(substitute_parameters(expression.operand, value), expression.negated)
    if isinstance(expression, InList):
        return InList(
            substitute_parameters(expression.operand, value),
            tuple(substitute_parameters(item, value) for item in expression.items),
            expression.negated,
        )
    if isinstance(expression, Like):
        return Like(
            substitute_parameters(expression.operand, value),
            substitute_parameters(expression.pattern, value),
            expression.negated,
        )
    if isinstance(expression, FuncCall):
        return FuncCall(
            expression.name, tuple(substitute_parameters(arg, value) for arg in expression.args)
        )
    raise ProgrammingError(f"cannot bind parameters in {type(expression).__name__}")


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional ``AS`` alias."""

    expression: Expression
    alias: str | None = None

    @property
    def output_name(self) -> str:
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, Column):
            return self.expression.name
        return self.expression.to_sql()


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


class SqlStatement:
    """Marker base class for everything :func:`parse_statement` returns."""

    param_count: int = 0


@dataclass(frozen=True)
class Select(SqlStatement):
    table: str
    items: tuple[SelectItem, ...] | None  # None means SELECT *
    where: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Expression | None = None
    offset: Expression | None = None
    param_count: int = 0


@dataclass(frozen=True)
class Insert(SqlStatement):
    table: str
    columns: tuple[str, ...] | None  # None means schema column order
    rows: tuple[tuple[Expression, ...], ...] = ()
    param_count: int = 0


@dataclass(frozen=True)
class Update(SqlStatement):
    table: str
    assignments: tuple[tuple[str, Expression], ...] = ()
    where: Expression | None = None
    param_count: int = 0


@dataclass(frozen=True)
class Delete(SqlStatement):
    table: str
    where: Expression | None = None
    param_count: int = 0


@dataclass(frozen=True)
class BidelStatement(SqlStatement):
    """A BiDEL DDL script (CREATE/DROP SCHEMA VERSION, MATERIALIZE) passed
    through verbatim to the engine."""

    text: str = ""


@dataclass(frozen=True)
class Explain(SqlStatement):
    """``EXPLAIN <statement>`` — plan provenance introspection.

    Executing it never touches data: the result set is a two-column
    (property, value) table describing how the wrapped statement would
    run — plan class, backend SQL, flattened view text, cache status.
    Parameters inside the wrapped statement stay unbound (``EXPLAIN``
    itself takes none).
    """

    statement: SqlStatement = None  # type: ignore[assignment]
    param_count: int = 0


@dataclass(frozen=True)
class Check(SqlStatement):
    """``CHECK <bidel script>`` — static pre-flight analysis.

    The wrapped BiDEL script is analyzed against the current catalog
    without executing anything: the result set is one row per
    diagnostic (code, severity, object, message).  The catalog, the
    plan cache, and the workload data stay untouched.
    """

    script: str = ""
    param_count: int = 0
