"""ADD COLUMN / DROP COLUMN semantics (Appendix B.1).

``ADD COLUMN b AS f(r1,...,rn) INTO R`` computes the new column via ``f``;
the auxiliary table ``B`` on the *source* side records values written
through the new version so they survive round trips (repeatable reads).
``DROP COLUMN b FROM R DEFAULT f(...)`` is the exact inverse: the aux
table ``B`` lives on the *target* side, storing the dropped values, and
``f`` fills the column for tuples inserted in the new version.
"""

from __future__ import annotations

from repro.bidel.ast import AddColumn, DropColumn
from repro.bidel.smo.base import (
    SmoSemantics,
    TableChange,
    require,
)
from repro.datalog.ast import Assign, Atom, Rule, RuleSet, Var, wildcard
from repro.expr.ast import Expression
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Row


def _compile_function(function: Expression, schema: TableSchema):
    names = schema.column_names

    def compute(row: Row):
        return function.evaluate(dict(zip(names, row)))

    return compute


def _column_rules(
    *,
    narrow_pred: str,
    wide_pred: str,
    narrow_arity: int,
    column_index: int,
    function: Expression,
    narrow_columns: tuple[str, ...],
    name_prefix: str,
) -> tuple[RuleSet, RuleSet]:
    """Rules mapping between R (narrow) + B (aux) and R' (wide).

    ``widening``: R'(p, A with b at column_index) ← R(p,A), B(p,b)
                  R'(p, ...) ← R(p,A), b = f(A), ¬B(p, _)
    ``narrowing``: R(p,A) ← R'(p, A minus b); B(p,b) ← R'(p, ..., b, ...)
    """
    key = Var("p")
    narrow_vars = tuple(Var(f"x{i}") for i in range(narrow_arity))
    b = Var("b")
    wide_terms = list(narrow_vars)
    wide_terms.insert(column_index, b)

    def fn(*args):
        return function.evaluate(dict(zip(narrow_columns, args)))

    widening = RuleSet(
        (
            Rule(
                Atom(wide_pred, (key, *wide_terms)),
                (Atom(narrow_pred, (key, *narrow_vars)), Atom("B", (key, b))),
            ),
            Rule(
                Atom(wide_pred, (key, *wide_terms)),
                (
                    Atom(narrow_pred, (key, *narrow_vars)),
                    Assign(b, fn, narrow_vars, label="f", expression=function),
                    Atom("B", (key, wildcard()), False),
                ),
            ),
        ),
        name=f"{name_prefix}.widening",
    )
    narrowing = RuleSet(
        (
            Rule(Atom(narrow_pred, (key, *narrow_vars)), (Atom(wide_pred, (key, *wide_terms)),)),
            Rule(Atom("B", (key, b)), (Atom(wide_pred, (key, *wide_terms)),)),
        ),
        name=f"{name_prefix}.narrowing",
    )
    return widening, narrowing


class AddColumnSemantics(SmoSemantics):
    source_roles = ("R",)
    target_roles = ("R2",)

    node: AddColumn

    def validate(self) -> None:
        unknown = self.node.function.columns() - set(self.source_schemas[0].column_names)
        require(not unknown, f"ADD COLUMN function references unknown columns: {sorted(unknown)}")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self.source_schemas[0].add_column(Column(self.node.column, self.node.dtype)),)

    @property
    def _column_index(self) -> int:
        return self.source_schemas[0].arity  # appended at the end

    def aux_src(self) -> dict[str, TableSchema]:
        return {"B": TableSchema("B", (Column(self.node.column, self.node.dtype),))}

    def propagate_forward(self, changes, ctx):
        change = changes.get("R")
        if change is None:
            return {}
        overrides = ctx.read("B")
        compute = _compile_function(self.node.function, self.source_schemas[0])
        out = TableChange(deletes=set(change.deletes))
        for key, row in change.upserts.items():
            override = overrides.get(key)
            value = override[0] if override is not None else compute(row)
            out.upserts[key] = row + (value,)
        return {"R2": out}

    def propagate_backward(self, changes, ctx):
        change = changes.get("R2")
        if change is None:
            return {}
        narrow = TableChange(deletes=set(change.deletes))
        aux = TableChange(deletes=set(change.deletes))
        for key, row in change.upserts.items():
            narrow.upserts[key] = row[:-1]
            aux.upserts[key] = (row[-1],)
        return {"R": narrow, "B": aux}

    def gamma_tgt_rules(self) -> RuleSet:
        widening, _ = self._rules()
        return widening

    def gamma_src_rules(self) -> RuleSet:
        _, narrowing = self._rules()
        return narrowing

    def _rules(self) -> tuple[RuleSet, RuleSet]:
        return _column_rules(
            narrow_pred="R",
            wide_pred="R2",
            narrow_arity=self.source_schemas[0].arity,
            column_index=self._column_index,
            function=self.node.function,
            narrow_columns=self.source_schemas[0].column_names,
            name_prefix="add_column",
        )


class DropColumnSemantics(SmoSemantics):
    source_roles = ("R",)
    target_roles = ("R2",)

    node: DropColumn

    def validate(self) -> None:
        require(
            self.source_schemas[0].has_column(self.node.column),
            f"table {self.node.table!r} has no column {self.node.column!r}",
        )
        remaining = set(self.source_schemas[0].column_names) - {self.node.column}
        unknown = self.node.default.columns() - remaining
        require(
            not unknown,
            f"DROP COLUMN default references unknown columns: {sorted(unknown)}",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self.source_schemas[0].drop_column(self.node.column),)

    @property
    def _column_index(self) -> int:
        return self.source_schemas[0].index_of(self.node.column)

    @property
    def _narrow_schema(self) -> TableSchema:
        return self.source_schemas[0].drop_column(self.node.column)

    def aux_tgt(self) -> dict[str, TableSchema]:
        dropped = self.source_schemas[0].column(self.node.column)
        return {"B": TableSchema("B", (dropped,))}

    def _split_row(self, row: Row) -> tuple[Row, Row]:
        index = self._column_index
        return row[:index] + row[index + 1 :], (row[index],)

    def _widen_row(self, row: Row, value) -> Row:
        index = self._column_index
        return row[:index] + (value,) + row[index:]

    def propagate_forward(self, changes, ctx):
        change = changes.get("R")
        if change is None:
            return {}
        narrow = TableChange(deletes=set(change.deletes))
        aux = TableChange(deletes=set(change.deletes))
        for key, row in change.upserts.items():
            narrow_row, dropped = self._split_row(row)
            narrow.upserts[key] = narrow_row
            aux.upserts[key] = dropped
        return {"R2": narrow, "B": aux}

    def propagate_backward(self, changes, ctx):
        change = changes.get("R2")
        if change is None:
            return {}
        overrides = ctx.read("B")
        compute = _compile_function(self.node.default, self._narrow_schema)
        out = TableChange(deletes=set(change.deletes))
        aux = TableChange()
        for key, row in change.upserts.items():
            override = overrides.get(key)
            value = override[0] if override is not None else compute(row)
            out.upserts[key] = self._widen_row(row, value)
            if override is None:
                # Record the filled-in value so future reads are repeatable
                # even if the default function is later considered changed.
                aux.upserts[key] = (value,)
        result = {"R": out}
        if not aux.empty:
            result["B"] = aux
        return result

    def gamma_tgt_rules(self) -> RuleSet:
        _, narrowing = self._rules()
        return RuleSet(narrowing.rules, name="drop_column.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        widening, _ = self._rules()
        return RuleSet(widening.rules, name="drop_column.gamma_src")

    def _rules(self) -> tuple[RuleSet, RuleSet]:
        return _column_rules(
            narrow_pred="R2",
            wide_pred="R",
            narrow_arity=self._narrow_schema.arity,
            column_index=self._column_index,
            function=self.node.default,
            narrow_columns=self._narrow_schema.column_names,
            name_prefix="drop_column",
        )
