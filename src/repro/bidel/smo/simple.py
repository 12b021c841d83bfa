"""Semantics of the structurally trivial SMOs.

CREATE TABLE, DROP TABLE, RENAME TABLE, and RENAME COLUMN "exclusively
affect the schema version catalog" (Appendix B) — their data mappings are
identities (or empty). DROP TABLE nevertheless participates in the lens
framework: when materialized, the dropped table's rows move into a
target-side auxiliary table so that older versions can still read them.
"""

from __future__ import annotations

from repro.bidel.ast import CreateTable, DropTable, RenameColumn, RenameTable
from repro.bidel.smo.base import SmoSemantics, require
from repro.datalog.ast import Atom, Rule, RuleSet, Var
from repro.relational.schema import Column, TableSchema


def _identity_rules(src_pred: str, tgt_pred: str, arity: int, name: str) -> RuleSet:
    key = Var("p")
    payload = tuple(Var(f"x{i}") for i in range(arity))
    return RuleSet(
        (Rule(Atom(tgt_pred, (key, *payload)), (Atom(src_pred, (key, *payload)),)),),
        name=name,
    )


class CreateTableSemantics(SmoSemantics):
    """``CREATE TABLE R(c1, ..., cn)`` — no source side; always materialized."""

    source_roles = ()
    target_roles = ("R",)

    node: CreateTable

    def target_schemas(self) -> tuple[TableSchema, ...]:
        columns = tuple(Column(c.name, c.dtype) for c in self.node.columns)
        return (TableSchema(self.node.table, columns),)

    def gamma_tgt_rules(self) -> RuleSet:
        return RuleSet((), name="create_table.gamma_tgt")  # no source side

    def gamma_src_rules(self) -> RuleSet:
        return RuleSet((), name="create_table.gamma_src")


class DropTableSemantics(SmoSemantics):
    """``DROP TABLE R`` — the target side holds the retired rows in an
    auxiliary table so other versions keep seeing them after migration."""

    source_roles = ("R",)
    target_roles = ()

    node: DropTable

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return ()

    def aux_tgt(self) -> dict[str, TableSchema]:
        return {"R_retired": self.source_schemas[0].with_name("R_retired")}

    def propagate_forward(self, changes, ctx):
        change = changes.get("R")
        if change is None:
            return {}
        return {"R_retired": change}

    def propagate_backward(self, changes, ctx):
        change = changes.get("R_retired")
        if change is None:
            return {}
        return {"R": change}

    def gamma_tgt_rules(self) -> RuleSet:
        return _identity_rules("R", "R_retired", self.source_schemas[0].arity, "drop_table.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return _identity_rules("R_retired", "R", self.source_schemas[0].arity, "drop_table.gamma_src")


class _IdentitySemantics(SmoSemantics):
    """Shared behaviour of RENAME TABLE / RENAME COLUMN: pure identity on
    rows; only the catalog entry (table or column name) changes."""

    source_roles = ("R",)
    target_roles = ("R2",)

    def propagate_forward(self, changes, ctx):
        change = changes.get("R")
        return {} if change is None else {"R2": change}

    def propagate_backward(self, changes, ctx):
        change = changes.get("R2")
        return {} if change is None else {"R": change}

    def gamma_tgt_rules(self) -> RuleSet:
        return _identity_rules("R", "R2", self.source_schemas[0].arity, "rename.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return _identity_rules("R2", "R", self.source_schemas[0].arity, "rename.gamma_src")


class RenameTableSemantics(_IdentitySemantics):
    node: RenameTable

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self.source_schemas[0].with_name(self.node.new_name),)


class RenameColumnSemantics(_IdentitySemantics):
    node: RenameColumn

    def validate(self) -> None:
        require(
            self.source_schemas[0].has_column(self.node.column),
            f"table {self.node.table!r} has no column {self.node.column!r}",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self.source_schemas[0].rename_column(self.node.column, self.node.new_name),)
