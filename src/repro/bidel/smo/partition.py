"""SPLIT and MERGE: the horizontal partitioning SMOs (Section 4).

Both SMOs share one lens between a *unified* side (one table ``U``) and a
*partitioned* side (tables ``R`` and optionally ``S`` with conditions
``cR``/``cS``). For SPLIT the unified side is the source; for MERGE it is
the target — the rule sets are exactly mirrored, which is how the paper
argues MERGE's bidirectionality from SPLIT's (Appendix A, last paragraph).

Auxiliary tables (living on the unified side, Rules 21–25):

- ``Rminus``/``Sminus`` — keys of *lost twins* (deleted from one partition
  while the twin survives in the other);
- ``Splus`` — full rows of *separated twins* (same key, diverged payload;
  ``R`` is the primus inter pares and its row is the one stored in ``U``);
- ``Rstar``/``Sstar`` — keys of partition rows violating their partition's
  condition (inserted through the partitioned side);
- ``Uprime`` (the paper's ``T'``) on the partitioned side — rows of ``U``
  matching neither condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bidel.ast import Merge, Split
from repro.bidel.smo.base import (
    MapContext,
    SmoSemantics,
    TableChange,
    evaluate_condition,
    require,
)
from repro.datalog.ast import Atom, Compare, CondLit, Rule, RuleSet, Var, wildcard
from repro.expr.ast import Expression
from repro.relational.schema import TableSchema
from repro.relational.table import Row

EMPTY_SCHEMA_COLUMNS: tuple = ()


@dataclass(frozen=True)
class _Roles:
    """Role names of the partition lens as seen from one SMO."""

    unified: str
    first: str
    second: str | None
    uprime: str = "Uprime"
    rminus: str = "Rminus"
    rstar: str = "Rstar"
    splus: str = "Splus"
    sminus: str = "Sminus"
    sstar: str = "Sstar"


class _PartitionLens:
    """The unified↔partitioned lens: its rule sets and its key-local
    write propagation."""

    def __init__(
        self,
        roles: _Roles,
        schema: TableSchema,
        c_first: Expression,
        c_second: Expression | None,
    ):
        self.roles = roles
        self.schema = schema
        self.c_first = c_first
        self.c_second = c_second

    # -- condition helpers -------------------------------------------------

    def _cr(self, row: Row) -> bool:
        return evaluate_condition(self.c_first, self.schema, row)

    def _cs(self, row: Row) -> bool:
        return self.c_second is not None and evaluate_condition(
            self.c_second, self.schema, row
        )

    # -- key-local write propagation ----------------------------------------

    def propagate_to_partitions(
        self, change: TableChange, ctx: MapContext
    ) -> dict[str, TableChange]:
        """Writes on the unified side with the partitioned side stored.

        The stored partitioned side implies the unified-side aux tables are
        empty (they exist only when the unified side is materialized), so
        placement is the plain condition test — exactly the paper's derived
        update Rules 52–54.
        """
        roles = self.roles
        first = TableChange()
        second = TableChange()
        uprime = TableChange()
        for key in change.deletes:
            first.deletes.add(key)
            second.deletes.add(key)
            uprime.deletes.add(key)
        for key, row in change.upserts.items():
            if self._cr(row):
                first.upserts[key] = row
            else:
                first.deletes.add(key)
            if roles.second is not None:
                if self._cs(row):
                    second.upserts[key] = row
                else:
                    second.deletes.add(key)
            if not self._cr(row) and not self._cs(row):
                uprime.upserts[key] = row
            else:
                uprime.deletes.add(key)
        result = {roles.first: first, roles.uprime: uprime}
        if roles.second is not None:
            result[roles.second] = second
        return result

    def propagate_to_unified(
        self, changes: dict[str, TableChange], ctx: MapContext
    ) -> dict[str, TableChange]:
        """Writes on the partitioned side with the unified side stored.

        Per affected key, compute the post-write partition rows ``R'``/``S'``
        and re-derive the unified row plus all aux memberships (Rules 18–25
        restricted to that key)."""
        roles = self.roles
        first_change = changes.get(roles.first, TableChange())
        second_change = changes.get(roles.second, TableChange()) if roles.second else TableChange()
        keys = first_change.keys() | second_change.keys()
        if not keys:
            return {}

        current_first = ctx.read_keys(roles.first, keys)
        current_second = (
            ctx.read_keys(roles.second, keys) if roles.second is not None else {}
        )
        unified_stored = ctx.read_keys(roles.unified, keys)

        unified = TableChange()
        rminus = TableChange()
        rstar = TableChange()
        splus = TableChange()
        sminus = TableChange()
        sstar = TableChange()

        for key in keys:
            new_first = current_first.get(key)
            new_second = current_second.get(key)
            if key in first_change.deletes:
                new_first = None
            elif key in first_change.upserts:
                new_first = first_change.upserts[key]
            if key in second_change.deletes:
                new_second = None
            elif key in second_change.upserts:
                new_second = second_change.upserts[key]

            # Unified row: R wins, then S, then an invisible Uprime row
            # (a stored unified row matching neither condition stays put).
            if new_first is not None:
                unified.upserts[key] = new_first
            elif new_second is not None:
                unified.upserts[key] = new_second
            else:
                stored = unified_stored.get(key)
                if stored is not None and not self._cr(stored) and not self._cs(stored):
                    pass  # key only ever lived in Uprime; leave it alone
                else:
                    unified.deletes.add(key)

            # Aux memberships (Rules 21–25) for this key.
            def member(change: TableChange, present: bool, payload: Row | None = None) -> None:
                if present:
                    change.upserts[key] = payload if payload is not None else ()
                else:
                    change.deletes.add(key)

            member(rstar, new_first is not None and not self._cr(new_first))
            if roles.second is not None:
                member(
                    rminus,
                    new_second is not None and new_first is None and self._cr(new_second),
                )
                member(
                    splus,
                    new_first is not None
                    and new_second is not None
                    and new_first != new_second,
                    new_second,
                )
                member(
                    sminus,
                    new_first is not None and new_second is None and self._cs(new_first),
                )
                member(sstar, new_second is not None and not self._cs(new_second))

        result = {roles.unified: unified, roles.rstar: rstar}
        if roles.second is not None:
            result[roles.rminus] = rminus
            result[roles.splus] = splus
            result[roles.sminus] = sminus
            result[roles.sstar] = sstar
        return result

    # -- Datalog rules (Rules 12–25, instantiated) ---------------------------
    # The partitioned side from the unified one (Rules 12–17) and back
    # (Rules 18–25).

    def partition_rules(self, name: str) -> RuleSet:
        roles = self.roles
        key = Var("p")
        payload = tuple(Var(f"x{i}") for i in range(self.schema.arity))
        columns = self.schema.column_names

        def cond(expr: Expression, positive: bool) -> CondLit:
            return CondLit(
                "c", expr, tuple(zip(columns, payload)), positive
            )

        first_body: list = [Atom(roles.unified, (key, *payload)), cond(self.c_first, True)]
        if roles.second is not None:
            # Lost twins can only exist when there is a second partition.
            first_body.append(Atom(roles.rminus, (key,), False))
        rules = [
            Rule(Atom(roles.first, (key, *payload)), tuple(first_body)),
            Rule(
                Atom(roles.first, (key, *payload)),
                (Atom(roles.unified, (key, *payload)), Atom(roles.rstar, (key,))),
            ),
        ]
        if roles.second is not None and self.c_second is not None:
            rules.extend(
                [
                    Rule(
                        Atom(roles.second, (key, *payload)),
                        (
                            Atom(roles.unified, (key, *payload)),
                            cond(self.c_second, True),
                            Atom(roles.sminus, (key,), False),
                            Atom(roles.splus, (key, *(wildcard() for _ in payload)), False),
                        ),
                    ),
                    Rule(
                        Atom(roles.second, (key, *payload)),
                        (Atom(roles.splus, (key, *payload)),),
                    ),
                    Rule(
                        Atom(roles.second, (key, *payload)),
                        (
                            Atom(roles.unified, (key, *payload)),
                            Atom(roles.sstar, (key,)),
                            Atom(roles.splus, (key, *(wildcard() for _ in payload)), False),
                        ),
                    ),
                ]
            )
        uprime_body = [
            Atom(roles.unified, (key, *payload)),
            cond(self.c_first, False),
        ]
        if roles.second is not None and self.c_second is not None:
            uprime_body.append(cond(self.c_second, False))
        uprime_body.append(Atom(roles.rstar, (key,), False))
        if roles.second is not None:
            uprime_body.append(Atom(roles.sstar, (key,), False))
        rules.append(Rule(Atom(roles.uprime, (key, *payload)), tuple(uprime_body)))
        return RuleSet(tuple(rules), name=name)

    def unify_rules(self, name: str) -> RuleSet:
        roles = self.roles
        key = Var("p")
        payload = tuple(Var(f"x{i}") for i in range(self.schema.arity))
        payload2 = tuple(Var(f"y{i}") for i in range(self.schema.arity))
        columns = self.schema.column_names

        def cond(expr: Expression, positive: bool, terms) -> CondLit:
            return CondLit("c", expr, tuple(zip(columns, terms)), positive)

        rules = [
            Rule(Atom(roles.unified, (key, *payload)), (Atom(roles.first, (key, *payload)),)),
        ]
        if roles.second is not None and self.c_second is not None:
            rules.append(
                Rule(
                    Atom(roles.unified, (key, *payload)),
                    (
                        Atom(roles.second, (key, *payload)),
                        Atom(roles.first, (key, *(wildcard() for _ in payload)), False),
                    ),
                )
            )
        # An invisible unified row surfaces only when no partition holds the
        # key (R, then S, is the primus inter pares — matching unify()).
        uprime_body: list = [
            Atom(roles.uprime, (key, *payload)),
            Atom(roles.first, (key, *(wildcard() for _ in payload)), False),
        ]
        if roles.second is not None:
            uprime_body.append(
                Atom(roles.second, (key, *(wildcard() for _ in payload)), False)
            )
        rules.append(Rule(Atom(roles.unified, (key, *payload)), tuple(uprime_body)))
        rules.append(
            Rule(
                Atom(roles.rstar, (key,)),
                (Atom(roles.first, (key, *payload)), cond(self.c_first, False, payload)),
            )
        )
        if roles.second is not None and self.c_second is not None:
            rules.extend(
                [
                    Rule(
                        Atom(roles.rminus, (key,)),
                        (
                            Atom(roles.second, (key, *payload)),
                            Atom(roles.first, (key, *(wildcard() for _ in payload)), False),
                            cond(self.c_first, True, payload),
                        ),
                    ),
                    Rule(
                        Atom(roles.splus, (key, *payload)),
                        (
                            Atom(roles.second, (key, *payload)),
                            Atom(roles.first, (key, *payload2)),
                            Compare("!=", payload, payload2),
                        ),
                    ),
                    Rule(
                        Atom(roles.sminus, (key,)),
                        (
                            Atom(roles.first, (key, *payload)),
                            Atom(roles.second, (key, *(wildcard() for _ in payload)), False),
                            cond(self.c_second, True, payload),
                        ),
                    ),
                    Rule(
                        Atom(roles.sstar, (key,)),
                        (Atom(roles.second, (key, *payload)), cond(self.c_second, False, payload)),
                    ),
                ]
            )
        return RuleSet(tuple(rules), name=name)


def _aux_schemas(roles: _Roles, schema: TableSchema, *, unified_side: bool) -> dict[str, TableSchema]:
    """Aux tables for one side of the lens."""
    key_only = TableSchema("aux", EMPTY_SCHEMA_COLUMNS)
    if unified_side:
        aux = {roles.rstar: key_only.with_name(roles.rstar)}
        if roles.second is not None:
            aux[roles.rminus] = key_only.with_name(roles.rminus)
            aux[roles.splus] = schema.with_name(roles.splus)
            aux[roles.sminus] = key_only.with_name(roles.sminus)
            aux[roles.sstar] = key_only.with_name(roles.sstar)
        return aux
    return {roles.uprime: schema.with_name(roles.uprime)}


class SplitSemantics(SmoSemantics):
    """``SPLIT TABLE T INTO R WITH cR [, S WITH cS]``."""

    node: Split

    source_roles = ("U",)

    def __init__(self, node: Split, source_schemas):
        self.target_roles = ("R",) if node.second_table is None else ("R", "S")
        super().__init__(node, source_schemas)
        roles = _Roles(
            unified="U",
            first="R",
            second=None if node.second_table is None else "S",
        )
        self._lens = _PartitionLens(
            roles, source_schemas[0], node.first_condition, node.second_condition
        )

    def validate(self) -> None:
        for condition in (self.node.first_condition, self.node.second_condition):
            if condition is None:
                continue
            unknown = condition.columns() - set(self.source_schemas[0].column_names)
            require(not unknown, f"SPLIT condition references unknown columns: {sorted(unknown)}")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        base = self.source_schemas[0]
        schemas = [base.with_name(self.node.first_table)]
        if self.node.second_table is not None:
            schemas.append(base.with_name(self.node.second_table))
        return tuple(schemas)

    def aux_src(self) -> dict[str, TableSchema]:
        return _aux_schemas(self._lens.roles, self.source_schemas[0], unified_side=True)

    def aux_tgt(self) -> dict[str, TableSchema]:
        return _aux_schemas(self._lens.roles, self.source_schemas[0], unified_side=False)

    def propagate_forward(self, changes, ctx):
        change = changes.get("U")
        if change is None:
            return {}
        return self._lens.propagate_to_partitions(change, ctx)

    def propagate_backward(self, changes, ctx):
        return self._lens.propagate_to_unified(changes, ctx)

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.partition_rules("split.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.unify_rules("split.gamma_src")


class MergeSemantics(SmoSemantics):
    """``MERGE TABLE R (cR), S (cS) INTO T`` — the mirrored lens."""

    node: Merge

    source_roles = ("R", "S")
    target_roles = ("U",)

    def __init__(self, node: Merge, source_schemas):
        super().__init__(node, source_schemas)
        roles = _Roles(unified="U", first="R", second="S")
        self._lens = _PartitionLens(
            roles, source_schemas[0], node.first_condition, node.second_condition
        )

    def validate(self) -> None:
        first, second = self.source_schemas
        require(
            first.column_names == second.column_names,
            "MERGE requires union-compatible tables "
            f"({first.column_names} vs {second.column_names})",
        )
        for schema, condition in (
            (first, self.node.first_condition),
            (second, self.node.second_condition),
        ):
            unknown = condition.columns() - set(schema.column_names)
            require(not unknown, f"MERGE condition references unknown columns: {sorted(unknown)}")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self.source_schemas[0].with_name(self.node.target),)

    def aux_src(self) -> dict[str, TableSchema]:
        # For MERGE the partitioned side is the source.
        return _aux_schemas(self._lens.roles, self.source_schemas[0], unified_side=False)

    def aux_tgt(self) -> dict[str, TableSchema]:
        return _aux_schemas(self._lens.roles, self.source_schemas[0], unified_side=True)

    def propagate_forward(self, changes, ctx):
        return self._lens.propagate_to_unified(changes, ctx)

    def propagate_backward(self, changes, ctx):
        change = changes.get("U")
        if change is None:
            return {}
        return self._lens.propagate_to_partitions(change, ctx)

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.unify_rules("merge.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.partition_rules("merge.gamma_src")
