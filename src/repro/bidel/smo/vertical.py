"""Key-preserving vertical SMOs (Appendix B.2 and B.5).

- ``DECOMPOSE TABLE R INTO S(A), T(B) ON PK`` splits columns; both target
  tables keep the source key. The inverse ``OUTER JOIN ... ON PK`` fills
  gaps with nulls (the paper's ``ω``).
- ``JOIN TABLE R, S INTO T ON PK`` is the inner variant: rows without a
  join partner are preserved in the target-side auxiliary tables ``Rplus``
  and ``Splus`` so nothing is lost when the SMO is materialized.
"""

from __future__ import annotations

from repro.bidel.ast import Decompose, Join
from repro.bidel.smo.base import (
    SmoSemantics,
    require,
)
from repro.datalog.ast import Atom, Rule, RuleSet, Var, wildcard
from repro.relational.schema import TableSchema


class _VerticalLens:
    """The lens between one wide table and two column-projections of it."""

    def __init__(self, wide_schema: TableSchema, first_columns, second_columns):
        self.wide_schema = wide_schema
        self.first_indices = [wide_schema.index_of(c) for c in first_columns]
        self.second_indices = [wide_schema.index_of(c) for c in second_columns]


class DecomposePkSemantics(SmoSemantics):
    """``DECOMPOSE TABLE R INTO S(A), T(B) ON PK``."""

    node: Decompose

    source_roles = ("R",)
    target_roles = ("S", "T")

    def __init__(self, node: Decompose, source_schemas):
        super().__init__(node, source_schemas)
        self._lens = _VerticalLens(source_schemas[0], node.first_columns, node.second_columns)

    def validate(self) -> None:
        source = self.source_schemas[0]
        listed = list(self.node.first_columns) + list(self.node.second_columns)
        require(
            len(set(listed)) == len(listed),
            "DECOMPOSE ON PK column lists must be disjoint",
        )
        for column in listed:
            require(
                source.has_column(column),
                f"table {self.node.table!r} has no column {column!r}",
            )
        require(
            set(listed) == set(source.column_names),
            "DECOMPOSE ON PK column lists must cover all columns",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        source = self.source_schemas[0]
        return (
            source.project(self.node.first_columns, table_name=self.node.first_table),
            source.project(self.node.second_columns, table_name=self.node.second_table),
        )

    def gamma_tgt_rules(self) -> RuleSet:
        return _decompose_rules(self._lens, wide="R", first="S", second="T", name="decompose_pk.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return _outer_join_rules(self._lens, wide="R", first="S", second="T", name="decompose_pk.gamma_src")


class OuterJoinPkSemantics(SmoSemantics):
    """``OUTER JOIN TABLE S, T INTO R ON PK`` — the inverse lens."""

    node: Join

    source_roles = ("S", "T")
    target_roles = ("R",)

    def __init__(self, node: Join, source_schemas):
        super().__init__(node, source_schemas)
        first, second = source_schemas
        wide = TableSchema(node.target, first.columns + second.columns)
        self._lens = _VerticalLens(wide, first.column_names, second.column_names)

    def validate(self) -> None:
        first, second = self.source_schemas
        overlap = set(first.column_names) & set(second.column_names)
        require(not overlap, f"OUTER JOIN ON PK requires disjoint columns (shared: {sorted(overlap)})")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        first, second = self.source_schemas
        return (TableSchema(self.node.target, first.columns + second.columns),)

    def gamma_tgt_rules(self) -> RuleSet:
        return _outer_join_rules(self._lens, wide="R", first="S", second="T", name="outer_join_pk.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return _decompose_rules(self._lens, wide="R", first="S", second="T", name="outer_join_pk.gamma_src")


class InnerJoinPkSemantics(SmoSemantics):
    """``JOIN TABLE R, S INTO T ON PK`` (Appendix B.5).

    Unmatched rows are preserved in target-side aux tables ``Rplus`` and
    ``Splus`` so that materializing the SMO loses nothing."""

    node: Join

    source_roles = ("R", "S")
    target_roles = ("T",)

    def __init__(self, node: Join, source_schemas):
        super().__init__(node, source_schemas)
        first, second = source_schemas
        wide = TableSchema(node.target, first.columns + second.columns)
        self._lens = _VerticalLens(wide, first.column_names, second.column_names)

    def validate(self) -> None:
        first, second = self.source_schemas
        overlap = set(first.column_names) & set(second.column_names)
        require(not overlap, f"JOIN ON PK requires disjoint columns (shared: {sorted(overlap)})")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        first, second = self.source_schemas
        return (TableSchema(self.node.target, first.columns + second.columns),)

    def aux_tgt(self) -> dict[str, TableSchema]:
        first, second = self.source_schemas
        return {
            "Rplus": first.with_name("Rplus"),
            "Splus": second.with_name("Splus"),
        }

    def gamma_tgt_rules(self) -> RuleSet:
        key = Var("p")
        left = tuple(Var(f"a{i}") for i in range(len(self._lens.first_indices)))
        right = tuple(Var(f"b{i}") for i in range(len(self._lens.second_indices)))
        return RuleSet(
            (
                Rule(Atom("T", (key, *left, *right)), (Atom("R", (key, *left)), Atom("S", (key, *right)))),
                Rule(
                    Atom("Rplus", (key, *left)),
                    (Atom("R", (key, *left)), Atom("S", (key, *(wildcard() for _ in right)), False)),
                ),
                Rule(
                    Atom("Splus", (key, *right)),
                    (Atom("R", (key, *(wildcard() for _ in left)), False), Atom("S", (key, *right))),
                ),
            ),
            name="inner_join_pk.gamma_tgt",
        )

    def gamma_src_rules(self) -> RuleSet:
        key = Var("p")
        left = tuple(Var(f"a{i}") for i in range(len(self._lens.first_indices)))
        right = tuple(Var(f"b{i}") for i in range(len(self._lens.second_indices)))
        return RuleSet(
            (
                Rule(Atom("R", (key, *left)), (Atom("T", (key, *left, *(wildcard() for _ in right))),)),
                Rule(Atom("R", (key, *left)), (Atom("Rplus", (key, *left)),)),
                Rule(Atom("S", (key, *right)), (Atom("T", (key, *(wildcard() for _ in left), *right)),)),
                Rule(Atom("S", (key, *right)), (Atom("Splus", (key, *right)),)),
            ),
            name="inner_join_pk.gamma_src",
        )


def _decompose_rules(lens: _VerticalLens, *, wide: str, first: str, second: str, name: str) -> RuleSet:
    key = Var("p")
    left = tuple(Var(f"a{i}") for i in range(len(lens.first_indices)))
    right = tuple(Var(f"b{i}") for i in range(len(lens.second_indices)))
    wide_terms: list = [None] * lens.wide_schema.arity
    for term, index in zip(left, lens.first_indices):
        wide_terms[index] = term
    for term, index in zip(right, lens.second_indices):
        wide_terms[index] = term
    # All-null (ω) parts are skipped; expressed via != comparisons against
    # the all-null tuple.
    from repro.datalog.ast import Compare, Const

    omega_left = tuple(Const(None) for _ in left)
    omega_right = tuple(Const(None) for _ in right)
    return RuleSet(
        (
            Rule(
                Atom(first, (key, *left)),
                (Atom(wide, (key, *wide_terms)), Compare("!=", left, omega_left)),
            ),
            Rule(
                Atom(second, (key, *right)),
                (Atom(wide, (key, *wide_terms)), Compare("!=", right, omega_right)),
            ),
        ),
        name=name,
    )


def _outer_join_rules(lens: _VerticalLens, *, wide: str, first: str, second: str, name: str) -> RuleSet:
    from repro.datalog.ast import Const

    key = Var("p")
    left = tuple(Var(f"a{i}") for i in range(len(lens.first_indices)))
    right = tuple(Var(f"b{i}") for i in range(len(lens.second_indices)))

    def wide_head(l_terms, r_terms):
        terms: list = [None] * lens.wide_schema.arity
        for term, index in zip(l_terms, lens.first_indices):
            terms[index] = term
        for term, index in zip(r_terms, lens.second_indices):
            terms[index] = term
        return Atom(wide, (key, *terms))

    omega_left = tuple(Const(None) for _ in left)
    omega_right = tuple(Const(None) for _ in right)
    return RuleSet(
        (
            Rule(wide_head(left, right), (Atom(first, (key, *left)), Atom(second, (key, *right)))),
            Rule(
                wide_head(left, omega_right),
                (Atom(first, (key, *left)), Atom(second, (key, *(wildcard() for _ in right)), False)),
            ),
            Rule(
                wide_head(omega_left, right),
                (Atom(first, (key, *(wildcard() for _ in left)), False), Atom(second, (key, *right))),
            ),
        ),
        name=name,
    )
