"""DECOMPOSE / JOIN ON an arbitrary condition (Appendix B.4 and B.6).

Both variants generate fresh identifiers for the rows they create and track
them in an ``ID(r, s, t)`` auxiliary table that is stored under either
materialization ("for repeatable reads, the auxiliary table ID stores the
generated identifiers independently of the chosen materialization"). A
second auxiliary table (the paper's ``R⁻``) records join results that were
deleted through the joined side so they are not resurrected.

These SMOs are not on the hot benchmark paths (the Wikimedia history uses
FK decomposition; TasKy uses SPLIT/DROP COLUMN/FK decomposition), so they
have no incremental fast path: the memory engine runs a whole-state put
for every write across them, evaluating their rule sets, and the delta
code runs the same put, staged.  The rule sets read the identifiers ``ID``
records and generate none.  Before the memory engine evaluates them, the
:meth:`~repro.bidel.smo.base.SmoSemantics.identifiers` hook allocates the
ones ``ID`` lacks and re-keys the rows a put changes, as the delta code
does (:func:`_narrow_ids`; a matching narrow pair gets a fresh wide
identifier).
"""

from __future__ import annotations

from repro.bidel.ast import Decompose, Join
from repro.bidel.smo.base import (
    KeyedRows,
    MapContext,
    SmoSemantics,
    require,
)
from repro.datalog.ast import Atom, CondLit, Rule, RuleSet, Var, wildcard
from repro.expr.ast import Expression
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Key, Row
from repro.relational.types import DataType

ID_COLUMN = "id"
SEQ_R = "id_R"
SEQ_S = "id_S"
SEQ_T = "id_T"


class _CondJoinLens:
    """The lens between two narrow tables S(A), T(B) and the joined wide
    table R(A, B) under condition c(A, B), with generated identifiers on
    the wide side (inner join, B.6) or on the narrow side (decompose,
    B.4)."""

    def __init__(
        self,
        s_schema: TableSchema,
        t_schema: TableSchema,
        condition: Expression,
        parts: tuple[list[int], list[int]],
    ):
        self.s_schema = s_schema
        self.t_schema = t_schema
        self.condition = condition
        # The condition ranges over the payload columns; the leading ``id``
        # columns are engine-assigned and invisible to it.
        self.joint_columns = s_schema.column_names[1:] + t_schema.column_names[1:]
        self.parts = parts  # where S's payload and T's lie in the wide row

    def rule_terms(self) -> tuple:
        """``(a, b, R(r, …), c(a, b))`` of the rule sets: the payload
        variables, the wide atom (``a`` and ``b`` at :attr:`parts`) and the
        condition literal."""
        a = tuple(Var(f"a{i}") for i in range(self.s_schema.arity - 1))
        b = tuple(Var(f"b{i}") for i in range(self.t_schema.arity - 1))
        wide: list = [None] * (len(a) + len(b))
        for index, term in zip((*self.parts[0], *self.parts[1]), a + b):
            wide[index] = term
        condition = CondLit("c", self.condition, tuple(zip(self.joint_columns, a + b)))
        return a, b, Atom("R", (Var("r"), *wide)), condition

    def join_rules(self, name: str) -> RuleSet:
        """S, T → R, Splus, Tplus (B.6 γ_tgt): each recorded pair that
        matches and was not deleted through R, and the narrow rows
        without a condition partner (the helper ``Match``)."""
        a, b, wide, c = self.rule_terms()
        r, s, t, i = Var("r"), Var("s"), Var("t"), Var("i")
        s_row, t_row = Atom("S", (s, wildcard(), *a)), Atom("T", (t, wildcard(), *b))
        return RuleSet(
            (
                Rule(wide, (Atom("ID", (r, s, t)), s_row, t_row, c,
                            Atom("Rminus", (wildcard(), s, t), False))),
                Rule(Atom("Match", (s, t)), (s_row, t_row, c)),
                Rule(Atom("Splus", (s, i, *a)),
                     (Atom("S", (s, i, *a)), Atom("Match", (s, wildcard()), False))),
                Rule(Atom("Tplus", (t, i, *b)),
                     (Atom("T", (t, i, *b)), Atom("Match", (wildcard(), t), False))),
            ),
            name=name,
        )

    def unjoin_rules(self, name: str) -> RuleSet:
        """R → S, T, Rminus (B.6 γ_src): each wide row's recorded narrow
        rows, the stored unmatched rows no wide row derives (the helper
        ``Paired``), and matching pairs without a wide row (Rule 200),
        keyed by ``s``: the stored Rminus is keyed by a row number."""
        a, b, wide, c = self.rule_terms()
        r, s, t, i = Var("r"), Var("s"), Var("t"), Var("i")
        return RuleSet(
            (
                Rule(Atom("Paired", (s, t)), (wide, Atom("ID", (r, s, t)))),
                Rule(Atom("S", (s, s, *a)), (wide, Atom("ID", (r, s, wildcard())))),
                Rule(Atom("S", (s, i, *a)),
                     (Atom("Splus", (s, i, *a)), Atom("Paired", (s, wildcard()), False))),
                Rule(Atom("T", (t, t, *b)), (wide, Atom("ID", (r, wildcard(), t)))),
                Rule(Atom("T", (t, i, *b)),
                     (Atom("Tplus", (t, i, *b)), Atom("Paired", (wildcard(), t), False))),
                Rule(Atom("Rminus", (s, s, t)), (
                    Atom("S", (s, wildcard(), *a)), Atom("T", (t, wildcard(), *b)), c,
                    Atom("Paired", (s, t), False),
                )),
            ),
            name=name,
        )

    def matches(self, a_part: Row, b_part: Row) -> bool:
        row = dict(zip(self.joint_columns, a_part + b_part))
        from repro.expr.ast import is_true

        return is_true(self.condition.evaluate(row))

    def pair_ids(self, ctx: MapContext, inputs: dict[str, KeyedRows]) -> KeyedRows:
        """``ID`` completed for the narrow rows (B.6 γ_tgt, B.4 γ_src): a
        matching pair ID lacks and Rminus does not suppress takes a fresh
        wide identifier."""
        ids = dict(inputs["ID"])
        skip = set(ids.values()) | set(inputs["Rminus"].values())
        for s_key, s_row in inputs["S"].items():
            for t_key, t_row in inputs["T"].items():
                if (s_key, t_key) not in skip and self.matches(s_row[1:], t_row[1:]):
                    ids[ctx.allocate_id(SEQ_R)] = (s_key, t_key)
        return ids

    def narrow_ids(self, ctx: MapContext, inputs: dict[str, KeyedRows]) -> KeyedRows:
        """``ID`` of the wide rows (B.6 γ_src, B.4 γ_tgt): the narrow
        identifiers each takes on either side (:func:`_narrow_ids`)."""
        wide, recorded, written = inputs["R"], inputs["ID"], ctx.written("R")
        picked = []
        for side, (positions, sequence) in enumerate(zip(self.parts, (SEQ_S, SEQ_T))):
            def part(row: Row | None, positions=positions) -> Row | None:
                return None if row is None else tuple(row[i] for i in positions)

            rows = [
                (r_key, part(written.get(r_key, row)), part(row),
                 recorded[r_key][side] if r_key in recorded else None)
                for r_key, row in wide.items()
            ]
            picked.append(
                _narrow_ids(rows, lambda sequence=sequence: ctx.allocate_id(sequence))
            )
        return {r_key: (picked[0][r_key], picked[1][r_key]) for r_key in wide}


def _narrow_ids(rows, fresh) -> dict[Key, Key]:
    """The narrow identifier each wide row takes on one side, given its
    ``(r, payload before the put or None, payload, recorded identifier or
    None)``.

    The put changes its rows one at a time, as the delta code's triggers
    do; a row the put leaves with its payload keeps what ID records.  A
    changed row, or one ID lacks, takes the least identifier another row
    of its payload has, else the one recorded for it, else a fresh one.
    The other rows that have that identifier under another payload then
    take the least other one their payload has, else a fresh one per
    payload.  So an UPDATE of every row sharing an identifier keeps it,
    in any row order, and of some of them gives the others a new one."""
    payload_of: dict[Key, Row | None] = {}  # row -> its payload so far
    ids: dict[Key, Key] = {}
    members: dict[Key, set] = {}  # identifier -> rows having it
    named: dict = {}  # payload -> {identifier: how many rows have it}

    def place(r_key: Key, payload, key: Key) -> None:
        if r_key in ids:
            members[ids[r_key]].discard(r_key)
            counts = named[payload_of[r_key]]
            counts[ids[r_key]] -= 1
            if not counts[ids[r_key]]:
                del counts[ids[r_key]]
        payload_of[r_key], ids[r_key] = payload, key
        members.setdefault(key, set()).add(r_key)
        counts = named.setdefault(payload, {})
        counts[key] = counts.get(key, 0) + 1

    for r_key, before, _payload, key in rows:
        payload_of[r_key] = before
        if key is not None:
            place(r_key, before, key)
    for r_key, before, payload, key in rows:
        if key is not None and before == payload:
            continue
        known = named.get(payload)
        taken = min(known) if known else ids[r_key] if r_key in ids else fresh()
        place(r_key, payload, taken)
        moved: dict = {}
        for other in [o for o in members[taken] if payload_of[o] != payload]:
            theirs = payload_of[other]
            if theirs not in moved:
                left = [k for k in named[theirs] if k != taken]
                moved[theirs] = min(left) if left else fresh()
            place(other, theirs, moved[theirs])
    return ids


def _with_id_column(name: str, columns) -> TableSchema:
    return TableSchema(
        name, (Column(ID_COLUMN, DataType.INTEGER),) + tuple(columns)
    )


class DecomposeCondSemantics(SmoSemantics):
    """``DECOMPOSE TABLE R INTO S(A), T(B) ON c(A, B)``.

    The wide table is the source; both narrow target tables receive
    generated identifiers (exposed as a leading ``id`` column)."""

    node: Decompose

    source_roles = ("R",)
    target_roles = ("S", "T")
    numbered_roles = ("Rminus",)

    def __init__(self, node: Decompose, source_schemas):
        super().__init__(node, source_schemas)
        source = source_schemas[0]
        self._s_schema = _with_id_column(
            node.first_table, (source.column(c) for c in node.first_columns)
        )
        self._t_schema = _with_id_column(
            node.second_table or "T", (source.column(c) for c in node.second_columns)
        )
        assert node.kind.condition is not None
        parts = ([source.index_of(c) for c in node.first_columns],
                 [source.index_of(c) for c in node.second_columns])
        self._lens = _CondJoinLens(self._s_schema, self._t_schema, node.kind.condition, parts)

    def validate(self) -> None:
        source = self.source_schemas[0]
        listed = list(self.node.first_columns) + list(self.node.second_columns)
        for column in listed:
            require(source.has_column(column), f"unknown column {column!r}")
        require(
            set(listed) == set(source.column_names) and len(set(listed)) == len(listed),
            "DECOMPOSE ON condition requires a disjoint, covering column split",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self._s_schema, self._t_schema)

    def aux_shared(self) -> dict[str, TableSchema]:
        return {
            "ID": TableSchema(
                "ID",
                (Column("s", DataType.INTEGER), Column("t", DataType.INTEGER)),
            )
        }

    def aux_tgt(self) -> dict[str, TableSchema]:
        return {
            "Rminus": TableSchema(
                "Rminus", (Column("s", DataType.INTEGER), Column("t", DataType.INTEGER))
            )
        }

    def aux_src(self) -> dict[str, TableSchema]:
        return {
            "Splus": self._s_schema.with_name("Splus"),
            "Tplus": self._t_schema.with_name("Tplus"),
        }

    def sequences(self) -> tuple[str, ...]:
        return (SEQ_R, SEQ_S, SEQ_T)

    def identifiers(self, forward, inputs, ctx):
        if forward:
            return self._lens.narrow_ids(ctx, inputs)
        return self._lens.pair_ids(ctx, inputs)

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.unjoin_rules("decompose_cond.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.join_rules("decompose_cond.gamma_src")


class InnerJoinCondSemantics(SmoSemantics):
    """``JOIN TABLE S, T INTO R ON c(A, B)`` (Appendix B.6).

    The narrow tables are the sources; joined rows get generated
    identifiers. Unmatched rows live in the target-side aux tables
    ``Splus``/``Tplus`` (the paper's ``S⁺``/``T⁺``)."""

    node: Join

    source_roles = ("S", "T")
    target_roles = ("R",)
    numbered_roles = ("Rminus",)

    def __init__(self, node: Join, source_schemas):
        super().__init__(node, source_schemas)
        s_schema, t_schema = source_schemas
        require(
            s_schema.column_names and s_schema.column_names[0] == ID_COLUMN,
            f"JOIN ON condition expects {s_schema.name!r} to carry a leading "
            f"{ID_COLUMN!r} column",
        )
        require(
            t_schema.column_names and t_schema.column_names[0] == ID_COLUMN,
            f"JOIN ON condition expects {t_schema.name!r} to carry a leading "
            f"{ID_COLUMN!r} column",
        )
        assert node.kind.condition is not None
        s_arity = s_schema.arity - 1
        parts = (list(range(s_arity)), list(range(s_arity, s_arity + t_schema.arity - 1)))
        self._lens = _CondJoinLens(s_schema, t_schema, node.kind.condition, parts)

    def validate(self) -> None:
        s_schema, t_schema = self.source_schemas
        overlap = (set(s_schema.column_names) & set(t_schema.column_names)) - {ID_COLUMN}
        require(not overlap, f"JOIN ON condition requires disjoint payload columns: {sorted(overlap)}")

    def target_schemas(self) -> tuple[TableSchema, ...]:
        s_schema, t_schema = self.source_schemas
        return (
            TableSchema(
                self.node.target,
                tuple(s_schema.columns[1:]) + tuple(t_schema.columns[1:]),
            ),
        )

    def aux_shared(self) -> dict[str, TableSchema]:
        return {
            "ID": TableSchema(
                "ID", (Column("s", DataType.INTEGER), Column("t", DataType.INTEGER))
            )
        }

    def aux_tgt(self) -> dict[str, TableSchema]:
        s_schema, t_schema = self.source_schemas
        return {
            "Splus": s_schema.with_name("Splus"),
            "Tplus": t_schema.with_name("Tplus"),
        }

    def aux_src(self) -> dict[str, TableSchema]:
        return {
            "Rminus": TableSchema(
                "Rminus", (Column("s", DataType.INTEGER), Column("t", DataType.INTEGER))
            )
        }

    def sequences(self) -> tuple[str, ...]:
        return (SEQ_R, SEQ_S, SEQ_T)

    def identifiers(self, forward, inputs, ctx):
        if forward:
            return self._lens.pair_ids(ctx, inputs)
        return self._lens.narrow_ids(ctx, inputs)

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.join_rules("inner_join_cond.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.unjoin_rules("inner_join_cond.gamma_src")
