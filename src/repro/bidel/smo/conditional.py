"""DECOMPOSE / JOIN ON an arbitrary condition (Appendix B.4 and B.6).

Both variants generate fresh identifiers for the rows they create and track
them in an ``ID(r, s, t)`` auxiliary table that is stored under either
materialization ("for repeatable reads, the auxiliary table ID stores the
generated identifiers independently of the chosen materialization"). A
second auxiliary table (the paper's ``R⁻``) records join results that were
deleted through the joined side so they are not resurrected.

These SMOs are not on the hot benchmark paths (the Wikimedia history uses
FK decomposition; TasKy uses SPLIT/DROP COLUMN/FK decomposition), so they
implement the full-state lens maps only: the engine runs a whole-state put
for every write across them, and the delta code runs the same put, staged,
with the stored side derived by the rule sets.  The rule sets read the
identifiers ``ID`` records and generate none; the maps allocate the ones
``ID`` lacks, and re-key the rows a put changes, as the delta code does
(:func:`_narrow_ids`; a matching narrow pair gets a fresh wide
identifier).
"""

from __future__ import annotations

from repro.bidel.ast import Decompose, Join
from repro.bidel.smo.base import (
    KeyedRows,
    MapContext,
    SideState,
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
    ):
        self.s_schema = s_schema
        self.t_schema = t_schema
        self.condition = condition
        # The condition ranges over the payload columns; the leading ``id``
        # columns are engine-assigned and invisible to it.
        self.joint_columns = s_schema.column_names[1:] + t_schema.column_names[1:]

    def rule_terms(self, to_wide) -> tuple:
        """``(a, b, R(r, …), c(a, b))`` of the rule sets: the payload
        variables, the wide atom (``to_wide`` places ``a + b`` in its
        column order) and the condition literal."""
        a = tuple(Var(f"a{i}") for i in range(self.s_schema.arity - 1))
        b = tuple(Var(f"b{i}") for i in range(self.t_schema.arity - 1))
        condition = CondLit("c", self.condition, tuple(zip(self.joint_columns, a + b)))
        return a, b, Atom("R", (Var("r"), *to_wide(a + b))), condition

    def join_rules(self, to_wide, name: str) -> RuleSet:
        """S, T → R, Splus, Tplus (B.6 γ_tgt): each recorded pair that
        matches and was not deleted through R, and the narrow rows
        without a condition partner (the helper ``Match``)."""
        a, b, wide, c = self.rule_terms(to_wide)
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

    def unjoin_rules(self, to_wide, name: str) -> RuleSet:
        """R → S, T, Rminus (B.6 γ_src): each wide row's recorded narrow
        rows, the stored unmatched rows no wide row derives (the helper
        ``Paired``), and matching pairs without a wide row (Rule 200),
        keyed by ``s``: the stored Rminus is keyed by a row number."""
        a, b, wide, c = self.rule_terms(to_wide)
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

    def join(self, ctx: MapContext) -> SideState:
        """Narrow → wide (B.6 γ_tgt; also B.4 γ_src modulo roles): a wide
        row per recorded pair that matches and Rminus does not suppress,
        and a fresh one per such pair ID lacks."""
        s_rows = ctx.read("S")
        t_rows = ctx.read("T")
        id_rows = ctx.read("ID")  # r -> (s, t)
        removed = set(ctx.read("Rminus").values())  # {(s, t)}
        pairs = {
            (s_key, t_key): a_part[1:] + b_part[1:]  # strip the visible ids
            for s_key, a_part in s_rows.items()
            for t_key, b_part in t_rows.items()
            if self.matches(a_part[1:], b_part[1:])
        }
        wide: KeyedRows = {}
        new_ids: KeyedRows = dict(id_rows)
        for r_key, pair in id_rows.items():
            if pair in pairs and pair not in removed:
                wide[r_key] = pairs[pair]
        recorded = set(id_rows.values())
        for pair, payload in pairs.items():
            if pair not in removed and pair not in recorded:
                r_key = ctx.allocate_id(SEQ_R)
                new_ids[r_key] = pair
                wide[r_key] = payload
        matched_s = {s_key for s_key, _t in pairs}
        matched_t = {t_key for _s, t_key in pairs}
        return {
            "R": wide,
            "ID": new_ids,
            "Splus": {k: v for k, v in s_rows.items() if k not in matched_s},
            "Tplus": {k: v for k, v in t_rows.items() if k not in matched_t},
        }

    def unjoin(self, ctx: MapContext) -> SideState:
        """Wide → narrow (B.6 γ_src; also B.4 γ_tgt modulo roles): each
        wide row's narrow identifiers (:func:`_narrow_ids`), its narrow
        rows, and the stored unmatched ones."""
        wide = ctx.read("R")
        id_rows = ctx.read("ID")
        written = ctx.written("R")
        s_arity = self.s_schema.arity - 1  # minus the visible id column
        picked = []
        for side, sequence in enumerate((SEQ_S, SEQ_T)):
            def part(row: Row | None) -> Row | None:
                if row is None:
                    return None
                return row[:s_arity] if side == 0 else row[s_arity:]

            rows = [
                (
                    r_key,
                    part(written.get(r_key, row)),
                    part(row),
                    id_rows[r_key][side] if r_key in id_rows else None,
                )
                for r_key, row in wide.items()
            ]
            picked.append(_narrow_ids(rows, lambda: ctx.allocate_id(sequence)))
        s_rows: KeyedRows = {}
        t_rows: KeyedRows = {}
        new_ids: KeyedRows = {}
        removed: KeyedRows = {}
        for r_key, row in wide.items():
            s_key, t_key = picked[0][r_key], picked[1][r_key]
            s_rows[s_key] = (s_key, *row[:s_arity])
            t_rows[t_key] = (t_key, *row[s_arity:])
            new_ids[r_key] = (s_key, t_key)
        for s_key, s_row in ctx.read("Splus").items():
            s_rows.setdefault(s_key, s_row)
        for t_key, t_row in ctx.read("Tplus").items():
            t_rows.setdefault(t_key, t_row)
        # Rule 200: surviving narrow rows whose combination satisfies the
        # condition but is absent from the wide side were deleted there.
        paired = set(new_ids.values())
        for s_key, s_row in s_rows.items():
            for t_key, t_row in t_rows.items():
                if (s_key, t_key) not in paired and self.matches(s_row[1:], t_row[1:]):
                    removed[len(removed) + 1] = (s_key, t_key)
        return {
            "S": s_rows,
            "T": t_rows,
            "ID": new_ids,
            "Rminus": removed,
        }


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
        self._lens = _CondJoinLens(self._s_schema, self._t_schema, node.kind.condition)
        self._s_indices = [source.index_of(c) for c in node.first_columns]
        self._t_indices = [source.index_of(c) for c in node.second_columns]

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

    def _wide_as_lens(self, row: Row) -> Row:
        """Reorder the source's columns into (A..., B...) lens order."""
        return tuple(row[i] for i in self._s_indices) + tuple(
            row[i] for i in self._t_indices
        )

    def _lens_to_wide(self, row: Row) -> Row:
        values: list = [None] * self.source_schemas[0].arity
        s_arity = len(self._s_indices)
        for value, index in zip(row[:s_arity], self._s_indices):
            values[index] = value
        for value, index in zip(row[s_arity:], self._t_indices):
            values[index] = value
        return tuple(values)

    def map_forward(self, ctx: MapContext) -> SideState:
        adapter = _RoleAdapter(
            ctx,
            {"R": {k: self._wide_as_lens(v) for k, v in ctx.read("R").items()}},
            {
                k: v if v is None else self._wide_as_lens(v)
                for k, v in ctx.written("R").items()
            },
        )
        state = self._lens.unjoin(adapter)
        return {
            "S": state["S"],
            "T": state["T"],
            "ID": state["ID"],
            "Rminus": state["Rminus"],
        }

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.unjoin_rules(self._lens_to_wide, "decompose_cond.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.join_rules(self._lens_to_wide, "decompose_cond.gamma_src")

    def map_backward(self, ctx: MapContext) -> SideState:
        state = self._lens.join(ctx)
        return {
            "R": {k: self._lens_to_wide(v) for k, v in state["R"].items()},
            "ID": state["ID"],
            "Splus": state["Splus"],
            "Tplus": state["Tplus"],
        }


class InnerJoinCondSemantics(SmoSemantics):
    """``JOIN TABLE S, T INTO R ON c(A, B)`` (Appendix B.6).

    The narrow tables are the sources; joined rows get generated
    identifiers. Unmatched rows live in the target-side aux tables
    ``Splus``/``Tplus`` (the paper's ``S⁺``/``T⁺``)."""

    node: Join

    source_roles = ("S", "T")
    target_roles = ("R",)

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
        self._lens = _CondJoinLens(s_schema, t_schema, node.kind.condition)

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

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.join_rules(tuple, "inner_join_cond.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.unjoin_rules(tuple, "inner_join_cond.gamma_src")

    def map_forward(self, ctx: MapContext) -> SideState:
        state = self._lens.join(ctx)
        return {
            "R": state["R"],
            "ID": state["ID"],
            "Splus": state["Splus"],
            "Tplus": state["Tplus"],
        }

    def map_backward(self, ctx: MapContext) -> SideState:
        state = self._lens.unjoin(ctx)
        return {
            "S": state["S"],
            "T": state["T"],
            "ID": state["ID"],
            "Rminus": state["Rminus"],
        }


class _RoleAdapter(MapContext):
    """Overlay specific role extents, and the rows R's put writes, on top
    of another context."""

    def __init__(
        self, inner: MapContext, overrides: dict[str, KeyedRows], written: dict
    ):
        self._inner = inner
        self._overrides = overrides
        self._written = written

    def read(self, role: str) -> KeyedRows:
        if role in self._overrides:
            return self._overrides[role]
        return self._inner.read(role)

    def written(self, role: str) -> dict[Key, Row | None]:
        return self._written if role == "R" else self._inner.written(role)

    def allocate_id(self, sequence_role: str) -> Key:
        return self._inner.allocate_id(sequence_role)
