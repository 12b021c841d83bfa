"""DECOMPOSE / OUTER JOIN ON FOREIGN KEY (Appendix B.3).

``DECOMPOSE TABLE R INTO S(A), T(B) ON FK fk`` eliminates duplicates of the
``B`` part into a new table ``T`` with generated identifiers and adds a
foreign-key column ``fk`` to ``S``. The identity-generating function
``id_T(B)`` is a sequence; the auxiliary table ``ID_R`` (key of ``R`` →
generated identifier) guarantees that the same identifier is reused for the
same data across reads (repeatable reads).

Design note: the paper stores ``ID_R`` on the source side only; we keep
it maintained under both materializations — the same choice the paper
itself makes for the condition variants ("the auxiliary table ID stores
the generated identifiers independently of the chosen materialization",
B.4) — because it makes identifier stability independent of read order.
The rule sets therefore read the identifiers ``ID`` records and generate
none: allocating them is the job of the write programs, and of
:meth:`_FkLens.split_ids`, which completes ``ID`` before the memory engine
evaluates the split.

Conventions: the target table ``T`` exposes its generated identifier as a
visible first column named ``id`` (Figure 1 shows these identifiers as
data); its row key equals that identifier.
"""

from __future__ import annotations

from repro.bidel.ast import Decompose, Join
from repro.bidel.smo.base import (
    KeyedRows,
    MapContext,
    SmoSemantics,
    TableChange,
    is_all_null,
    require,
)
from repro.datalog.ast import Assign, Atom, Compare, Const, Rule, RuleSet, Var, wildcard
from repro.expr.ast import Literal
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Key, Row
from repro.relational.types import DataType

ID_COLUMN = "id"
SEQUENCE_ROLE = "id_T"
OMEGA = Const(None)


class _FkLens:
    """Shared machinery for the FK decompose lens and its inverse: the rule
    sets, and the ``ID`` each direction reads."""

    def __init__(
        self,
        wide_schema: TableSchema,
        s_columns: tuple[str, ...],
        t_columns: tuple[str, ...],
        fk_column: str,
        fk_index: int,
    ):
        self.wide_schema = wide_schema
        self.s_indices = [wide_schema.index_of(c) for c in s_columns]
        self.t_indices = [wide_schema.index_of(c) for c in t_columns]
        self.fk_column = fk_column
        self.fk_index = fk_index  # of the fk column among S's columns
        self.s_columns = s_columns
        self.t_columns = t_columns

    def split_row(self, row: Row) -> tuple[Row, Row]:
        return (
            tuple(row[i] for i in self.s_indices),
            tuple(row[i] for i in self.t_indices),
        )

    def combine(self, a_part: Row | None, b_part: Row | None) -> Row:
        values: list = [None] * self.wide_schema.arity
        if a_part is not None:
            for value, index in zip(a_part, self.s_indices):
                values[index] = value
        if b_part is not None:
            for value, index in zip(b_part, self.t_indices):
                values[index] = value
        return tuple(values)

    # -- rule sets, over the identifiers ID records -------------------------

    def _rule_terms(self) -> tuple:
        a = tuple(Var(f"a{i}") for i in range(len(self.s_indices)))
        return a, tuple(Var(f"b{i}") for i in range(len(self.t_indices))), Var("p"), Var("fk")

    def s_row(self, a_part: tuple, fk) -> tuple:
        """S's row (or terms): the A part with the fk column in place."""
        return (*a_part[: self.fk_index], fk, *a_part[self.fk_index :])

    def split_rules(self, name: str) -> RuleSet:
        """R → S, T (Rules 141–146): S is R's A part with its identifier,
        T each identified non-ω B part."""
        a, b, p, fk = self._rule_terms()
        body = (Atom("R", (p, *self.combine(a, b))), Atom("ID", (p, fk)))
        t_body = (*body, Compare("!=", (fk,), (OMEGA,)), Compare("!=", b, (OMEGA,) * len(b)))
        return RuleSet(
            (
                Rule(Atom("S", (p, *self.s_row(a, fk))), body),
                Rule(Atom("T", (fk, fk, *b)), t_body),
            ),
            name=name,
        )

    def join_rules(self, name: str) -> RuleSet:
        """S, T → R (Rules 147–152): each S row with the B part its fk
        references, else ω (one rule pair, so one probe of T), and each T
        row no S row references, keyed by its identifier."""
        a, b, p, fk = self._rule_terms()
        s_row, wide = Atom("S", (p, *self.s_row(a, fk))), Atom("R", (p, *self.combine(a, b)))
        t = Var("t")
        omega = tuple(Assign(v, lambda: None, (), label="ω", expression=Literal(None)) for v in b)

        def anything(count: int) -> tuple:
            return tuple(wildcard() for _ in range(count))

        return RuleSet(
            (
                Rule(wide, (s_row, Atom("T", (fk, wildcard(), *b)))),
                Rule(wide, (s_row, *omega, Atom("T", (fk, *anything(len(b) + 1)), False))),
                Rule(Atom("R", (t, *self.combine((OMEGA,) * len(a), b))), (
                    Atom("T", (t, wildcard(), *b)),
                    Atom("S", (wildcard(), *self.s_row(anything(len(a)), t)), False),
                    Atom("S", (t, *anything(len(a) + 1)), False),
                )),
            ),
            name=name,
        )

    # -- identifiers the rules read (the hook of SmoSemantics) ---------------

    def split_ids(self, ctx: MapContext, inputs: dict[str, KeyedRows]) -> KeyedRows:
        """``ID`` completed for R's rows (Rules 142/146): a recorded
        identifier stays; a row ID lacks takes the identifier of its B part
        — in T as stored, else of a row before it — else a fresh one, and
        none for an ω B part."""
        ids = dict(inputs["ID"])
        payload_to_id: dict[Row, Key] = {}
        for t_key, t_row in ctx.read("T").items():
            payload_to_id.setdefault(t_row[1:], t_key)  # strip the id column
        pending: list[tuple[Key, Row]] = []
        for key, row in inputs["R"].items():
            b_part = self.split_row(row)[1]
            if key not in ids:
                pending.append((key, b_part))
            elif ids[key][0] is not None and not is_all_null(b_part):
                payload_to_id.setdefault(b_part, ids[key][0])
        for key, b_part in pending:
            fk = None
            if not is_all_null(b_part):
                fk = payload_to_id.get(b_part)
                if fk is None:
                    fk = payload_to_id[b_part] = ctx.allocate_id(SEQUENCE_ROLE)
            ids[key] = (fk,)
        return ids

    def join_ids(self, s_rows: KeyedRows, t_rows: KeyedRows) -> KeyedRows:
        """``ID`` of the wide rows S and T derive (Rules 147–152): an S
        row's foreign key when T has it, else none; an unreferenced T row's
        own identifier."""
        ids: KeyedRows = {}
        for key, s_row in s_rows.items():
            fk = s_row[self.fk_index]
            ids[key] = (fk if fk is not None and fk in t_rows else None,)
        referenced = {entry[0] for entry in ids.values()}
        for t_key in t_rows:
            if t_key not in referenced:
                ids.setdefault(t_key, (t_key,))
        return ids


class _FkCache:
    """Bidirectional payload↔identifier index for one FK decomposition.

    Mirrors the content of the target table ``T``; kept incrementally by
    the write paths so single-row writes stay key-local instead of
    re-deriving whole extents."""

    def __init__(self) -> None:
        self.by_payload: dict[Row, Key] = {}
        self.by_fk: dict[Key, Row] = {}

    def put(self, fk: Key, payload: Row) -> None:
        old = self.by_fk.get(fk)
        if old is not None and self.by_payload.get(old) == fk:
            del self.by_payload[old]
        self.by_fk[fk] = payload
        self.by_payload.setdefault(payload, fk)

    def drop(self, fk: Key) -> None:
        payload = self.by_fk.pop(fk, None)
        if payload is not None and self.by_payload.get(payload) == fk:
            del self.by_payload[payload]


class DecomposeFkSemantics(SmoSemantics):
    """``DECOMPOSE TABLE R INTO S(A), T(B) ON FK fk``."""

    node: Decompose

    source_roles = ("R",)
    target_roles = ("S", "T")

    def __init__(self, node: Decompose, source_schemas):
        super().__init__(node, source_schemas)
        self._lens = _FkLens(
            source_schemas[0],
            node.first_columns,
            node.second_columns,
            node.kind.fk_column or "fk",
            len(node.first_columns),
        )
        self._cache: _FkCache | None = None

    def invalidate_caches(self) -> None:
        self._cache = None

    def _ensure_cache(self, ctx: MapContext) -> _FkCache:
        if self._cache is not None:
            return self._cache
        cache = _FkCache()
        stored_t = ctx.read("T")
        if stored_t:
            for fk, t_row in stored_t.items():
                cache.put(fk, t_row[1:])
        else:
            id_rows = ctx.read("ID")
            for r_key, wide_row in ctx.read("R").items():
                entry = id_rows.get(r_key)
                fk = entry[0] if entry else None
                if fk is None:
                    continue
                _, b_part = self._lens.split_row(wide_row)
                cache.put(fk, b_part)
        self._cache = cache
        return cache

    def validate(self) -> None:
        source = self.source_schemas[0]
        listed = list(self.node.first_columns) + list(self.node.second_columns)
        for column in listed:
            require(
                source.has_column(column),
                f"table {self.node.table!r} has no column {column!r}",
            )
        require(
            set(listed) == set(source.column_names) and len(set(listed)) == len(listed),
            "DECOMPOSE ON FK column lists must partition the source columns",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        source = self.source_schemas[0]
        fk_name = self.node.kind.fk_column or "fk"
        s_schema = TableSchema(
            self.node.first_table,
            tuple(source.column(c) for c in self.node.first_columns)
            + (Column(fk_name, DataType.INTEGER),),
        )
        t_schema = TableSchema(
            self.node.second_table or "T",
            (Column(ID_COLUMN, DataType.INTEGER),)
            + tuple(source.column(c) for c in self.node.second_columns),
        )
        return (s_schema, t_schema)

    def aux_shared(self) -> dict[str, TableSchema]:
        return {"ID": TableSchema("ID", (Column("fk", DataType.INTEGER),))}

    def sequences(self) -> tuple[str, ...]:
        return (SEQUENCE_ROLE,)

    def identifiers(self, forward, inputs, ctx):
        if forward:
            return self._lens.split_ids(ctx, inputs)
        return self._lens.join_ids(inputs["S"], inputs["T"])

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.split_rules("decompose_fk.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.join_rules("decompose_fk.gamma_src")

    def propagate_forward(self, changes, ctx):
        change = changes.get("R")
        if change is None or change.empty:
            return {}
        cache = self._ensure_cache(ctx)
        s_out = TableChange()
        t_out = TableChange()
        id_out = TableChange()
        keys = change.keys()
        id_rows = ctx.read_keys("ID", keys)
        # References contributed by this batch's surviving rows.
        batch_refs: set[Key] = set()
        for key, row in change.upserts.items():
            _, b_part = self._lens.split_row(row)
            entry = id_rows.get(key)
            fk = entry[0] if entry else None
            if fk is not None and cache.by_fk.get(fk) == b_part:
                batch_refs.add(fk)
        for key in change.deletes:
            s_out.deletes.add(key)
            id_out.deletes.add(key)
            # T rows are deleted only when no other S row references them —
            # "other" meaning rows outside this batch plus the batch's own
            # surviving upserts.
            entry = id_rows.get(key)
            fk = entry[0] if entry else None
            if (
                fk is not None
                and fk not in batch_refs
                and not self._fk_still_referenced(fk, ctx, exclude=keys)
            ):
                t_out.deletes.add(fk)
                cache.drop(fk)
        for key, row in change.upserts.items():
            a_part, b_part = self._lens.split_row(row)
            entry = id_rows.get(key)
            fk = entry[0] if entry else None
            if is_all_null(b_part):
                fk = None
            elif fk is None or cache.by_fk.get(fk) != b_part:
                existing = cache.by_payload.get(b_part)
                if existing is not None:
                    fk = existing
                else:
                    fk = ctx.allocate_id(SEQUENCE_ROLE)
                    cache.put(fk, b_part)
            s_out.upserts[key] = (*a_part, fk)
            id_out.upserts[key] = (fk,)
            if fk is not None:
                t_out.upserts[fk] = (fk, *b_part)
        return {"S": s_out, "T": t_out, "ID": id_out}

    def _fk_still_referenced(self, fk: Key, ctx: MapContext, exclude: set[Key]) -> bool:
        # The stored ID table maps every source row to its target id, so a
        # scan of ID (narrow, always stored) suffices instead of reading S.
        for r_key, entry in ctx.read("ID").items():
            if r_key in exclude:
                continue
            if entry and entry[0] == fk:
                return True
        return False

    def propagate_backward(self, changes, ctx):
        s_change = changes.get("S", TableChange())
        t_change = changes.get("T", TableChange())
        if s_change.empty and t_change.empty:
            return {}
        wide_out = TableChange()
        id_out = TableChange()
        affected_fks = set(t_change.keys())
        cache = self._ensure_cache(ctx)

        # S-side changes: re-derive the wide row for each changed S key.
        # The payload cache answers fk → payload without reading T.
        t_lookup_keys = {
            row[-1] for row in s_change.upserts.values() if row[-1] is not None
        } | affected_fks
        t_current: dict[Key, Row] = {}
        missing: set[Key] = set()
        for fk in t_lookup_keys:
            payload = cache.by_fk.get(fk)
            if payload is not None:
                t_current[fk] = (fk, *payload)
            else:
                missing.add(fk)
        if missing:
            t_current.update(ctx.read_keys("T", missing))
        for key, row in t_change.upserts.items():
            t_current[key] = row
            cache.put(key, row[1:])
        for key in t_change.deletes:
            t_current.pop(key, None)
            cache.drop(key)

        for key in s_change.deletes:
            wide_out.deletes.add(key)
            id_out.deletes.add(key)
        for key, s_row in s_change.upserts.items():
            a_part, fk = s_row[:-1], s_row[-1]
            t_row = t_current.get(fk) if fk is not None else None
            if t_row is not None:
                wide_out.upserts[key] = self._lens.combine(a_part, t_row[1:])
                id_out.upserts[key] = (fk,)
            else:
                wide_out.upserts[key] = self._lens.combine(a_part, None)
                id_out.upserts[key] = (None,)

        # T-side changes: every S row referencing a changed T row needs its
        # wide row refreshed; unreferenced T rows surface keyed by their id.
        if affected_fks:
            s_extent = ctx.read("S")
            referencing: dict[Key, list[tuple[Key, Row]]] = {}
            for s_key, s_row in s_extent.items():
                fk = s_row[-1]
                if fk in affected_fks:
                    referencing.setdefault(fk, []).append((s_key, s_row))
            for fk in t_change.deletes:
                wide_out.deletes.add(fk)  # was possibly surfaced as unreferenced
                for s_key, s_row in referencing.get(fk, []):
                    if s_key in s_change.deletes:
                        continue
                    wide_out.upserts[s_key] = self._lens.combine(s_row[:-1], None)
                    id_out.upserts[s_key] = (None,)
            for fk, t_row in t_change.upserts.items():
                refs = [
                    (s_key, s_row)
                    for s_key, s_row in referencing.get(fk, [])
                    if s_key not in s_change.deletes and s_key not in s_change.upserts
                ]
                for s_key, s_row in refs:
                    wide_out.upserts[s_key] = self._lens.combine(s_row[:-1], t_row[1:])
                    id_out.upserts[s_key] = (fk,)
                if not refs and not any(
                    row[-1] == fk for row in s_change.upserts.values()
                ):
                    wide_out.upserts[fk] = self._lens.combine(None, t_row[1:])
                    id_out.upserts[fk] = (fk,)
        return {"R": wide_out, "ID": id_out}


class OuterJoinFkSemantics(SmoSemantics):
    """``OUTER JOIN TABLE S, T INTO R ON FK fk`` — the inverse of B.3.

    Sources: ``S`` (with the fk column, which disappears) and ``T`` (whose
    leading ``id`` column disappears); the target is the re-combined wide
    table."""

    node: Join

    source_roles = ("S", "T")
    target_roles = ("R",)

    def __init__(self, node: Join, source_schemas):
        super().__init__(node, source_schemas)
        s_schema, t_schema = source_schemas
        fk = node.kind.fk_column or "fk"
        a_columns = tuple(c for c in s_schema.column_names if c != fk)
        b_columns = tuple(t_schema.column_names[1:])
        wide = TableSchema(
            node.target,
            tuple(s_schema.column(c) for c in a_columns)
            + tuple(t_schema.column(c) for c in b_columns),
        )
        self._lens = _FkLens(wide, a_columns, b_columns, fk, s_schema.index_of(fk))

    def validate(self) -> None:
        s_schema, t_schema = self.source_schemas
        fk = self.node.kind.fk_column or "fk"
        require(s_schema.has_column(fk), f"table {s_schema.name!r} has no column {fk!r}")
        require(
            t_schema.column_names and t_schema.column_names[0] == ID_COLUMN,
            f"OUTER JOIN ON FK expects {t_schema.name!r} to expose its identifier "
            f"as a leading {ID_COLUMN!r} column",
        )

    def target_schemas(self) -> tuple[TableSchema, ...]:
        return (self._lens.wide_schema,)

    def aux_shared(self) -> dict[str, TableSchema]:
        return {"ID": TableSchema("ID", (Column("fk", DataType.INTEGER),))}

    def sequences(self) -> tuple[str, ...]:
        return (SEQUENCE_ROLE,)

    def identifiers(self, forward, inputs, ctx):
        if forward:
            return self._lens.join_ids(inputs["S"], inputs["T"])
        return self._lens.split_ids(ctx, inputs)

    def gamma_tgt_rules(self) -> RuleSet:
        return self._lens.join_rules("outer_join_fk.gamma_tgt")

    def gamma_src_rules(self) -> RuleSet:
        return self._lens.split_rules("outer_join_fk.gamma_src")
