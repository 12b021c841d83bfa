"""Per-SMO compilation of bidirectional mappings into SQLite delta code.

Each handler knows how to render, for one SMO instance under the current
materialization,

- the ``SELECT`` body of a derived table version's view (reads), and
- the statement list of its ``INSTEAD OF`` trigger programs (writes),

mirroring the engine's native semantics: the rule-backed SMOs follow their
``propagate_forward``/``propagate_backward`` fast paths, the identifier
generating SMOs (FK and condition DECOMPOSE/JOIN) follow the same
recorded-id / payload-reuse / fresh-allocation decision procedure, with
identifiers drawn from the backend's sequence table.

The engine also maintains *shared* auxiliary tables (the ID tables) of SMOs
that are not on a write's storage route; handlers expose the same programs
with ``apply_data=False`` (only shared-aux effects) and an extent-level
:meth:`SmoHandler.repair_statements` used for distant branches and for the
eager identifier initialization at evolution time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from repro.backend import emit
from repro.backend.emit import (
    all_null,
    delete_row,
    empty_relation,
    ident,
    new_refs,
    not_all_null,
    q,
    qcols,
    render_expression,
    rows_differ,
    seq_value,
    snapshot_exists,
    upsert_row,
)
from repro.bidel.smo.columns import AddColumnSemantics, DropColumnSemantics
from repro.bidel.smo.conditional import (
    DecomposeCondSemantics,
    InnerJoinCondSemantics,
)
from repro.bidel.smo.foreign_key import DecomposeFkSemantics, OuterJoinFkSemantics
from repro.bidel.smo.partition import MergeSemantics, SplitSemantics
from repro.bidel.smo.simple import (
    CreateTableSemantics,
    DropTableSemantics,
    RenameColumnSemantics,
    RenameTableSemantics,
)
from repro.bidel.smo.vertical import (
    DecomposePkSemantics,
    InnerJoinPkSemantics,
    OuterJoinPkSemantics,
)
from repro.catalog.genealogy import SmoInstance, TableVersion
from repro.errors import BackendError
from repro.expr.ast import Expression
from repro.sqlgen.views import branches_for_rules, select_sql_for_rules

# The engine draws every identifier (tuple ids and generated FK/condition
# ids) from one global sequence; the backend mirrors that.
GLOBAL_SEQUENCE = "p"

# Payload columns of the identifier-assignment scratch tables: two
# candidate ids and their dense ranks among the rows needing fresh ones.
SCRATCH_COLUMNS = ("a", "b", "rnk", "rnk2")

# The two write programs of a table version.  There is no INSERT/UPDATE
# distinction: INSERT into a generated view is an upsert.
WRITE_OPS = ("UPSERT", "DELETE")


def own_row(tv: TableVersion, op: str) -> tuple[str, list[str]]:
    """``(key, values)`` of the row a trigger program of ``tv`` writes:
    ``NEW`` for an upsert, ``OLD.p`` alone for a delete."""
    if op == "DELETE":
        return "OLD.p", []
    return "NEW.p", list(new_refs(tv.schema.column_names).values())


def _never(*_hop) -> None:
    return None


@dataclass
class HandlerContext:
    """Catalog-aware naming and storage-state lookups for handlers, and the
    seam every write of one row into a table version goes through."""

    engine: object  # InVerDa; duck-typed to avoid an import cycle
    #: ``(tv, op, key, values, guard, source)`` -> ``tv``'s own ``op``
    #: program with its row bound, or ``None`` unless that program is one
    #: row-local statement (:meth:`repro.backend.codegen.Renderer.row_program`).
    inline: Callable[..., str | None] = _never

    def view(self, tv: TableVersion) -> str:
        return tv.view_name

    def upsert(
        self, tv: TableVersion, key: str, row: Sequence[str],
        guard: str | None = None, source: str | None = None,
    ) -> str:
        """Upsert ``row`` (one value per column of ``tv``, reading the
        ``FROM`` item ``source`` if given) under ``key`` when ``guard``
        holds: ``tv``'s own program with the row substituted for ``NEW``
        and the guards conjoined where it is one row-local statement, else
        the ``INSERT`` into its view that fires it.  Every value is a
        reference, a literal or parenthesized, so it substitutes as an
        operand."""
        return self.inline(tv, "UPSERT", key, row, guard, source) or upsert_row(
            self.view(tv), tv.schema.column_names, key, row, guard=guard, source=source
        )

    def delete(self, tv: TableVersion, key: str, guard: str | None = None) -> str:
        """Delete ``key`` from ``tv`` when ``guard`` holds, through ``tv``'s
        one-statement program where the guard reads nothing but the row
        and a write program's row snapshot: every such program maps rows
        1:1 on ``p``, so an absent row stays no effect, and none writes a
        snapshot.  A guard reading any other state stays a hop."""
        if guard is None or "SELECT" not in emit.SNAPSHOT_TEST.sub("", guard):
            inlined = self.inline(tv, "DELETE", key, (), guard, None)
            if inlined is not None:
                return inlined
        return delete_row(self.view(tv), key, guard=guard)

    def aux_is_stored(self, smo: SmoInstance, role: str) -> bool:
        semantics = smo.semantics
        if role in semantics.aux_shared():
            return True
        if role in semantics.aux_src():
            return not smo.materialized
        if role in semantics.aux_tgt():
            return smo.materialized
        return False

    def aux_schema(self, smo: SmoInstance, role: str):
        semantics = smo.semantics
        for group in (semantics.aux_shared(), semantics.aux_src(), semantics.aux_tgt()):
            if role in group:
                return group[role]
        raise BackendError(f"SMO {smo!r} has no aux role {role!r}")

    def aux_ref(self, smo: SmoInstance, role: str) -> str:
        """Table reference for an aux role: its physical table when stored
        under the current materialization, an empty relation otherwise."""
        if self.aux_is_stored(smo, role):
            return smo.aux_table_name(role)
        return empty_relation(self.aux_schema(smo, role).column_names)


def cond_true(expression: Expression, refs: dict[str, str]) -> str:
    return f"({render_expression(expression, refs)}) IS TRUE"


def cond_not_true(expression: Expression, refs: dict[str, str]) -> str:
    return f"({render_expression(expression, refs)}) IS NOT TRUE"


def payload_match(left: Sequence[str], right: Sequence[str]) -> str:
    """Null-safe conjunction ``l1 IS r1 AND ...`` (``1`` when empty)."""
    if not left:
        return "1"
    return " AND ".join(ident(a, b) for a, b in zip(left, right))


# Guards folded at render time: ``True``, ``False``, or SQL text.  Every
# SQL term folded is an IS TRUE / IS NOT TRUE / IS NOT / EXISTS test, never
# NULL, so NOT of it is exact.
Guard = bool | str


def _all(*terms: Guard) -> Guard:
    sql = [term for term in terms if term is not True]
    return False if False in sql else " AND ".join(sql) or True


def _not(term: Guard) -> Guard:
    return not term if isinstance(term, bool) else f"NOT ({term})"


def _guarded(guard: Guard, build, *args, **kwargs) -> list[str]:
    """``build(*args, guard=guard, **kwargs)``: no statement when the guard
    folds to false, no ``WHERE`` when it folds to true."""
    return [] if guard is False else [
        build(*args, guard=None if guard is True else guard, **kwargs)
    ]


class _PartitionRow(NamedTuple):
    """One partition's row as a partition write program sees it."""

    exists: Guard
    refs: dict[str, str]  # column -> reference, valid with source in FROM
    source: str | None  # FROM item of its snapshot; None when folded to NEW


class SmoHandler:
    """Base: compile one SMO instance's delta code."""

    def __init__(self, ctx: HandlerContext, smo: SmoInstance):
        self.ctx = ctx
        self.smo = smo
        self.sem = smo.semantics

    # -- helpers -----------------------------------------------------------

    def side_of(self, tv: TableVersion) -> str:
        return "source" if tv in self.smo.sources else "target"

    def routed_here(self, tv: TableVersion) -> bool:
        """Is ``tv`` read and written through this SMO under the current
        materialization (the data lives on the SMO's other side)?"""
        return self.smo.materialized == (tv in self.smo.sources)

    def role_of(self, tv: TableVersion) -> str:
        if tv in self.smo.sources:
            return self.sem.source_roles[self.smo.sources.index(tv)]
        return self.sem.target_roles[self.smo.targets.index(tv)]

    def _role_tables(self) -> tuple[dict[str, str], dict[str, tuple[str, ...]]]:
        """Role -> SQL reference and role -> payload columns, with data
        roles resolved to views and aux roles to stored-or-empty."""
        names: dict[str, str] = {}
        columns: dict[str, tuple[str, ...]] = {}
        for role, tv in zip(self.sem.source_roles, self.smo.sources):
            names[role] = self.ctx.view(tv)
            columns[role] = tv.schema.column_names
        for role, tv in zip(self.sem.target_roles, self.smo.targets):
            names[role] = self.ctx.view(tv)
            columns[role] = tv.schema.column_names
        for group in (self.sem.aux_src(), self.sem.aux_tgt(), self.sem.aux_shared()):
            for role, schema in group.items():
                names[role] = self.ctx.aux_ref(self.smo, role)
                columns[role] = schema.column_names
        return names, columns

    # -- API ---------------------------------------------------------------

    def view_select(self, tv: TableVersion) -> str:
        """SELECT body deriving ``tv``'s visible extent from the far side."""
        raise NotImplementedError

    def view_branches(self, tv: TableVersion):
        """Structured UNION branches of :meth:`view_select`, for the view
        composer — or ``None`` when this SMO's view is hand-written SQL
        the composer must treat as opaque (flattening then falls back to
        referencing the generated view by name)."""
        return None

    def write_statements(
        self, tv: TableVersion, op: str, *, apply_data: bool = True
    ) -> list[str]:
        """Trigger-body statements propagating one row-level ``op`` across
        this SMO: ``UPSERT`` (``NEW`` in scope; the INSERT trigger's
        program, which the UPDATE trigger fires too, so ``OLD`` is never
        in scope) or ``DELETE`` (``OLD`` in scope).

        ``apply_data=False`` restricts the program to shared-aux (ID)
        maintenance — the off-route case."""
        if op not in WRITE_OPS:
            raise BackendError(
                f"no write program for {op!r}; expected one of {WRITE_OPS}"
            )
        if not apply_data and not has_shared_aux(self.smo):
            return []
        return self._write(tv, op, apply_data)

    def _write(self, tv: TableVersion, op: str, apply_data: bool) -> list[str]:
        """The program behind :meth:`write_statements`.  ``apply_data`` is
        only ever ``False`` for an SMO with shared aux tables.  Default:
        the one statement of :meth:`row_write` over the trigger's row."""
        return [self.row_write(tv, op, *own_row(tv, op), None, None)]

    def row_write(
        self,
        tv: TableVersion,
        op: str,
        key: str,
        values: Sequence[str],
        guard: str | None,
        source: str | None,
    ) -> str | None:
        """``tv``'s ``op`` program when it is one row-local statement
        (reading nothing but its row and literals), rendered for the row
        ``key`` / ``values`` (none for a delete; reading ``source`` if
        given) under ``guard``; ``None`` when the program is more
        (default)."""
        return None

    def repair_statements(self) -> list[str]:
        """Idempotent extent-level upkeep of shared aux tables (default:
        none)."""
        return []

    def stored_role_selects(self, will_materialize: bool) -> dict[str, str]:
        """Migration: SELECT statements deriving the contents of each side
        aux table of the *newly stored* side, reading pre-migration views."""
        return {}

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        """Scratch/staging tables the programs of :meth:`write_statements`
        and :meth:`repair_statements` name under the current
        materialization (name -> payload columns; every table also carries
        the ``p`` key).  Default: none."""
        return {}

    def _row_puts(self, tvs: Sequence[TableVersion]) -> dict[str, tuple[str, ...]]:
        """One row-snapshot staging table per table version, keyed by role."""
        return {
            self.smo.put_table_name(self.role_of(tv)): tv.schema.column_names
            for tv in tvs
        }


class RuleBackedHandler(SmoHandler):
    """Views from the SMO's instantiated Datalog rule sets."""

    def _view_rules(self, tv: TableVersion):
        if self.side_of(tv) == "source":
            rules = self.sem.gamma_src_rules()
        else:
            rules = self.sem.gamma_tgt_rules()
        if rules is None:
            raise BackendError(f"SMO {self.smo!r} has no rules for {tv!r}")
        return rules

    def view_select(self, tv: TableVersion) -> str:
        names, columns = self._role_tables()
        return select_sql_for_rules(
            self.role_of(tv),
            self._view_rules(tv),
            table_names=names,
            table_columns=columns,
            head_columns=tv.schema.column_names,
        )

    def view_branches(self, tv: TableVersion):
        names, columns = self._role_tables()
        return branches_for_rules(
            self.role_of(tv),
            self._view_rules(tv),
            table_names=names,
            table_columns=columns,
            head_columns=tv.schema.column_names,
        )

    def stored_role_selects(self, will_materialize: bool) -> dict[str, str]:
        rules = (
            self.sem.gamma_tgt_rules() if will_materialize else self.sem.gamma_src_rules()
        )
        side_aux = self.sem.aux_tgt() if will_materialize else self.sem.aux_src()
        if rules is None or not side_aux:
            return {}
        names, columns = self._role_tables()
        out: dict[str, str] = {}
        for role, schema in side_aux.items():
            out[role] = select_sql_for_rules(
                role,
                rules,
                table_names=names,
                table_columns=columns,
                head_columns=schema.column_names,
            )
        return out


# ---------------------------------------------------------------------------
# Structurally trivial SMOs
# ---------------------------------------------------------------------------


class DropTableHandler(RuleBackedHandler):
    """DROP TABLE: identity between the retired table and its aux home."""

    def row_write(self, tv, op, key, values, guard, source):
        aux = self.smo.aux_table_name("R_retired")
        if op == "DELETE":
            return delete_row(aux, key, guard=guard)
        return upsert_row(
            aux, tv.schema.column_names, key, values,
            guard=guard, source=source, plain_table=True,
        )


class IdentityHandler(RuleBackedHandler):
    """RENAME TABLE / RENAME COLUMN: positional identity on rows."""

    def row_write(self, tv, op, key, values, guard, source):
        if self.side_of(tv) == "source":
            other = self.smo.targets[0]
        else:
            other = self.smo.sources[0]
        if op == "DELETE":
            return self.ctx.delete(other, key, guard)
        return self.ctx.upsert(other, key, values, guard, source)


# ---------------------------------------------------------------------------
# ADD COLUMN / DROP COLUMN
# ---------------------------------------------------------------------------


class ColumnHandler(RuleBackedHandler):
    """ADD COLUMN / DROP COLUMN: a narrow table versus the same table with
    one more column (ADD's target, DROP's source).  Widening a row computes
    the column with the SMO's function (ADD's ``AS``, DROP's ``DEFAULT``);
    narrowing it keeps the written value in the aux table B, which is only
    stored on the narrow-ward side."""

    def _sides(self):
        """(narrow_tv, wide_tv, the function computing the column)."""
        node = self.sem.node
        if isinstance(self.sem, AddColumnSemantics):
            return self.smo.sources[0], self.smo.targets[0], node.function
        return self.smo.targets[0], self.smo.sources[0], node.default

    def row_write(self, tv, op, key, values, guard, source):
        narrow_tv, wide_tv, function = self._sides()
        if tv is not narrow_tv:
            return None
        if op == "DELETE":
            return self.ctx.delete(wide_tv, key, guard)
        row = dict(zip(narrow_tv.schema.column_names, values))
        computed = render_expression(function, row)
        wide_values = [
            computed if c == self.sem.node.column else row[c]
            for c in wide_tv.schema.column_names
        ]
        return self.ctx.upsert(wide_tv, key, wide_values, guard, source)

    def _write(self, tv, op, apply_data):
        narrow_tv, _wide_tv, _function = self._sides()
        if tv is narrow_tv:
            return super()._write(tv, op, apply_data)
        column = self.sem.node.column
        aux = self.smo.aux_table_name("B")
        if op == "DELETE":
            return [self.ctx.delete(narrow_tv, "OLD.p"), delete_row(aux, "OLD.p")]
        narrow_values = [f"NEW.{q(c)}" for c in narrow_tv.schema.column_names]
        return [
            self.ctx.upsert(narrow_tv, "NEW.p", narrow_values),
            upsert_row(aux, (column,), "NEW.p", [f"NEW.{q(column)}"], plain_table=True),
        ]


# ---------------------------------------------------------------------------
# Key-preserving vertical SMOs (DECOMPOSE/OUTER JOIN/JOIN ON PK)
# ---------------------------------------------------------------------------


class VerticalHandler(RuleBackedHandler):
    """DECOMPOSE / OUTER JOIN ON PK: the wide table versus two key-sharing
    projections (the paper's omega-filling outer-join lens), either way
    round."""

    def _tvs(self):
        """(wide_tv, first_tv, second_tv) regardless of SMO kind."""
        if isinstance(self.sem, DecomposePkSemantics):
            return (self.smo.sources[0], *self.smo.targets)
        return (self.smo.targets[0], *self.smo.sources)

    def put_tables(self):
        # Only a write at one projection (_combine_write) snapshots its
        # sibling, and only the side routed through this SMO is written.
        _wide_tv, *projections = self._tvs()
        return self._row_puts(projections) if self.routed_here(projections[0]) else {}

    def _write(self, tv, op, apply_data):
        lens = self.sem._lens
        wide_cols = lens.wide_schema.column_names
        first_cols = tuple(wide_cols[i] for i in lens.first_indices)
        second_cols = tuple(wide_cols[i] for i in lens.second_indices)
        wide_tv, first_tv, second_tv = self._tvs()
        if tv is wide_tv:
            return self._split_write(((first_tv, first_cols), (second_tv, second_cols)), op)
        if tv is first_tv:
            own, other_tv, other_cols = first_cols, second_tv, second_cols
        else:
            own, other_tv, other_cols = second_cols, first_tv, first_cols
        return self._combine_write(
            wide_tv,
            own,
            self.ctx.view(other_tv),
            other_cols,
            self.smo.put_table_name(self.role_of(other_tv)),
            op,
        )

    def _split_write(self, parts, op):
        """Write at the wide table: project both parts (``(tv, columns)``),
        suppressing all-null (omega) parts."""
        statements = []
        for part_tv, columns in parts:
            if op == "DELETE":
                statements.append(self.ctx.delete(part_tv, "OLD.p"))
                continue
            refs = [f"NEW.{q(c)}" for c in columns]
            statements.append(self.ctx.delete(part_tv, "NEW.p", all_null(refs)))
            statements.append(self.ctx.upsert(part_tv, "NEW.p", refs, not_all_null(refs)))
        return statements

    def _combine_write(
        self,
        wide_tv: TableVersion,
        own_cols: tuple[str, ...],
        other_view: str,
        other_cols: tuple[str, ...],
        put_other: str,
        op,
    ):
        """Write at one projection: re-derive the wide row together with the
        current other-side part (snapshotted first, because applying the
        wide row changes the derived other-side view)."""
        key = "OLD.p" if op == "DELETE" else "NEW.p"
        statements = [
            f"DELETE FROM {put_other}",
            f"INSERT INTO {put_other} SELECT p, {', '.join(qcols(other_cols))} "
            f"FROM {other_view} WHERE p IS {key}",
        ]
        wide = wide_tv.schema.column_names
        if op == "DELETE":
            # The wide row survives as the other part's, read as a FROM item.
            row = {**new_refs(other_cols, row="o"), **{c: "NULL" for c in own_cols}}
            return statements + [
                self.ctx.upsert(wide_tv, key, [row[c] for c in wide], source=f"{put_other} o"),
                self.ctx.delete(wide_tv, key, f"NOT {snapshot_exists(put_other)}"),
            ]
        row = {c: f"(SELECT {q(c)} FROM {put_other})" for c in other_cols}
        row.update(new_refs(own_cols))
        return statements + [self.ctx.upsert(wide_tv, key, [row[c] for c in wide])]


class InnerJoinPkHandler(RuleBackedHandler):
    """JOIN ON PK with the Rplus/Splus preservation aux tables."""

    def put_tables(self):
        # The forward program snapshots the other source's current row.
        sources = self.smo.sources
        return self._row_puts(sources) if self.routed_here(sources[0]) else {}

    def _write(self, tv, op, apply_data):
        first_tv, second_tv = self.smo.sources
        joined_tv = self.smo.targets[0]
        if self.side_of(tv) == "target":
            # Backward (virtualized): split the joined row into both parts.
            if op == "DELETE":
                return [self.ctx.delete(part_tv, "OLD.p") for part_tv in (first_tv, second_tv)]
            return [
                self.ctx.upsert(part_tv, *own_row(part_tv, op))
                for part_tv in (first_tv, second_tv)
            ]
        # Forward (materialized): join with the other source's current row.
        own_tv = tv
        other_tv = second_tv if tv is first_tv else first_tv
        own_plus = self.smo.aux_table_name("Rplus" if tv is first_tv else "Splus")
        other_plus = self.smo.aux_table_name("Splus" if tv is first_tv else "Rplus")
        put_other = self.smo.put_table_name(self.role_of(other_tv))
        other_cols = other_tv.schema.column_names
        own_cols = own_tv.schema.column_names
        key = "OLD.p" if op == "DELETE" else "NEW.p"
        statements = [
            f"DELETE FROM {put_other}",
            f"INSERT INTO {put_other} SELECT p, {', '.join(qcols(other_cols))} "
            f"FROM {self.ctx.view(other_tv)} WHERE p IS {key}",
        ]
        # The other source's row is the snapshot's, read as a FROM item.
        other, source = new_refs(other_cols, row="o"), f"{put_other} o"
        other_exists = snapshot_exists(put_other)
        if op == "DELETE":
            statements += [self.ctx.delete(joined_tv, key), delete_row(own_plus, key)]
            return statements + emit.member_row(
                other_plus, key, True, other_cols, list(other.values()), source=source
            )
        own = new_refs(own_cols)
        joined_values = [{**other, **own}[c] for c in joined_tv.schema.column_names]
        return statements + [
            self.ctx.upsert(joined_tv, key, joined_values, source=source),
            self.ctx.delete(joined_tv, key, f"NOT {other_exists}"),
            *emit.member_row(own_plus, key, f"NOT {other_exists}", own_cols, list(own.values())),
            delete_row(other_plus, key),
        ]


# ---------------------------------------------------------------------------
# SPLIT / MERGE (horizontal partitioning)
# ---------------------------------------------------------------------------


class PartitionHandler(RuleBackedHandler):
    """SPLIT / MERGE: the unified <-> partitioned lens, either way round."""

    def _lens(self):
        return self.sem._lens

    def _tvs(self):
        """(unified_tv, first_tv, second_tv|None) regardless of SMO kind."""
        if isinstance(self.sem, SplitSemantics):
            unified = self.smo.sources[0]
            first = self.smo.targets[0]
            second = self.smo.targets[1] if len(self.smo.targets) > 1 else None
        else:
            first, second = self.smo.sources
            unified = self.smo.targets[0]
        return unified, first, second

    def is_unified(self, tv: TableVersion) -> bool:
        unified, _first, _second = self._tvs()
        return tv is unified

    def put_tables(self):
        # Only a write at one partition (_to_unified) snapshots its twin,
        # and the partitions are written through this SMO only while they
        # are the routed side.
        _unified, first, second = self._tvs()
        if second is None or not self.routed_here(first):
            return {}
        return self._row_puts((first, second))

    def _to_partitions(self, op) -> list[str]:
        """Write at the unified table; the partitioned side (including its
        Uprime aux) is stored."""
        lens = self._lens()
        _unified, first, second = self._tvs()
        columns = lens.schema.column_names
        uprime = self.smo.aux_table_name(lens.roles.uprime)
        if op == "DELETE":
            statements = [self.ctx.delete(first, "OLD.p")]
            if second is not None:
                statements.append(self.ctx.delete(second, "OLD.p"))
            statements.append(delete_row(uprime, "OLD.p"))
            return statements
        refs = new_refs(columns)
        values = [f"NEW.{q(c)}" for c in columns]
        cr = cond_true(lens.c_first, refs)
        not_cr = cond_not_true(lens.c_first, refs)
        statements = [
            self.ctx.upsert(first, "NEW.p", values, cr),
            self.ctx.delete(first, "NEW.p", not_cr),
        ]
        if second is not None and lens.c_second is not None:
            cs = cond_true(lens.c_second, refs)
            not_cs = cond_not_true(lens.c_second, refs)
            statements.append(self.ctx.upsert(second, "NEW.p", values, cs))
            statements.append(self.ctx.delete(second, "NEW.p", not_cs))
            neither = f"{not_cr} AND {not_cs}"
            either = f"({cr} OR {cs})"
        else:
            neither = not_cr
            either = cr
        statements.append(
            upsert_row(uprime, columns, "NEW.p", values, guard=neither, plain_table=True)
        )
        statements.append(delete_row(uprime, "NEW.p", guard=either))
        return statements

    def _to_unified(self, tv: TableVersion, op) -> list[str]:
        """Write at one partition; the unified side (and its aux tables) is
        stored.  Mirrors ``_PartitionLens.propagate_to_unified``.

        The written partition's post-write row is known when the program is
        rendered — ``NEW`` for an upsert, none for a delete — and is folded
        in.  Only the twin partition's row is read, from a snapshot taken
        first (writing the unified view changes what the twin's view
        shows); a statement needing it reads the snapshot as a ``FROM``
        item, so an empty snapshot is no row."""
        lens = self._lens()
        unified, first, second = self._tvs()
        roles, columns = lens.roles, lens.schema.column_names
        c_first, c_second = lens.c_first, lens.c_second
        key = "OLD.p" if op == "DELETE" else "NEW.p"
        own = _PartitionRow(op != "DELETE", new_refs(columns), None)
        twin = _PartitionRow(False, {}, None)
        twin_tv, alias = (second, "s") if tv is first else (first, "f")
        statements = []
        if twin_tv is not None:
            put = self.smo.put_table_name(self.role_of(twin_tv))
            statements += [
                f"DELETE FROM {put}",
                f"INSERT INTO {put} SELECT p, {', '.join(qcols(columns))} "
                f"FROM {self.ctx.view(twin_tv)} WHERE p IS {key}",
            ]
            twin = _PartitionRow(
                snapshot_exists(put), new_refs(columns, row=alias), f"{put} {alias}"
            )
        f_row, s_row = (own, twin) if tv is first else (twin, own)

        def some(test, *rows: _PartitionRow) -> tuple[Guard, str | None]:
            """``(guard, FROM items)`` selecting one row exactly when the
            rows exist and ``test(<their refs>)`` holds."""
            if not all(row.exists for row in rows):
                return False, None
            sources = [row.source for row in rows if row.source is not None]
            guards = [row.exists for row in rows if row.source is None]
            return _all(*guards, test(*(row.refs for row in rows))), ", ".join(sources) or None

        # The unified row: R wins, then S.
        for row, others in ((f_row, True), (s_row, _not(f_row.exists))):
            guard, source = some(lambda _refs: True, row)
            statements += _guarded(
                _all(others, guard), self.ctx.upsert, unified, key, list(row.refs.values()),
                source=source,
            )
        # A stored unified row matching neither condition stays put.  Only a
        # delete leaving neither partition a row gets here.  At R the unified
        # row is then the row deleted, OLD; S may have shown its separated
        # twin (Splus) instead, so there it is read from the unified view.
        refs = new_refs(columns, row="OLD" if tv is first else "d")
        neither = _all(*(cond_not_true(c, refs) for c in (c_first, c_second) if c is not None))
        if tv is not first:
            unified_view = self.ctx.view(unified)
            neither = f"EXISTS (SELECT 1 FROM {unified_view} d WHERE d.p IS {key} AND {neither})"
        statements += _guarded(
            _all(_not(f_row.exists), _not(s_row.exists), _not(neither)),
            self.ctx.delete, unified, key,
        )

        # Aux memberships on the unified side (Rules 21-25, key-restricted):
        # (role, (guard, FROM items) of a member, its payload columns).
        members = [(roles.rstar, some(lambda f: cond_not_true(c_first, f), f_row), ())]
        if roles.second is not None and c_second is not None:
            members += [
                (roles.rminus, some(lambda s: _all(
                    _not(f_row.exists), cond_true(c_first, s)), s_row), ()),
                (roles.splus, some(rows_differ, f_row, s_row), columns),
                (roles.sminus, some(lambda f: _all(
                    _not(s_row.exists), cond_true(c_second, f)), f_row), ()),
                (roles.sstar, some(lambda s: cond_not_true(c_second, s), s_row), ()),
            ]
        for role, (present, source), payload in members:
            statements += emit.member_row(
                self.smo.aux_table_name(role), key, present, payload,
                [s_row.refs[c] for c in payload], source=source,
            )
        return statements

    def _write(self, tv, op, apply_data):
        if self.is_unified(tv):
            return self._to_partitions(op)
        return self._to_unified(tv, op)


# ---------------------------------------------------------------------------
# DECOMPOSE / OUTER JOIN ON FOREIGN KEY
# ---------------------------------------------------------------------------


class FkHandler(SmoHandler):
    """The FK lens: a wide table versus S(A, fk) / T(id, B) with generated
    identifiers recorded in the always-stored ID table."""

    def _parts(self):
        lens = self.sem._lens
        if isinstance(self.sem, DecomposeFkSemantics):
            wide_tv = self.smo.sources[0]
            s_tv, t_tv = self.smo.targets
        else:
            s_tv, t_tv = self.smo.sources
            wide_tv = self.smo.targets[0]
        id_col = t_tv.schema.column_names[0]
        return wide_tv, s_tv, t_tv, lens.fk_column, id_col, lens.s_columns, lens.t_columns

    def _wide_stored_ward(self) -> bool:
        """Is the wide table on the side data is routed toward (its view
        independent of this SMO)?"""
        wide_is_target = isinstance(self.sem, OuterJoinFkSemantics)
        return self.smo.materialized == wide_is_target

    def _id_table(self) -> str:
        return self.smo.aux_table_name("ID")

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        # ID is shared aux, so all three table versions carry a program of
        # this SMO (on or off the storage route) in either state.
        _wide_tv, s_tv, t_tv, *_ = self._parts()
        tables = self._row_puts((s_tv, t_tv))
        tables[self.smo.put_table_name("ID")] = ("fk",)
        if self._wide_stored_ward():
            tables[self.smo.put_table_name("scratch")] = SCRATCH_COLUMNS
        return tables

    # -- views -------------------------------------------------------------

    def view_select(self, tv: TableVersion) -> str:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vs, vt, vw = self.ctx.view(s_tv), self.ctx.view(t_tv), self.ctx.view(wide_tv)
        id_table = self._id_table()
        if tv is wide_tv:
            joined = []
            padded = []
            for column in wide_tv.schema.column_names:
                side = "s" if column in a_cols else "t"
                joined.append(f"{side}.{q(column)} AS {q(column)}")
                padded.append(
                    f"NULL AS {q(column)}" if column in a_cols else f"t.{q(column)} AS {q(column)}"
                )
            return (
                f"SELECT s.p AS p, {', '.join(joined)} FROM {vs} s "
                f"LEFT JOIN {vt} t ON t.{q(id_col)} = s.{q(fk)}\n"
                f"UNION ALL\n"
                f"SELECT t.{q(id_col)} AS p, {', '.join(padded)} FROM {vt} t "
                f"WHERE NOT EXISTS (SELECT 1 FROM {vs} s WHERE s.{q(fk)} = t.{q(id_col)})"
            )
        if tv is s_tv:
            items = [
                f"i.fk AS {q(c)}" if c == fk else f"r.{q(c)} AS {q(c)}"
                for c in s_tv.schema.column_names
            ]
            return (
                f"SELECT r.p AS p, {', '.join(items)} "
                f"FROM {vw} r JOIN {id_table} i ON i.p = r.p"
            )
        items = [
            f"i.fk AS {q(c)}" if c == id_col else f"r.{q(c)} AS {q(c)}"
            for c in t_tv.schema.column_names
        ]
        return (
            f"SELECT i.fk AS p, {', '.join(items)} "
            f"FROM {vw} r JOIN {id_table} i ON i.p = r.p "
            f"WHERE i.fk IS NOT NULL GROUP BY i.fk"
        )

    # -- writes ------------------------------------------------------------

    def _payload_cond(self, alias: str, b_cols, row: str = "NEW") -> str:
        return payload_match(
            [f"{alias}.{q(c)}" for c in b_cols], [f"{row}.{q(c)}" for c in b_cols]
        )

    def _wide_write(self, op, apply_data: bool) -> list[str]:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vt = self.ctx.view(t_tv)
        id_table = self._id_table()
        put = self.smo.put_table_name("ID")
        if op == "DELETE":
            recorded = f"(SELECT fk FROM {id_table} WHERE p IS OLD.p)"
            statements = []
            if apply_data:
                statements.append(
                    f"DELETE FROM {vt} WHERE p IS {recorded} AND {recorded} IS NOT NULL "
                    f"AND NOT EXISTS (SELECT 1 FROM {id_table} i2 "
                    f"WHERE i2.p IS NOT OLD.p AND i2.fk IS {recorded})"
                )
                statements.append(self.ctx.delete(s_tv, "OLD.p"))
            statements.append(delete_row(id_table, "OLD.p"))
            return statements
        b_new = [f"NEW.{q(c)}" for c in b_cols]
        b_null = all_null(b_new)
        match_t = self._payload_cond("t", b_cols)
        if isinstance(self.sem, OuterJoinFkSemantics):
            # Backward writes at the wide table run through the engine's
            # full lens put, whose first pass keeps a recorded identifier
            # unconditionally (Rules 141/143).
            decision = (
                f"CASE WHEN EXISTS (SELECT 1 FROM {id_table} WHERE p IS NEW.p) "
                f"THEN (SELECT fk FROM {id_table} WHERE p IS NEW.p) "
                f"WHEN {b_null} THEN NULL "
                f"WHEN EXISTS (SELECT 1 FROM {vt} t WHERE {match_t}) "
                f"THEN (SELECT MIN(t.{q(id_col)}) FROM {vt} t WHERE {match_t}) "
                f"ELSE NULL END"
            )
        else:
            # Forward writes take the incremental fast path: a recorded id
            # survives only while its payload still matches; otherwise the
            # row reuses a payload match or gets a fresh identifier.
            decision = (
                f"CASE WHEN {b_null} THEN NULL "
                f"WHEN EXISTS (SELECT 1 FROM {id_table} i JOIN {vt} t "
                f"ON t.{q(id_col)} = i.fk WHERE i.p IS NEW.p AND {match_t}) "
                f"THEN (SELECT fk FROM {id_table} WHERE p IS NEW.p) "
                f"WHEN EXISTS (SELECT 1 FROM {vt} t WHERE {match_t}) "
                f"THEN (SELECT MIN(t.{q(id_col)}) FROM {vt} t WHERE {match_t}) "
                f"ELSE NULL END"
            )
        unresolved = f"EXISTS (SELECT 1 FROM {put} WHERE fk IS NULL) AND NOT {b_null}"
        statements = [
            f"DELETE FROM {put}",
            f"INSERT INTO {put} (p, fk) SELECT NEW.p, {decision}",
            *emit.seq_next_statements(GLOBAL_SEQUENCE, guard=unresolved),
            f"UPDATE {put} SET fk = {seq_value(GLOBAL_SEQUENCE)} "
            f"WHERE fk IS NULL AND NOT {b_null}",
            f"INSERT OR REPLACE INTO {id_table} (p, fk) SELECT p, fk FROM {put}",
        ]
        if apply_data:
            # The recorded assignment survives nested trigger invocations
            # (which may clobber the put table); read the id back from ID.
            fk_sql = f"(SELECT fk FROM {id_table} WHERE p IS NEW.p)"
            # T before S: when S's write cascades, its nested shared-aux
            # maintenance probes the T row, which must already exist.
            t_values = [
                fk_sql if c == id_col else f"NEW.{q(c)}"
                for c in t_tv.schema.column_names
            ]
            s_values = [
                fk_sql if c == fk else f"NEW.{q(c)}" for c in s_tv.schema.column_names
            ]
            statements += [
                self.ctx.upsert(
                    t_tv, fk_sql, t_values, f"{fk_sql} IS NOT NULL AND NOT {b_null}"
                ),
                self.ctx.upsert(s_tv, "NEW.p", s_values),
            ]
        return statements

    def _s_write(self, op, apply_data: bool) -> list[str]:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vw, vt = self.ctx.view(wide_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        if op == "DELETE":
            statements = []
            if apply_data:
                statements.append(self.ctx.delete(wide_tv, "OLD.p"))
            statements.append(delete_row(id_table, "OLD.p"))
            return statements
        put_t = self.smo.put_table_name("T")
        t_cols = t_tv.schema.column_names
        statements = [
            f"DELETE FROM {put_t}",
            f"INSERT INTO {put_t} SELECT p, {', '.join(qcols(t_cols))} "
            f"FROM {vt} WHERE p IS NEW.{q(fk)}",
        ]
        if apply_data:
            values = []
            for column in wide_tv.schema.column_names:
                if column in a_cols:
                    values.append(f"NEW.{q(column)}")
                else:
                    values.append(f"(SELECT {q(column)} FROM {put_t})")
            statements.append(self.ctx.upsert(wide_tv, "NEW.p", values))
            if isinstance(self.sem, OuterJoinFkSemantics):
                # The engine's full put regenerates the stored wide table:
                # a T row surfaced as an unreferenced padded row disappears
                # once this S row references it.
                statements.append(
                    f"DELETE FROM {vw} WHERE p IS NEW.{q(fk)} "
                    f"AND NEW.{q(fk)} IS NOT NEW.p "
                    f"AND {all_null(qcols(a_cols))}"
                )
        statements.append(
            # Skip when the recorded assignment already matches: an S write
            # arriving as part of a wide-row cascade must not re-derive (and
            # possibly NULL out) the identifier the outer program recorded.
            f"INSERT OR REPLACE INTO {id_table} (p, fk) SELECT NEW.p, "
            f"CASE WHEN EXISTS (SELECT 1 FROM {put_t}) THEN NEW.{q(fk)} ELSE NULL END "
            f"WHERE NOT EXISTS (SELECT 1 FROM {id_table} "
            f"WHERE p IS NEW.p AND fk IS NEW.{q(fk)})"
        )
        return statements

    def _t_write(self, op, apply_data: bool) -> list[str]:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vw, vs = self.ctx.view(wide_tv), self.ctx.view(s_tv)
        id_table = self._id_table()
        row = "OLD" if op == "DELETE" else "NEW"
        key = f"{row}.{q(id_col)}"
        put_s = self.smo.put_table_name("S")
        s_cols = s_tv.schema.column_names
        statements = [
            f"DELETE FROM {put_s}",
            f"INSERT INTO {put_s} SELECT p, {', '.join(qcols(s_cols))} "
            f"FROM {vs} WHERE {q(fk)} IS {key}",
        ]
        refs_exist = f"EXISTS (SELECT 1 FROM {put_s})"
        if op == "DELETE":
            if apply_data:
                statements.append(f"DELETE FROM {vw} WHERE p IS {key}")
                if b_cols:
                    sets = ", ".join(f"{q(c)} = NULL" for c in b_cols)
                    statements.append(
                        f"UPDATE {vw} SET {sets} WHERE p IN (SELECT p FROM {put_s})"
                    )
            statements.append(
                f"INSERT OR REPLACE INTO {id_table} (p, fk) "
                f"SELECT p, NULL FROM {put_s}"
            )
            return statements
        if apply_data:
            if b_cols:
                sets = ", ".join(f"{q(c)} = NEW.{q(c)}" for c in b_cols)
                statements.append(
                    f"UPDATE {vw} SET {sets} WHERE p IN (SELECT p FROM {put_s})"
                )
            values = [
                "NULL" if c in a_cols else f"NEW.{q(c)}"
                for c in wide_tv.schema.column_names
            ]
            statements.append(self.ctx.upsert(wide_tv, key, values, f"NOT {refs_exist}"))
        statements.append(
            f"INSERT OR REPLACE INTO {id_table} (p, fk) SELECT p, {key} FROM {put_s}"
        )
        statements.append(
            # "Unreferenced T row surfaces in the wide table" — unless some
            # recorded assignment already references this identifier (the T
            # write is then part of a wide-row cascade, not a lone insert).
            f"INSERT OR REPLACE INTO {id_table} (p, fk) SELECT {key}, {key} "
            f"WHERE NOT {refs_exist} AND NOT EXISTS "
            f"(SELECT 1 FROM {id_table} WHERE fk IS {key})"
        )
        return statements

    def _write(self, tv, op, apply_data):
        wide_tv, s_tv, t_tv, *_ = self._parts()
        if tv is wide_tv:
            return self._wide_write(op, apply_data)
        if tv is s_tv:
            return self._s_write(op, apply_data)
        return self._t_write(op, apply_data)

    # -- repair ------------------------------------------------------------

    def repair_statements(self) -> list[str]:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vw, vs, vt = self.ctx.view(wide_tv), self.ctx.view(s_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        scratch = self.smo.put_table_name("scratch")
        missing = f"NOT IN (SELECT p FROM {id_table})"
        # No dangling-entry cleanup here: repairs run inside triggers whose
        # enclosing cascade may not have made the written row visible yet,
        # and stale entries are invisible through the generated views (the
        # row-delete programs maintain ID themselves).
        statements = []
        if not self._wide_stored_ward():
            # Narrow side independent: record the actual foreign keys.
            statements += [
                f"INSERT INTO {id_table} (p, fk) SELECT s.p, "
                f"CASE WHEN EXISTS (SELECT 1 FROM {vt} t "
                f"WHERE t.{q(id_col)} = s.{q(fk)}) THEN s.{q(fk)} ELSE NULL END "
                f"FROM {vs} s WHERE s.p {missing}",
                f"INSERT INTO {id_table} (p, fk) SELECT t.{q(id_col)}, t.{q(id_col)} "
                f"FROM {vt} t WHERE t.{q(id_col)} {missing} AND NOT EXISTS "
                f"(SELECT 1 FROM {vs} s WHERE s.{q(fk)} = t.{q(id_col)})",
            ]
            return statements
        w_null = all_null([f"w.{q(c)}" for c in b_cols])
        match_w = payload_match(
            [f"t.{q(c)}" for c in b_cols], [f"w.{q(c)}" for c in b_cols]
        )
        group = payload_match(
            [f"w2.{q(c)}" for c in b_cols], [f"w.{q(c)}" for c in b_cols]
        )
        statements += [
            f"INSERT INTO {id_table} (p, fk) SELECT w.p, NULL FROM {vw} w "
            f"WHERE w.p {missing} AND {w_null}",
            f"INSERT INTO {id_table} (p, fk) SELECT w.p, "
            f"(SELECT MIN(t.{q(id_col)}) FROM {vt} t WHERE {match_w}) "
            f"FROM {vw} w WHERE w.p {missing} "
            f"AND EXISTS (SELECT 1 FROM {vt} t WHERE {match_w})",
            f"DELETE FROM {scratch}",
            f"INSERT INTO {scratch} (p, a, rnk) SELECT w.p, NULL, "
            f"DENSE_RANK() OVER (ORDER BY "
            f"(SELECT MIN(w2.p) FROM {vw} w2 WHERE {group})) "
            f"FROM {vw} w WHERE w.p {missing}",
            f"INSERT INTO {id_table} (p, fk) "
            f"SELECT p, {seq_value(GLOBAL_SEQUENCE)} + rnk FROM {scratch}",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
        ]
        return statements


# ---------------------------------------------------------------------------
# DECOMPOSE / JOIN ON condition
# ---------------------------------------------------------------------------


class CondHandler(SmoHandler):
    """The condition lens: S(id, A) x T(id, B) joined under c(A, B) with
    generated identifiers on both sides, recorded in ID(r -> s, t); Rminus
    suppresses join results deleted through the wide side (Rule 200)."""

    def _parts(self):
        lens = self.sem._lens
        if isinstance(self.sem, DecomposeCondSemantics):
            wide_tv = self.smo.sources[0]
            s_tv, t_tv = self.smo.targets
        else:
            s_tv, t_tv = self.smo.sources
            wide_tv = self.smo.targets[0]
        s_payload = s_tv.schema.column_names[1:]
        t_payload = t_tv.schema.column_names[1:]
        return wide_tv, s_tv, t_tv, s_payload, t_payload, lens.condition

    def _wide_stored_ward(self) -> bool:
        wide_is_target = isinstance(self.sem, InnerJoinCondSemantics)
        return self.smo.materialized == wide_is_target

    def _id_table(self) -> str:
        return self.smo.aux_table_name("ID")

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        # ID is shared aux, so all three table versions carry a program of
        # this SMO in either state; which side applies data (and stages
        # the rows it applies) follows the storage route.
        wide_tv, s_tv, t_tv, *_ = self._parts()
        put = self.smo.put_table_name
        tables = self._row_puts((s_tv, t_tv))
        tables[put("scratch")] = SCRATCH_COLUMNS
        tables[put("regen_scratch")] = SCRATCH_COLUMNS
        tables[put("regen_W")] = wide_tv.schema.column_names
        if self._wide_stored_ward():
            tables[put("R")] = wide_tv.schema.column_names
        else:
            for narrow_tv in (s_tv, t_tv):
                tables[put("regen_" + self.role_of(narrow_tv))] = (
                    narrow_tv.schema.column_names
                )
        return tables

    def _scratch(self) -> str:
        return self.smo.put_table_name("scratch")

    def _cond(self, s_refs: dict[str, str], t_refs: dict[str, str]) -> str:
        _w, _s, _t, s_payload, t_payload, condition = self._parts()
        refs = {**{c: s_refs[c] for c in s_payload}, **{c: t_refs[c] for c in t_payload}}
        return cond_true(condition, refs)

    def _alias_refs(self, columns, alias: str) -> dict[str, str]:
        return {c: f"{alias}.{q(c)}" for c in columns}

    def _wide_values(self, s_refs: dict[str, str], t_refs: dict[str, str]) -> list[str]:
        wide_tv, _s, _t, s_payload, _tp, _c = self._parts()
        return [
            s_refs[c] if c in s_payload else t_refs[c]
            for c in wide_tv.schema.column_names
        ]

    # -- views -------------------------------------------------------------

    def view_select(self, tv: TableVersion) -> str:
        wide_tv, s_tv, t_tv, s_payload, t_payload, _cond = self._parts()
        vw, vs, vt = self.ctx.view(wide_tv), self.ctx.view(s_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        if tv is wide_tv:
            rminus = self.ctx.aux_ref(self.smo, "Rminus")
            cond = self._cond(self._alias_refs(s_payload, "s"), self._alias_refs(t_payload, "t"))
            values = self._wide_values(
                {c: f"s.{q(c)} AS {q(c)}" for c in s_payload},
                {c: f"t.{q(c)} AS {q(c)}" for c in t_payload},
            )
            return (
                f"SELECT i.p AS p, {', '.join(values)} FROM {id_table} i "
                f"JOIN {vs} s ON s.p = i.s JOIN {vt} t ON t.p = i.t "
                f"WHERE {cond} AND NOT EXISTS "
                f"(SELECT 1 FROM {rminus} m WHERE m.s IS i.s AND m.t IS i.t)"
            )
        if tv is s_tv:
            own, key_of = s_tv, "s"
            plus = self.ctx.aux_ref(self.smo, "Splus")
        else:
            own, key_of = t_tv, "t"
            plus = self.ctx.aux_ref(self.smo, "Tplus")
        id_col = own.schema.column_names[0]
        items = [
            f"i.{key_of} AS {q(c)}" if c == id_col else f"r.{q(c)} AS {q(c)}"
            for c in own.schema.column_names
        ]
        derived_keys = f"SELECT i.{key_of} FROM {id_table} i JOIN {vw} r ON r.p = i.p"
        plus_items = ", ".join(f"x.{q(c)} AS {q(c)}" for c in own.schema.column_names)
        return (
            f"SELECT i.{key_of} AS p, {', '.join(items)} "
            f"FROM {vw} r JOIN {id_table} i ON i.p = r.p GROUP BY i.{key_of}\n"
            f"UNION ALL\n"
            f"SELECT x.p AS p, {plus_items} FROM {plus} x "
            f"WHERE x.p NOT IN ({derived_keys})"
        )

    # -- writes ------------------------------------------------------------

    def _rminus_recompute(self) -> list[str]:
        """Rule 200, full-state: matching pairs without a wide row."""
        _w, s_tv, t_tv, s_payload, t_payload, _c = self._parts()
        rminus = self.smo.aux_table_name("Rminus")
        cond = self._cond(self._alias_refs(s_payload, "s"), self._alias_refs(t_payload, "t"))
        id_table = self._id_table()
        return [
            f"DELETE FROM {rminus}",
            f"INSERT INTO {rminus} (p, s, t) "
            f"SELECT ROW_NUMBER() OVER (ORDER BY s.p, t.p), s.p, t.p "
            f"FROM {self.ctx.view(s_tv)} s, {self.ctx.view(t_tv)} t "
            f"WHERE {cond} AND NOT EXISTS "
            f"(SELECT 1 FROM {id_table} i WHERE i.s IS s.p AND i.t IS t.p)",
        ]

    def _wide_write(self, op, apply_data: bool) -> list[str]:
        """Write at the wide table: the engine runs a full lens put here
        (the condition SMOs have no incremental fast path), regenerating the
        stored narrow side from the post-write wide extent — identifiers
        recorded in ID survive, payload duplicates reuse, the rest is
        allocated fresh; narrow rows no longer derivable disappear."""
        wide_tv, s_tv, t_tv, s_payload, t_payload, _c = self._parts()
        vw = self.ctx.view(wide_tv)
        id_table = self._id_table()
        # Dedicated staging: applying the regenerated narrow rows fires
        # nested maintenance triggers of this same SMO, which snapshot into
        # the ordinary put/scratch tables.
        scratch = self.smo.put_table_name("regen_scratch")
        put_wide = self.smo.put_table_name("regen_W")
        key = "OLD.p" if op == "DELETE" else "NEW.p"
        wide_cols = wide_tv.schema.column_names

        def group(payload):
            return payload_match(
                [f"w2.{q(c)}" for c in payload], [f"w.{q(c)}" for c in payload]
            )

        # 1. Stage the post-write wide extent.
        statements = [
            f"DELETE FROM {put_wide}",
            f"INSERT INTO {put_wide} SELECT p, {', '.join(qcols(wide_cols))} "
            f"FROM {vw} WHERE p IS NOT {key}",
        ]
        if op != "DELETE":
            statements.append(
                f"INSERT INTO {put_wide} (p, {', '.join(qcols(wide_cols))}) "
                f"VALUES ({key}, {', '.join(f'NEW.{q(c)}' for c in wide_cols)})"
            )
        # 2. Identifier assignment: recorded, then payload reuse among
        #    recorded rows, then fresh per distinct payload.
        statements += [
            f"DELETE FROM {scratch}",
            f"INSERT INTO {scratch} (p, a, b, rnk, rnk2) SELECT w.p, "
            f"COALESCE((SELECT i.s FROM {id_table} i WHERE i.p = w.p), "
            f"(SELECT MIN(i.s) FROM {id_table} i JOIN {put_wide} w2 ON w2.p = i.p "
            f"WHERE {group(s_payload)})), "
            f"COALESCE((SELECT i.t FROM {id_table} i WHERE i.p = w.p), "
            f"(SELECT MIN(i.t) FROM {id_table} i JOIN {put_wide} w2 ON w2.p = i.p "
            f"WHERE {group(t_payload)})), "
            f"DENSE_RANK() OVER (ORDER BY (SELECT MIN(w2.p) FROM {put_wide} w2 "
            f"WHERE {group(s_payload)})), "
            f"DENSE_RANK() OVER (ORDER BY (SELECT MIN(w2.p) FROM {put_wide} w2 "
            f"WHERE {group(t_payload)})) "
            f"FROM {put_wide} w",
            f"UPDATE {scratch} SET a = {seq_value(GLOBAL_SEQUENCE)} + rnk "
            f"WHERE a IS NULL",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
            f"UPDATE {scratch} SET b = {seq_value(GLOBAL_SEQUENCE)} + rnk2 "
            f"WHERE b IS NULL",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk2) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
            # 3. Rewrite ID wholesale (entries of vanished rows go with it).
            f"DELETE FROM {id_table}",
            f"INSERT INTO {id_table} (p, s, t) SELECT p, a, b FROM {scratch}",
        ]
        if apply_data:
            # 4. Regenerate the narrow side.  Stage BOTH extents before
            #    applying either (applies cascade), then apply T first so
            #    cascaded nested maintenance finds T rows in place.
            for narrow_tv, id_sql in ((t_tv, "b"), (s_tv, "a")):
                put_narrow = self.smo.put_table_name(
                    "regen_" + self.role_of(narrow_tv)
                )
                id_col = narrow_tv.schema.column_names[0]
                items = [
                    f"sc.{id_sql} AS {q(c)}" if c == id_col else f"w.{q(c)} AS {q(c)}"
                    for c in narrow_tv.schema.column_names
                ]
                statements += [
                    f"DELETE FROM {put_narrow}",
                    f"INSERT INTO {put_narrow} "
                    f"SELECT sc.{id_sql}, {', '.join(items)} "
                    f"FROM {put_wide} w JOIN {scratch} sc ON sc.p = w.p "
                    f"GROUP BY sc.{id_sql}",
                ]
            for narrow_tv in (t_tv, s_tv):
                statements += emit.apply_extent(
                    self.ctx.view(narrow_tv),
                    narrow_tv.schema.column_names,
                    self.smo.put_table_name("regen_" + self.role_of(narrow_tv)),
                )
            statements += self._rminus_recompute()
        return statements

    def _narrow_write(self, tv: TableVersion, op, apply_data: bool) -> list[str]:
        wide_tv, s_tv, t_tv, s_payload, t_payload, _c = self._parts()
        vw = self.ctx.view(wide_tv)
        id_table = self._id_table()
        scratch = self._scratch()
        writing_s = tv is s_tv
        own_key, other_key = ("s", "t") if writing_s else ("t", "s")
        other_tv = t_tv if writing_s else s_tv
        v_other = self.ctx.view(other_tv)
        own_plus = self.smo.aux_table_name("Splus" if writing_s else "Tplus")
        other_plus = self.smo.aux_table_name("Tplus" if writing_s else "Splus")
        other_payload = t_payload if writing_s else s_payload
        own_payload = s_payload if writing_s else t_payload
        row = "OLD" if op == "DELETE" else "NEW"
        key = f"{row}.p"

        def pair_cond(other_alias: str, own_row: str = "NEW") -> str:
            own_refs = {c: f"{own_row}.{q(c)}" for c in own_payload}
            other_refs = self._alias_refs(other_payload, other_alias)
            if writing_s:
                return self._cond(own_refs, other_refs)
            return self._cond(other_refs, own_refs)

        # Snapshot the other narrow table's PRE-change extent: applying the
        # wide-side changes below makes derived rows vanish before the plus
        # bookkeeping reads them (the engine computes from pre-change
        # extents plus the change).
        put_other = self.smo.put_table_name("T" if writing_s else "S")
        other_cols = other_tv.schema.column_names
        snapshot = [
            f"DELETE FROM {put_other}",
            f"INSERT INTO {put_other} SELECT p, {', '.join(qcols(other_cols))} "
            f"FROM {v_other}",
        ]

        def other_plus_recompute() -> list[str]:
            """Rows of the other narrow table matching no row of this one
            belong in its plus table (and vice versa removals)."""
            o_refs = self._alias_refs(other_payload, "o")
            m_refs = self._alias_refs(own_payload, "m")
            cond = (
                self._cond(m_refs, o_refs) if writing_s else self._cond(o_refs, m_refs)
            )
            own_view = self.ctx.view(tv)
            collist = ", ".join(["p", *qcols(other_cols)])
            matched = (
                f"EXISTS (SELECT 1 FROM {own_view} m WHERE {cond})"
            )
            tp_refs = {c: f"{other_plus}.{q(c)}" for c in other_payload}
            cond_tp = (
                self._cond(m_refs, tp_refs) if writing_s else self._cond(tp_refs, m_refs)
            )
            return [
                f"DELETE FROM {other_plus} WHERE EXISTS "
                f"(SELECT 1 FROM {own_view} m WHERE {cond_tp})",
                f"INSERT OR REPLACE INTO {other_plus} ({collist}) "
                f"SELECT o.p, {', '.join(f'o.{q(c)}' for c in other_cols)} "
                f"FROM {put_other} o WHERE NOT {matched}",
            ]

        if op == "DELETE":
            statements = [
                *snapshot,
                f"DELETE FROM {scratch}",
                f"INSERT INTO {scratch} (p) SELECT i.p FROM {id_table} i "
                f"WHERE i.{own_key} IS OLD.p",
            ]
            if apply_data:
                statements.append(
                    f"DELETE FROM {vw} WHERE p IN (SELECT p FROM {scratch})"
                )
                statements.append(delete_row(own_plus, "OLD.p"))
                statements += other_plus_recompute()
            return statements

        put_wide = self.smo.put_table_name("R")
        statements = [
            *snapshot,
            f"DELETE FROM {scratch}",
            # New matching partners lacking a recorded pair.
            f"INSERT INTO {scratch} (p, rnk) SELECT o.p, "
            f"ROW_NUMBER() OVER (ORDER BY o.p) FROM {put_other} o "
            f"WHERE {pair_cond('o')} AND NOT EXISTS "
            f"(SELECT 1 FROM {id_table} i WHERE i.{own_key} IS {key} "
            f"AND i.{other_key} IS o.p)",
        ]
        own_refs = {c: f"NEW.{q(c)}" for c in own_payload}
        o_refs = self._alias_refs(other_payload, "o")
        s_refs, t_refs = (own_refs, o_refs) if writing_s else (o_refs, own_refs)
        wide_values = ", ".join(self._wide_values(s_refs, t_refs))
        if apply_data:
            statements += [
                f"DELETE FROM {put_wide}",
                # Recorded pairs that (still) match, with the written payload.
                f"INSERT INTO {put_wide} SELECT i.p, {wide_values} "
                f"FROM {id_table} i JOIN {put_other} o ON o.p = i.{other_key} "
                f"WHERE i.{own_key} IS {key} AND {pair_cond('o')}",
                # Fresh pairs about to be recorded.
                f"INSERT INTO {put_wide} SELECT {seq_value(GLOBAL_SEQUENCE)} + sc.rnk, "
                f"{wide_values} FROM {scratch} sc JOIN {put_other} o ON o.p = sc.p",
            ]
        id_cols = f"{own_key}, {other_key}"
        statements += [
            f"INSERT INTO {id_table} (p, {id_cols}) "
            f"SELECT {seq_value(GLOBAL_SEQUENCE)} + rnk, {key}, p FROM {scratch}",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
        ]
        if apply_data:
            wide_cols = wide_tv.schema.column_names
            statements += [
                # Recorded pairs that no longer match disappear.
                f"DELETE FROM {vw} WHERE p IN (SELECT i.p FROM {id_table} i "
                f"WHERE i.{own_key} IS {key} "
                f"AND i.p NOT IN (SELECT p FROM {put_wide}))",
                f"UPDATE {vw} SET ({', '.join(qcols(wide_cols))}) = "
                f"(SELECT {', '.join(qcols(wide_cols))} FROM {put_wide} s "
                f"WHERE s.p = {vw}.p) "
                f"WHERE p IN (SELECT p FROM {put_wide})",
                f"INSERT INTO {vw} (p, {', '.join(qcols(wide_cols))}) "
                f"SELECT p, {', '.join(qcols(wide_cols))} FROM {put_wide} "
                f"WHERE p NOT IN (SELECT p FROM {vw})",
            ]
            matched = f"EXISTS (SELECT 1 FROM {put_wide})"
            own_cols = tv.schema.column_names
            statements.append(delete_row(own_plus, key, guard=matched))
            statements.append(
                upsert_row(
                    own_plus,
                    own_cols,
                    key,
                    [f"NEW.{q(c)}" for c in own_cols],
                    guard=f"NOT {matched}",
                    plain_table=True,
                )
            )
            statements += other_plus_recompute()
        return statements

    def _write(self, tv, op, apply_data):
        wide_tv, *_ = self._parts()
        if tv is wide_tv:
            return self._wide_write(op, apply_data)
        return self._narrow_write(tv, op, apply_data)

    # -- repair ------------------------------------------------------------

    def repair_statements(self) -> list[str]:
        wide_tv, s_tv, t_tv, s_payload, t_payload, _c = self._parts()
        vw, vs, vt = self.ctx.view(wide_tv), self.ctx.view(s_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        scratch = self._scratch()
        if not self._wide_stored_ward():
            # Pair-keyed: every matching, non-suppressed pair gets a wide id.
            rminus = self.ctx.aux_ref(self.smo, "Rminus")
            cond = self._cond(
                self._alias_refs(s_payload, "s"), self._alias_refs(t_payload, "t")
            )
            return [
                f"DELETE FROM {scratch}",
                f"INSERT INTO {scratch} (p, a, b, rnk) "
                f"SELECT 1000000 + ROW_NUMBER() OVER (ORDER BY s.p, t.p), s.p, t.p, "
                f"ROW_NUMBER() OVER (ORDER BY s.p, t.p) "
                f"FROM {vs} s, {vt} t WHERE {cond} "
                f"AND NOT EXISTS (SELECT 1 FROM {id_table} i "
                f"WHERE i.s IS s.p AND i.t IS t.p) "
                f"AND NOT EXISTS (SELECT 1 FROM {rminus} m "
                f"WHERE m.s IS s.p AND m.t IS t.p)",
                f"INSERT INTO {id_table} (p, s, t) "
                f"SELECT {seq_value(GLOBAL_SEQUENCE)} + rnk, a, b FROM {scratch}",
                f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
                f"COALESCE((SELECT MAX(rnk) FROM {scratch}), 0) "
                f"WHERE name = '{GLOBAL_SEQUENCE}'",
            ]
        # Wide-keyed: every wide row gets recorded (s, t) identifiers,
        # reusing by payload (first-encounter order) before allocating.
        def group_match(payload):
            return payload_match(
                [f"w2.{q(c)}" for c in payload], [f"w.{q(c)}" for c in payload]
            )

        missing = f"w.p NOT IN (SELECT p FROM {id_table})"
        statements = [
            f"DELETE FROM {scratch}",
            f"INSERT INTO {scratch} (p, a, b, rnk, rnk2) SELECT w.p, "
            f"(SELECT MIN(i.s) FROM {id_table} i JOIN {vw} w2 ON w2.p = i.p "
            f"WHERE {group_match(s_payload)}), "
            f"(SELECT MIN(i.t) FROM {id_table} i JOIN {vw} w2 ON w2.p = i.p "
            f"WHERE {group_match(t_payload)}), "
            f"DENSE_RANK() OVER (ORDER BY (SELECT MIN(w2.p) FROM {vw} w2 "
            f"WHERE {group_match(s_payload)})), "
            f"DENSE_RANK() OVER (ORDER BY (SELECT MIN(w2.p) FROM {vw} w2 "
            f"WHERE {group_match(t_payload)})) "
            f"FROM {vw} w WHERE {missing}",
            f"UPDATE {scratch} SET a = {seq_value(GLOBAL_SEQUENCE)} + rnk "
            f"WHERE a IS NULL",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
            f"UPDATE {scratch} SET b = {seq_value(GLOBAL_SEQUENCE)} + rnk2 "
            f"WHERE b IS NULL",
            f"UPDATE {emit.SEQUENCES_TABLE} SET value = value + "
            f"COALESCE((SELECT MAX(rnk2) FROM {scratch}), 0) "
            f"WHERE name = '{GLOBAL_SEQUENCE}'",
            f"INSERT OR REPLACE INTO {id_table} (p, s, t) "
            f"SELECT p, a, b FROM {scratch}",
        ]
        return statements

    def stored_role_selects(self, will_materialize: bool) -> dict[str, str]:
        wide_tv, s_tv, t_tv, s_payload, t_payload, _c = self._parts()
        vw, vs, vt = self.ctx.view(wide_tv), self.ctx.view(s_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        decompose = isinstance(self.sem, DecomposeCondSemantics)
        wants_rminus = will_materialize if decompose else not will_materialize
        cond = self._cond(
            self._alias_refs(s_payload, "s"), self._alias_refs(t_payload, "t")
        )
        if wants_rminus:
            return {
                "Rminus": (
                    f"SELECT ROW_NUMBER() OVER (ORDER BY s.p, t.p) AS p, "
                    f"s.p AS s, t.p AS t FROM {vs} s, {vt} t WHERE {cond} "
                    f"AND NOT EXISTS (SELECT 1 FROM {id_table} i "
                    f"JOIN {vw} w ON w.p = i.p WHERE i.s IS s.p AND i.t IS t.p)"
                )
            }
        s_cols = ", ".join(f"s.{q(c)}" for c in s_tv.schema.column_names)
        t_cols = ", ".join(f"t.{q(c)}" for c in t_tv.schema.column_names)
        return {
            "Splus": (
                f"SELECT s.p AS p, {s_cols} FROM {vs} s WHERE NOT EXISTS "
                f"(SELECT 1 FROM {vt} t WHERE {cond})"
            ),
            "Tplus": (
                f"SELECT t.p AS p, {t_cols} FROM {vt} t WHERE NOT EXISTS "
                f"(SELECT 1 FROM {vs} s WHERE {cond})"
            ),
        }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_HANDLERS = {
    DropTableSemantics: DropTableHandler,
    RenameTableSemantics: IdentityHandler,
    RenameColumnSemantics: IdentityHandler,
    AddColumnSemantics: ColumnHandler,
    DropColumnSemantics: ColumnHandler,
    DecomposePkSemantics: VerticalHandler,
    OuterJoinPkSemantics: VerticalHandler,
    InnerJoinPkSemantics: InnerJoinPkHandler,
    SplitSemantics: PartitionHandler,
    MergeSemantics: PartitionHandler,
    DecomposeFkSemantics: FkHandler,
    OuterJoinFkSemantics: FkHandler,
    DecomposeCondSemantics: CondHandler,
    InnerJoinCondSemantics: CondHandler,
}


def handler_for(ctx: HandlerContext, smo: SmoInstance) -> SmoHandler:
    if isinstance(smo.semantics, CreateTableSemantics) or smo.is_initial:
        raise BackendError(f"initial SMO {smo!r} generates no delta code")
    try:
        cls = _HANDLERS[type(smo.semantics)]
    except KeyError:
        raise BackendError(
            f"no SQL handler for SMO semantics {type(smo.semantics).__name__}"
        ) from None
    return cls(ctx, smo)


def has_shared_aux(smo: SmoInstance) -> bool:
    return bool(smo.semantics is not None and smo.semantics.aux_shared())
