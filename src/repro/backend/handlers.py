"""Per-SMO compilation of bidirectional mappings into SQLite delta code.

Each handler knows how to render, for one SMO instance under the current
materialization,

- the ``SELECT`` body of a derived table version's view (reads), rendered
  from the SMO's instantiated Datalog rule sets, and
- the statement list of its ``INSTEAD OF`` trigger programs (writes),

mirroring the engine's lens put (``SmoSemantics.put``): a key-local SMO's
program is its rule set re-derived at the written row's key, as the
engine's keyed put evaluates it; the FK SMOs follow the same recorded-id /
payload-reuse / fresh-allocation decision procedure in key-local programs;
a condition DECOMPOSE/JOIN write is the engine's whole-extent put, one
staged program whose stored side comes from the SMO's rule set.
Identifiers are drawn from the backend's sequence table.  The rules read
the identifiers the ID table records; allocating them is all the
identifier-generating handlers add to their rules.

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
    #: program with its row bound, or ``None`` unless that program runs in
    #: place of the hop (:meth:`repro.backend.codegen.Renderer.row_program`).
    inline: Callable[..., list[str] | None] = _never

    def view(self, tv: TableVersion) -> str:
        return tv.view_name

    def probe(self, tv: TableVersion) -> str:
        """What a key probe of ``tv`` reads: a physical table version's data
        table, which holds the rows of its pass-through view without the
        view SQLite would expand on every prepare; else ``tv``'s view."""
        if self.engine._is_physical(tv):
            return q(tv.data_table_name)
        return self.view(tv)

    def upsert(
        self, tv: TableVersion, key: str, row: Sequence[str],
        guard: str | None = None, source: str | None = None,
    ) -> list[str]:
        """Upsert ``row`` (one value per column of ``tv``, reading the
        ``FROM`` item ``source`` if given) under ``key`` when ``guard``
        holds: ``tv``'s own program with the row substituted for ``NEW``
        and the guards conjoined where it runs in place (:attr:`inline`),
        else the ``INSERT`` into its view that fires it.  Every value is a
        reference, a literal or parenthesized, so it substitutes as an
        operand."""
        inlined = self.inline(tv, "UPSERT", key, row, guard, source)
        if inlined is not None:
            return inlined
        return [upsert_row(
            self.view(tv), tv.schema.column_names, key, row, guard=guard, source=source
        )]

    def delete(self, tv: TableVersion, key: str, guard: str | None = None) -> list[str]:
        """Delete ``key`` from ``tv`` when ``guard`` holds: ``tv``'s own
        program where it runs in place (:attr:`inline`), else the
        ``DELETE`` from its view that fires it."""
        inlined = self.inline(tv, "DELETE", key, (), guard, None)
        if inlined is not None:
            return inlined
        return [delete_row(self.view(tv), key, guard=guard)]

    def aux_ref(self, smo: SmoInstance, role: str) -> str:
        """Table reference for an aux role: its physical table when the
        physical layout stores it, an empty relation otherwise."""
        name = smo.aux_table_name(role)
        if self.engine.database.has_table(name):
            return name
        schema = next(
            side[role] for side in smo.semantics.aux_tables.values() if role in side
        )
        return empty_relation(schema.column_names)


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


def _sql(guard: Guard) -> str | None:
    """A guard that does not fold to false as SQL, ``None`` for true."""
    assert guard is not False
    return None if guard is True else guard


def _within(source: str | None, guard: Guard) -> Guard:
    """``guard`` of a row read from the ``FROM`` item ``source`` (if any),
    as a statement without that item tests it: whether ``source`` has a
    row for which it holds."""
    if source is None or guard is False:
        return guard
    where = "" if guard is True else f" WHERE {guard}"
    return f"EXISTS (SELECT 1 FROM {source}{where})"


def _guarded(guard: Guard, build, *args, **kwargs) -> list[str]:
    """The statement(s) ``build(*args, guard=guard, **kwargs)``: none when
    the guard folds to false, no ``WHERE`` when it folds to true."""
    if guard is False:
        return []
    built = build(*args, guard=None if guard is True else guard, **kwargs)
    return [built] if isinstance(built, str) else built


class _PartitionRow(NamedTuple):
    """One partition's row as a partition write program sees it."""

    exists: Guard
    refs: dict[str, str]  # column -> reference, valid with source in FROM
    source: str | None  # FROM item of its snapshot; None when folded to NEW


class SmoHandler:
    """Base: compile one SMO instance's delta code; its views come from
    the SMO's instantiated Datalog rule sets."""

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

    def _rule_args(
        self, head: TableVersion | None = None, staged: dict[str, str] | None = None
    ) -> dict:
        """The rule renderer's keyword arguments in the current state: role
        -> SQL reference (data roles resolved to views, aux roles to
        stored-or-empty, a role ``staged`` to its staging table), role ->
        payload columns, role -> what a key probe of a data role reads
        (:meth:`HandlerContext.probe`), and ``head``'s columns when given."""
        names: dict[str, str] = {}
        columns: dict[str, tuple[str, ...]] = {}
        probes: dict[str, str] = {}
        for role, tv in (
            *zip(self.sem.source_roles, self.smo.sources),
            *zip(self.sem.target_roles, self.smo.targets),
        ):
            names[role] = self.ctx.view(tv)
            columns[role] = tv.schema.column_names
            probes[role] = self.ctx.probe(tv)
        for side in self.sem.aux_tables.values():
            for role, schema in side.items():
                names[role] = self.ctx.aux_ref(self.smo, role)
                columns[role] = schema.column_names
        for role, table in (staged or {}).items():
            names[role] = probes[role] = table
        args = {"table_names": names, "table_columns": columns, "probe_names": probes}
        if head is not None:
            args["head_columns"] = head.schema.column_names
        return args

    # -- API ---------------------------------------------------------------

    def view_rules(self, tv: TableVersion):
        """The rule set deriving ``tv`` from the far side."""
        if self.side_of(tv) == "source":
            return self.sem.gamma_src_rules()
        return self.sem.gamma_tgt_rules()

    def view_select(self, tv: TableVersion) -> str:
        """SELECT body deriving ``tv``'s visible extent from the far side
        (the nested, one-view-per-hop form)."""
        return select_sql_for_rules(self.role_of(tv), self.view_rules(tv), **self._rule_args(tv))

    def view_branches(self, tv: TableVersion):
        """Structured UNION branches of :meth:`view_select`, for the view
        composer."""
        return branches_for_rules(self.role_of(tv), self.view_rules(tv), **self._rule_args(tv))

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
        :meth:`row_write` over the trigger's row."""
        return self.row_write(tv, op, *own_row(tv, op), None, None)

    def row_write(
        self,
        tv: TableVersion,
        op: str,
        key: str,
        values: Sequence[str],
        guard: str | None,
        source: str | None,
    ) -> list[str] | None:
        """``tv``'s ``op`` program when it is row-local — statements reading
        nothing but its row, literals and what they write themselves,
        writing no row snapshot and, for a delete, changing nothing at a
        key ``tv`` lacks — rendered for the row ``key`` / ``values`` (none
        for a delete; reading ``source`` if given) under ``guard``;
        ``None`` when the program is more (default)."""
        return None

    def repair_statements(self) -> list[str]:
        """Idempotent extent-level upkeep of shared aux tables (default:
        none)."""
        return []

    def role_select(
        self, role: str, rules, columns: tuple[str, ...], staged: dict[str, str] | None = None
    ) -> str:
        """SELECT deriving the stored rows (``p`` then ``columns``) of
        ``role`` by ``rules``, reading the roles ``staged`` from their
        staging tables (:meth:`_rule_args`)."""
        return select_sql_for_rules(
            role, rules, **self._rule_args(staged=staged), head_columns=columns
        )

    def stored_role_selects(self, will_materialize: bool) -> dict[str, str]:
        """Migration: SELECT statements deriving the contents of each side
        aux table of the *newly stored* side, reading pre-migration views."""
        rules = (
            self.sem.gamma_tgt_rules() if will_materialize else self.sem.gamma_src_rules()
        )
        side_aux = self.sem.aux_tgt() if will_materialize else self.sem.aux_src()
        return {
            role: self.role_select(role, rules, schema.column_names)
            for role, schema in side_aux.items()
        }

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        """Scratch/staging tables the programs of :meth:`write_statements`
        and :meth:`repair_statements` name under the current
        materialization (name -> payload columns; every table also carries
        the ``p`` key).  Default: none."""
        return {}

    def probe_indexes(self) -> list[tuple[str, tuple[str, ...]]]:
        """Physical tables this SMO's programs look rows up in by columns
        other than the key, with those columns, under the current
        materialization.  Default: none."""
        return []

    def _row_puts(self, tvs: Sequence[TableVersion]) -> dict[str, tuple[str, ...]]:
        """One row-snapshot staging table per table version, keyed by role."""
        return {
            self.smo.put_table_name(self.role_of(tv)): tv.schema.column_names
            for tv in tvs
        }


# ---------------------------------------------------------------------------
# Structurally trivial SMOs
# ---------------------------------------------------------------------------


class DropTableHandler(SmoHandler):
    """DROP TABLE: identity between the retired table and its aux home."""

    def row_write(self, tv, op, key, values, guard, source):
        aux = self.smo.aux_table_name("R_retired")
        if op == "DELETE":
            return [delete_row(aux, key, guard=guard)]
        return [upsert_row(
            aux, tv.schema.column_names, key, values,
            guard=guard, source=source, plain_table=True,
        )]


class IdentityHandler(SmoHandler):
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


class ColumnHandler(SmoHandler):
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
        column = self.sem.node.column
        if tv is not narrow_tv:
            # The wide row is the narrow row plus its column, kept in B.
            aux = self.smo.aux_table_name("B")
            if op == "DELETE":
                # B may hold a key the wide view lacks (a delete at the
                # narrow side leaves its B row): its row goes only with a
                # narrow row, so it is deleted first.
                held = f"EXISTS (SELECT 1 FROM {self.ctx.probe(narrow_tv)} n WHERE n.p IS {key})"
                return [
                    delete_row(aux, key, guard=_sql(_all(held, guard or True))),
                    *self.ctx.delete(narrow_tv, key, guard),
                ]
            row = dict(zip(wide_tv.schema.column_names, values))
            return [
                *self.ctx.upsert(
                    narrow_tv, key, [row[c] for c in narrow_tv.schema.column_names],
                    guard, source,
                ),
                upsert_row(
                    aux, (column,), key, [row[column]],
                    guard=guard, source=source, plain_table=True,
                ),
            ]
        if op == "DELETE":
            return self.ctx.delete(wide_tv, key, guard)
        row = dict(zip(narrow_tv.schema.column_names, values))
        computed = render_expression(function, row)
        wide_values = [
            computed if c == column else row[c] for c in wide_tv.schema.column_names
        ]
        return self.ctx.upsert(wide_tv, key, wide_values, guard, source)


# ---------------------------------------------------------------------------
# Key-preserving vertical SMOs (DECOMPOSE/OUTER JOIN/JOIN ON PK)
# ---------------------------------------------------------------------------


class VerticalHandler(SmoHandler):
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

    def _parts(self):
        """((first_tv, its columns), (second_tv, its columns)), each part's
        columns named as in the wide table."""
        lens = self.sem._lens
        wide_cols = lens.wide_schema.column_names
        _wide_tv, first_tv, second_tv = self._tvs()
        return (
            (first_tv, tuple(wide_cols[i] for i in lens.first_indices)),
            (second_tv, tuple(wide_cols[i] for i in lens.second_indices)),
        )

    def _write(self, tv, op, apply_data):
        wide_tv, first_tv, _second_tv = self._tvs()
        if tv is wide_tv:
            return super()._write(tv, op, apply_data)
        parts = self._parts()
        (_own_tv, own), (other_tv, other_cols) = parts if tv is first_tv else parts[::-1]
        return self._combine_write(
            wide_tv,
            own,
            self.ctx.view(other_tv),
            other_cols,
            self.smo.put_table_name(self.role_of(other_tv)),
            op,
        )

    def row_write(self, tv, op, key, values, guard, source):
        wide_tv, first_tv, second_tv = self._tvs()
        if tv is not wide_tv:
            return None
        if op == "DELETE":
            # Both parts lose the key, and the wide view is their outer
            # join: it holds every key they hold.
            return self.ctx.delete(first_tv, key, guard) + self.ctx.delete(second_tv, key, guard)
        # An upsert projects both parts, suppressing all-null (omega) parts.
        row = dict(zip(wide_tv.schema.column_names, values))
        statements = []
        for part_tv, columns in self._parts():
            refs = [row[c] for c in columns]
            statements += self.ctx.delete(
                part_tv, key, _sql(_within(source, _all(all_null(refs), guard or True)))
            )
            statements += self.ctx.upsert(
                part_tv, key, refs, _sql(_all(not_all_null(refs), guard or True)), source
            )
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
                *self.ctx.upsert(wide_tv, key, [row[c] for c in wide], source=f"{put_other} o"),
                *self.ctx.delete(wide_tv, key, f"NOT {snapshot_exists(put_other)}"),
            ]
        row = {c: f"(SELECT {q(c)} FROM {put_other})" for c in other_cols}
        row.update(new_refs(own_cols))
        return statements + self.ctx.upsert(wide_tv, key, [row[c] for c in wide])


class InnerJoinPkHandler(SmoHandler):
    """JOIN ON PK with the Rplus/Splus preservation aux tables."""

    def put_tables(self):
        # The forward program snapshots the other source's current row.
        sources = self.smo.sources
        return self._row_puts(sources) if self.routed_here(sources[0]) else {}

    def row_write(self, tv, op, key, values, guard, source):
        # Backward (virtualized), an upsert splits the joined row into both
        # parts.  A delete is not row-local: one part may hold a key the
        # joined view lacks.
        if self.side_of(tv) != "target" or op == "DELETE":
            return None
        row = dict(zip(tv.schema.column_names, values))
        return [
            statement
            for part_tv in self.smo.sources
            for statement in self.ctx.upsert(
                part_tv, key, [row[c] for c in part_tv.schema.column_names], guard, source
            )
        ]

    def _write(self, tv, op, apply_data):
        first_tv, second_tv = self.smo.sources
        joined_tv = self.smo.targets[0]
        if self.side_of(tv) == "target":
            if op == "DELETE":
                return self.ctx.delete(first_tv, "OLD.p") + self.ctx.delete(second_tv, "OLD.p")
            return super()._write(tv, op, apply_data)
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
            statements += [*self.ctx.delete(joined_tv, key), delete_row(own_plus, key)]
            return statements + emit.member_row(
                other_plus, key, True, other_cols, list(other.values()), source=source
            )
        own = new_refs(own_cols)
        joined_values = [{**other, **own}[c] for c in joined_tv.schema.column_names]
        return statements + [
            *self.ctx.upsert(joined_tv, key, joined_values, source=source),
            *self.ctx.delete(joined_tv, key, f"NOT {other_exists}"),
            *emit.member_row(own_plus, key, f"NOT {other_exists}", own_cols, list(own.values())),
            delete_row(other_plus, key),
        ]


# ---------------------------------------------------------------------------
# SPLIT / MERGE (horizontal partitioning)
# ---------------------------------------------------------------------------


class PartitionHandler(SmoHandler):
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

    def row_write(self, tv, op, key, values, guard, source):
        # A delete at the unified table deletes the key from both partitions
        # and Uprime, whose keys are all the unified view holds.
        unified, first, second = self._tvs()
        if op != "DELETE" or tv is not unified:
            return None
        statements = self.ctx.delete(first, key, guard)
        if second is not None:
            statements += self.ctx.delete(second, key, guard)
        uprime = self.smo.aux_table_name(self._lens().roles.uprime)
        return statements + [delete_row(uprime, key, guard=guard)]

    def _to_partitions(self) -> list[str]:
        """Upsert at the unified table; the partitioned side (including its
        Uprime aux) is stored."""
        lens = self._lens()
        _unified, first, second = self._tvs()
        columns = lens.schema.column_names
        uprime = self.smo.aux_table_name(lens.roles.uprime)
        refs = new_refs(columns)
        values = [f"NEW.{q(c)}" for c in columns]
        cr = cond_true(lens.c_first, refs)
        not_cr = cond_not_true(lens.c_first, refs)
        statements = [
            *self.ctx.upsert(first, "NEW.p", values, cr),
            *self.ctx.delete(first, "NEW.p", not_cr),
        ]
        if second is not None and lens.c_second is not None:
            cs = cond_true(lens.c_second, refs)
            not_cs = cond_not_true(lens.c_second, refs)
            statements += self.ctx.upsert(second, "NEW.p", values, cs)
            statements += self.ctx.delete(second, "NEW.p", not_cs)
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
        stored.  Mirrors the engine's keyed put from the partitions, with
        its keeper (``_PartitionLens.keeper``).

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
            statements.append(f"DELETE FROM {put}")
            if op != "DELETE" or tv is not first:
                statements.append(
                    f"INSERT INTO {put} SELECT * FROM {self.ctx.view(twin_tv)} WHERE p IS {key}"
                )
            else:
                # R shows the unified row itself, so the row deleted is U's:
                # S's rules read it as U, beside S's marks and Splus.
                def marked(role: str) -> str:
                    return f"EXISTS (SELECT 1 FROM {self.smo.aux_table_name(role)} x WHERE x.p IS OLD.p)"

                old = new_refs(columns, row="OLD")
                statements += [
                    f"INSERT INTO {put} SELECT * "
                    f"FROM {self.smo.aux_table_name(roles.splus)} WHERE p IS OLD.p",
                    f"INSERT INTO {put} SELECT OLD.p, {', '.join(old.values())} "
                    f"WHERE NOT {snapshot_exists(put)} AND (({cond_true(c_second, old)} "
                    f"AND NOT {marked(roles.sminus)}) OR {marked(roles.sstar)})",
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
        # A stored unified row stays put only as gamma_tgt's Uprime: matching
        # neither condition and marked in neither Rstar nor Sstar.  Only a
        # delete leaving neither partition a row gets here, and the partition
        # written showed the row it deleted, by its condition or its mark.
        # At R that row is the unified row, so it goes.  S may have shown its
        # separated twin (Splus) instead, so there the unified row is read;
        # R shows none, so Rstar does not mark it.
        kept: Guard = False
        if tv is not first:
            refs = new_refs(columns, row="d")
            kept = (
                f"EXISTS (SELECT 1 FROM {self.ctx.probe(unified)} d WHERE d.p IS {key} AND "
                f"{cond_not_true(c_first, refs)} AND {cond_not_true(c_second, refs)} AND NOT "
                f"EXISTS (SELECT 1 FROM {self.smo.aux_table_name(roles.sstar)} x WHERE x.p IS {key}))"
            )
        statements += _guarded(
            _all(_not(f_row.exists), _not(s_row.exists), _not(kept)),
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
        if not self.is_unified(tv):
            return self._to_unified(tv, op)
        if op == "DELETE":
            return super()._write(tv, op, apply_data)
        return self._to_partitions()


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
        return self.smo.materialized == isinstance(self.sem, OuterJoinFkSemantics)

    def _id_table(self) -> str:
        return self.smo.aux_table_name("ID")

    def probe_indexes(self):
        # The identifier decision looks T up by payload, through the wide
        # table when T is a view.
        wide_tv, _s_tv, t_tv, _fk, _id_col, _a_cols, b_cols = self._parts()
        return [
            (tv.data_table_name, b_cols)
            for tv in (wide_tv, t_tv)
            if b_cols and self.ctx.engine._is_physical(tv)
        ]

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        # ID is shared aux, so all three table versions carry a program of
        # this SMO (on or off the storage route) in either state.
        _wide_tv, s_tv, t_tv, *_ = self._parts()
        tables = self._row_puts((s_tv, t_tv))
        tables[self.smo.put_table_name("ID")] = ("fk",)
        if self._wide_stored_ward():
            tables[self.smo.put_table_name("scratch")] = SCRATCH_COLUMNS
        return tables

    # -- writes ------------------------------------------------------------

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
                statements += self.ctx.delete(s_tv, "OLD.p")
            statements.append(delete_row(id_table, "OLD.p"))
            return statements
        b_new = [f"NEW.{q(c)}" for c in b_cols]
        b_null = all_null(b_new)
        match_t = payload_match([f"t.{q(c)}" for c in b_cols], b_new)
        if isinstance(self.sem, OuterJoinFkSemantics):
            # Backward writes at the wide table run through the engine's
            # whole-extent put, whose first pass keeps a recorded identifier
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
            # Forward writes take the hand-written Δ: a recorded id
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
            # Generated ids come from the engine's one global sequence.
            *emit.seq_next_statements(emit.ROW_ID_SEQUENCE, guard=unresolved),
            f"UPDATE {put} SET fk = {seq_value(emit.ROW_ID_SEQUENCE)} "
            f"WHERE fk IS NULL AND NOT {b_null}",
            f"INSERT OR REPLACE INTO {id_table} (p, fk) SELECT p, fk FROM {put}",
        ]
        if apply_data:
            # The recorded assignment survives nested trigger invocations
            # (which may clobber the put table); read the id back from ID.
            fk_sql = f"(SELECT fk FROM {id_table} WHERE p IS NEW.p)"
            # T before S: when S's write cascades, its nested shared-aux
            # maintenance probes the T row, which must already exist.  A T
            # row that holds the payload already is left alone: writing it
            # again would fire T's program, which looks up every S row
            # referencing it.
            t_values = [
                fk_sql if c == id_col else f"NEW.{q(c)}"
                for c in t_tv.schema.column_names
            ]
            s_values = [
                fk_sql if c == fk else f"NEW.{q(c)}" for c in s_tv.schema.column_names
            ]
            statements += [
                *self.ctx.upsert(
                    t_tv, fk_sql, t_values,
                    f"{fk_sql} IS NOT NULL AND NOT {b_null} AND NOT EXISTS "
                    f"(SELECT 1 FROM {vt} t WHERE t.p IS {fk_sql} AND {match_t})",
                ),
                *self.ctx.upsert(s_tv, "NEW.p", s_values),
            ]
        return statements

    def _s_write(self, op, apply_data: bool) -> list[str]:
        wide_tv, s_tv, t_tv, fk, id_col, a_cols, b_cols = self._parts()
        vw, vt = self.ctx.view(wide_tv), self.ctx.view(t_tv)
        id_table = self._id_table()
        if op == "DELETE":
            statements = []
            if apply_data:
                statements += self.ctx.delete(wide_tv, "OLD.p")
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
            statements += self.ctx.upsert(wide_tv, "NEW.p", values)
            if isinstance(self.sem, OuterJoinFkSemantics):
                # The engine's whole-extent put regenerates the stored wide table:
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
            statements += self.ctx.upsert(wide_tv, key, values, f"NOT {refs_exist}")
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
        fresh, advance = emit.seq_draw(scratch)
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
            f"INSERT INTO {id_table} (p, fk) SELECT p, {fresh} FROM {scratch}",
            advance,
        ]
        return statements


# ---------------------------------------------------------------------------
# DECOMPOSE / JOIN ON condition
# ---------------------------------------------------------------------------


class CondHandler(SmoHandler):
    """The condition lens: S(id, A) x T(id, B) joined under c(A, B) with
    generated identifiers on both sides, recorded in ID(r -> s, t); Rminus
    suppresses join results deleted through the wide side (Rule 200).

    A write at any of its table versions is one staged put, the engine's
    whole-extent put: stage the written side's post-write extents, record
    identifiers for them (:meth:`_allocate`, which the extent repair
    shares), and on the storage route stage every role of the stored side
    from the rule set deriving that side, then apply them.  Off the route
    the put is its allocation alone; at a narrow table, which then holds
    the data, only the written row's pairs can lack an identifier."""

    def _payloads(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The payload columns of S and of T (their ``id`` columns aside)."""
        lens = self.sem._lens
        return lens.s_schema.column_names[1:], lens.t_schema.column_names[1:]

    def _id_table(self) -> str:
        return self.smo.aux_table_name("ID")

    def _outputs(self) -> list[tuple[str, tuple[str, ...], str]]:
        """``(role, columns, relation written)`` of every role of the side
        data is routed toward, in the order a put applies them: data roles
        (their views), that side's aux tables, then ID."""
        if self.smo.materialized:
            tvs, aux = self.smo.targets, self.sem.aux_tgt()
        else:
            tvs, aux = self.smo.sources, self.sem.aux_src()
        outputs = [(self.role_of(tv), tv.schema.column_names, self.ctx.view(tv)) for tv in tvs]
        for role, schema in (*aux.items(), *self.sem.aux_shared().items()):
            outputs.append((role, schema.column_names, self.smo.aux_table_name(role)))
        return outputs

    def put_tables(self) -> dict[str, tuple[str, ...]]:
        # ID is shared aux, so all three table versions carry a program of
        # this SMO in either state: each stages its own side (but a narrow
        # one holding the data), and the routed ones the stored side too.
        put = self.smo.put_table_name
        stored = self.smo.targets if self.smo.materialized else self.smo.sources
        tables = self._row_puts(
            [
                tv
                for tv in (*self.smo.sources, *self.smo.targets)
                if tv not in stored or self.role_of(tv) == "R"
            ]
        )
        tables[put("scratch")] = SCRATCH_COLUMNS
        for role, columns, _relation in self._outputs():
            tables[put("new_" + role)] = columns
        return tables

    def role_select(self, role, rules, columns, staged=None) -> str:
        select = super().role_select(role, rules, columns, staged)
        if role not in self.sem.numbered_roles:
            return select
        # The rules key Rminus by s; the stored table by a row number.
        return f"SELECT ROW_NUMBER() OVER (ORDER BY s, t) AS p, s, t FROM ({select})"

    # -- writes ------------------------------------------------------------

    def _allocate(self, extents: dict[str, str], old: str | None = None) -> list[str]:
        """Record in ID the identifiers of one side's extents (role ->
        relation: a put's staged written side, the repair's views).

        A matching narrow pair ID lacks and Rminus does not suppress takes
        a fresh wide identifier.  A wide row ID lacks, and the row ``NEW``
        a put writes (``old``: the wide side before the write), take for S
        and for T apart what the lens takes for one changed row
        (:func:`repro.bidel.smo.conditional._narrow_ids`): the one recorded
        for it if the write keeps its payload, else the least one another
        row of the payload records, else the one recorded for it, else a
        fresh one per payload.  The other rows recording the identifier
        ``NEW`` takes under another payload then take the least other one
        recorded for theirs, else a fresh one per payload."""
        id_table = self._id_table()
        scratch = self.smo.put_table_name("scratch")
        if "R" not in extents:
            s_payload, t_payload = self._payloads()
            refs = {
                **{c: f"s.{q(c)}" for c in s_payload},
                **{c: f"t.{q(c)}" for c in t_payload},
            }
            rminus = self.ctx.aux_ref(self.smo, "Rminus")
            fresh, advance = emit.seq_draw(scratch, "p")
            return [
                f"DELETE FROM {scratch}",
                f"INSERT INTO {scratch} (p, a, b) "
                f"SELECT ROW_NUMBER() OVER (ORDER BY s.p, t.p), s.p, t.p "
                f"FROM {extents['S']} s, {extents['T']} t "
                f"WHERE {cond_true(self.sem._lens.condition, refs)} "
                f"AND NOT EXISTS (SELECT 1 FROM {id_table} i "
                f"WHERE i.s IS s.p AND i.t IS t.p) "
                f"AND NOT EXISTS (SELECT 1 FROM {rminus} m "
                f"WHERE m.s IS s.p AND m.t IS t.p)",
                f"INSERT INTO {id_table} (p, s, t) SELECT {fresh}, a, b FROM {scratch}",
                advance,
            ]
        wide = extents["R"]
        payloads = dict(zip("st", self._payloads()))

        def same(alias: str, role: str, other: str = "w") -> str:
            return payload_match(
                [f"{alias}.{q(c)}" for c in payloads[role]],
                [f"{other}.{q(c)}" for c in payloads[role]],
            )

        def own(role: str, test: str = "1") -> str:
            return f"(SELECT i.{role} FROM {id_table} i WHERE i.p = w.p AND {test})"

        def least(role: str, test: str = "1") -> str:
            return (
                f"(SELECT MIN(i2.{role}) FROM {id_table} i2 JOIN {wide} w2 ON w2.p = i2.p "
                f"WHERE w2.p <> w.p AND {same('w2', role)} AND {test})"
            )

        def draw(picks: dict[str, str], rows: str) -> list[str]:
            """Stage ``picks`` (role -> SQL) for ``rows`` of ``wide``, then
            a fresh identifier per payload where a pick is NULL."""
            ranks = [
                f"DENSE_RANK() OVER (ORDER BY "
                f"(SELECT MIN(w2.p) FROM {wide} w2 WHERE {same('w2', role)}))"
                for role in "st"
            ]
            statements = [
                f"INSERT INTO {scratch} (p, a, b, rnk, rnk2) SELECT w.p, "
                f"{', '.join([picks['s'], picks['t'], *ranks])} FROM {wide} w WHERE {rows}"
            ]
            for column, rank in (("a", "rnk"), ("b", "rnk2")):
                fresh, advance = emit.seq_draw(scratch, rank)
                statements += [
                    f"UPDATE {scratch} SET {column} = {fresh} WHERE {column} IS NULL",
                    advance,
                ]
            return statements

        kept = {
            role: f"EXISTS (SELECT 1 FROM {old} o WHERE o.p = w.p AND {same('o', role)})"
            for role in "st"
        }
        statements = [f"DELETE FROM {scratch}"] + draw(
            {
                role: f"COALESCE({own(role, kept[role]) + ', ' if old else ''}"
                f"{least(role)}, {own(role)})"
                for role in "st"
            },
            f"w.p NOT IN (SELECT p FROM {id_table})" + (" OR w.p IS NEW.p" if old else ""),
        )
        if old:
            # The rows NEW shares its identifier with under another payload.
            taken = {col: f"(SELECT {col} FROM {scratch} WHERE p IS NEW.p)" for col in "ab"}
            moved = {
                role: f"(EXISTS (SELECT 1 FROM {id_table} i WHERE i.p = w.p "
                f"AND i.{role} = {taken[col]}) AND NOT ({same('w', role, 'NEW')}))"
                for role, col in (("s", "a"), ("t", "b"))
            }
            statements += draw(
                {
                    role: f"CASE WHEN {moved[role]} "
                    f"THEN {least(role, f'i2.{role} IS NOT {taken[col]}')} ELSE {own(role)} END"
                    for role, col in (("s", "a"), ("t", "b"))
                },
                f"w.p IN (SELECT p FROM {id_table}) AND w.p IS NOT NEW.p "
                f"AND ({moved['s']} OR {moved['t']})",
            )
        return statements + [
            f"INSERT OR REPLACE INTO {id_table} (p, s, t) SELECT p, a, b FROM {scratch}"
        ]

    def _write(self, tv, op, apply_data):
        if not apply_data and self.role_of(tv) != "R":
            # Off the route at a narrow table, the side that holds the data:
            # every other matching pair is recorded or suppressed already,
            # so only the written row's pairs can be new.
            if op == "DELETE":
                return []
            narrow = self.smo.targets if tv in self.smo.targets else self.smo.sources
            extents = {self.role_of(other): self.ctx.view(other) for other in narrow}
            row = ", ".join(
                f"{ref} AS {q(column)}" for column, ref in new_refs(tv.schema.column_names).items()
            )
            extents[self.role_of(tv)] = f"(SELECT NEW.p AS p, {row})"
            return self._allocate(extents)
        key = "OLD.p" if op == "DELETE" else "NEW.p"
        statements, staged = [], {}
        # 1. The written side after the write: the written role is its view
        #    without the key, plus NEW; the other role is its view.
        for side_tv in self.smo.sources if tv in self.smo.sources else self.smo.targets:
            put = staged[self.role_of(side_tv)] = self.smo.put_table_name(self.role_of(side_tv))
            columns = ", ".join(qcols(side_tv.schema.column_names))
            rest = f" WHERE p IS NOT {key}" if side_tv is tv else ""
            statements += [
                f"DELETE FROM {put}",
                f"INSERT INTO {put} SELECT p, {columns} FROM {self.ctx.view(side_tv)}{rest}",
            ]
            if side_tv is tv and op != "DELETE":
                values = ", ".join(new_refs(side_tv.schema.column_names).values())
                statements.append(f"INSERT INTO {put} (p, {columns}) VALUES (NEW.p, {values})")
        # 2. Identifiers for it; ID records the wide rows there are.
        if "R" in staged:
            statements.append(
                f"DELETE FROM {self._id_table()} WHERE p NOT IN (SELECT p FROM {staged['R']})"
            )
        wide = op != "DELETE" and self.role_of(tv) == "R"
        statements += self._allocate(staged, self.ctx.view(tv) if wide else None)
        if not apply_data:
            return statements
        # 3. Every stored-side role from the rules deriving that side, over
        #    the staged side, ID as recorded, the unstored side's aux empty.
        # 4. Applied once all are staged.  Applying fires this SMO's
        #    off-route programs at the stored side, which re-allocate over
        #    half-applied extents: ID goes last, from its staged copy.
        rules = self.sem.gamma_tgt_rules() if self.smo.materialized else self.sem.gamma_src_rules()
        applies = []
        for role, columns, relation in self._outputs():
            new = self.smo.put_table_name("new_" + role)
            if role == "ID":
                select = f"SELECT p, s, t FROM {self._id_table()}"
            else:
                select = self.role_select(role, rules, columns, staged)
            statements += [f"DELETE FROM {new}", f"INSERT INTO {new} {select}"]
            applies += emit.apply_extent(relation, columns, new)
            staged[role] = new
        return statements + applies

    # -- repair ------------------------------------------------------------

    def repair_statements(self) -> list[str]:
        """Identifiers for the stored side's extents (:meth:`_allocate`)."""
        stored = self.smo.targets if self.smo.materialized else self.smo.sources
        return self._allocate({self.role_of(tv): self.ctx.view(tv) for tv in stored})


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
