"""MATERIALIZE as one move: its plan, and the SQL of its phases.

Every ``MATERIALIZE`` plans the table versions that gain a physical data
table (:func:`build_plan`) and ends in one cutover transaction that
applies the difference between the physical layout before and after the
move (:func:`cutover_statements`) — what is not staged yet is staged
under its final name, what leaves the layout is dropped — and
regenerates the delta code.  The *offline* schedule is prepare + cutover
under one hold of the engine's catalog write lock: no capture machinery,
no journal, no chunk — every table is copied whole at cutover.  The
*online* schedule (``MATERIALIZE ONLINE``) adds, before the cutover:

1. **prepare** (a brief write-lock window, one transaction) — the empty
   staging tables of the tables the move can track, a change-capture
   table (``_repro_backfill_dirty``), ``AFTER INSERT/UPDATE/DELETE``
   capture triggers on every physical table the moved views read from,
   and the move journaled in ``_repro_catalog_backfill``;
2. **chunks** (each one transaction under the read side of the RWLock) —
   keyset-paginated copies from the live views, the journal cursor
   advanced in the same transaction.  Writes keep flowing: the capture
   triggers record every touched row identifier and each chunk repairs
   the staged rows they name, so staging is never more than one chunk
   stale.  The cutover then copies the keyset tail, drains the capture
   table, verifies counts, tears the capture machinery down and renames
   the staging tables, journaled under transitional names, into place.

**Trackability.**  Incremental repair keys staged rows by the row
identifier ``p``.  That is sound exactly when the moved view *preserves*
identifiers — no SMO on its storage route generates fresh ones (shared
ID auxiliary tables, :func:`~repro.backend.handlers.has_shared_aux`).
Targets routed through an identifier-generating SMO are planned as
non-trackable: they skip the chunks and are copied whole at cutover,
like every table of an offline move.  Auxiliary tables the move adds to
the layout are always derived at cutover
(:func:`repro.backend.codegen.migration_statements`).

All transitional objects are named ``_repro_bf…`` /
``_repro_backfill_dirty`` so :func:`codegen.generated_object_names`
(``v%`` / ``tg__%``) never drops them with the delta code, and the
static verifier can bound them against the journal (RPC107).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.backend.emit import filled_table, q, qcols, table_ddl
from repro.backend.handlers import has_shared_aux
from repro.catalog.materialization import physical_layout, physical_table_versions
from repro.errors import CatalogError
from repro.util.naming import physical_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import SmoInstance
    from repro.core.engine import InVerDa

#: Rows copied per backfill chunk transaction unless overridden.
DEFAULT_CHUNK_ROWS = 4096

#: Name prefix shared by every transitional backfill object.
TRANSITIONAL_PREFIX = "_repro_bf"

#: The single change-capture table (row identifiers touched by live
#: writes during a backfill, in arrival order).
DIRTY_TABLE = "_repro_backfill_dirty"

_CAPTURE_OPS = ("INSERT", "UPDATE", "DELETE")


def is_transitional(name: str) -> bool:
    """Is ``name`` an online-backfill object (staging table, capture
    trigger, or the dirty table)?"""
    return name.startswith(TRANSITIONAL_PREFIX) or name == DIRTY_TABLE


def capture_trigger_name(table: str, op: str) -> str:
    return physical_name(TRANSITIONAL_PREFIX, "cap", table, op.lower())


@dataclass
class TableMove:
    """One table version that gains a physical data table in the move."""

    uid: int
    name: str
    data: str  # final physical data table name
    stage: str  # backfill staging table
    view: str  # the live view serving the table version's extent
    columns: list[str]
    trackable: bool


@dataclass
class MovePlan:
    """Everything the backfill needs, reconstructible from the journal."""

    smos: list[int]  # sorted target SMO uids (the materialization schema)
    tables: list[TableMove]
    sources: list[str]  # physical tables carrying capture triggers

    def trackable(self) -> list[TableMove]:
        return [move for move in self.tables if move.trackable]

    def transitional_names(self) -> set[str]:
        names = {DIRTY_TABLE}
        names.update(move.stage for move in self.trackable())
        for table in self.sources:
            for op in _CAPTURE_OPS:
                names.add(capture_trigger_name(table, op))
        return names


@dataclass
class Move:
    """One move in progress; it lives only inside the call that runs it.

    ``cursors`` holds the tables the chunks copy (staging table -> highest
    identifier copied); every other table of the plan is copied whole at
    cutover — all of them for an offline move."""

    plan: MovePlan
    online: bool = False  # capture machinery and a journal are installed
    chunk_rows: int = DEFAULT_CHUNK_ROWS
    cursors: dict[str, int] = field(default_factory=dict)
    chunks: int = 0
    rows: int = 0


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def build_plan(engine: "InVerDa", schema: frozenset["SmoInstance"]) -> MovePlan:
    """Plan the move of the physical representation to ``schema`` from
    the *current* catalog state (deterministic: the same catalog and
    target always plan the same object names, which is what lets a
    resumed move pick up a journaled plan).

    A table version physical now is not planned: its extent does not
    depend on the materialization, so its data table stays.  A target's
    SMOs and physical sources are those on the views the code generator
    installs for it — siblings included, so they over-approximate what the
    view touches (conservative for trackability and capture coverage)."""
    from repro.backend import codegen

    tables: list[TableMove] = []
    sources: set[str] = set()
    for tv in physical_table_versions(engine.genealogy, schema):
        if engine.database.has_table(tv.data_table_name):
            continue
        walked = codegen.active_table_versions(engine, [tv])
        routes = [codegen.route_for(engine, t) for t in walked]
        smos = {route[0] for route in routes if route is not None}
        trackable = not any(has_shared_aux(smo) for smo in smos)
        if trackable:
            for t, route in zip(walked, routes):
                if route is None:
                    sources.add(t.data_table_name)
            for smo in smos:
                sources.update(
                    name for name in smo.aux_table_names() if engine.database.has_table(name)
                )
        tables.append(
            TableMove(
                uid=tv.uid,
                name=tv.name,
                data=tv.data_table_name,
                stage=physical_name(TRANSITIONAL_PREFIX, str(tv.uid), tv.name),
                view=tv.view_name,
                columns=list(tv.schema.column_names),
                trackable=trackable,
            )
        )
    return MovePlan(
        smos=sorted(smo.uid for smo in schema),
        tables=tables,
        sources=sorted(sources),
    )


def plan_payload(plan: MovePlan) -> dict:
    """The journal serialization of a plan."""
    return {
        "smos": plan.smos,
        "sources": plan.sources,
        "tables": [
            {
                "uid": move.uid,
                "name": move.name,
                "data": move.data,
                "stage": move.stage,
                "view": move.view,
                "columns": move.columns,
                "trackable": move.trackable,
            }
            for move in plan.tables
        ],
    }


def plan_from_payload(payload: dict) -> MovePlan:
    try:
        return MovePlan(
            smos=[int(uid) for uid in payload["smos"]],
            tables=[
                TableMove(
                    uid=int(entry["uid"]),
                    name=entry["name"],
                    data=entry["data"],
                    stage=entry["stage"],
                    view=entry["view"],
                    columns=list(entry["columns"]),
                    trackable=bool(entry["trackable"]),
                )
                for entry in payload["tables"]
            ],
            sources=list(payload["sources"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"corrupt backfill journal plan: {exc}") from exc


# ---------------------------------------------------------------------------
# Prepare
# ---------------------------------------------------------------------------


def prepare_statements(plan: MovePlan) -> list[str]:
    """DDL installing the capture machinery and empty staging tables."""
    statements = [
        f"DROP TABLE IF EXISTS {q(DIRTY_TABLE)}",
        f"CREATE TABLE {q(DIRTY_TABLE)} "
        "(seq INTEGER PRIMARY KEY, p INTEGER NOT NULL)",
    ]
    for move in plan.trackable():
        statements.append(f"DROP TABLE IF EXISTS {q(move.stage)}")
        statements.append(table_ddl(move.stage, move.columns))
    record = f"INSERT INTO {q(DIRTY_TABLE)} (p) VALUES"
    for table in plan.sources:
        for op in _CAPTURE_OPS:
            rows = {"INSERT": ["NEW"], "DELETE": ["OLD"], "UPDATE": ["NEW", "OLD"]}[op]
            body = " ".join(f"{record} ({var}.p);" for var in rows)
            statements.append(
                f"CREATE TRIGGER IF NOT EXISTS "
                f"{q(capture_trigger_name(table, op))} AFTER {op} ON {q(table)} "
                f"BEGIN {body} END"
            )
    return statements


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------


def copy_sql(move: TableMove, cursor: int, limit: int | None = None) -> str:
    """Copy the view's rows past ``cursor`` into the staging table: all
    (the cutover's tail), or the next keyset page of ``limit`` (a chunk)."""
    columns = ", ".join(["p", *qcols(move.columns)])
    sql = (
        f"INSERT INTO {q(move.stage)} ({columns}) "
        f"SELECT {columns} FROM {q(move.view)} WHERE p > {int(cursor)}"
    )
    return sql if limit is None else f"{sql} ORDER BY p LIMIT {int(limit)}"


def staged_max_sql(move: TableMove) -> str:
    return f"SELECT MAX(p) FROM {q(move.stage)}"


def dirty_bound_sql() -> str:
    return f"SELECT COALESCE(MAX(seq), 0) FROM {q(DIRTY_TABLE)}"


def repair_statements(
    plan: MovePlan, cursors: dict[str, int], bound: int, *, final: bool = False
) -> list[str]:
    """Re-derive every staged row whose identifier the capture triggers
    recorded up to ``bound``, then forget those capture rows.  Bounded to
    the chunk cursor during the backfill (rows beyond it arrive with a
    later chunk); unbounded at cutover (``final=True``)."""
    dirty = f"SELECT p FROM {q(DIRTY_TABLE)} WHERE seq <= {int(bound)}"
    statements: list[str] = []
    for move in plan.trackable():
        fence = "" if final else f" AND p <= {int(cursors.get(move.stage, 0))}"
        columns = ", ".join(["p", *qcols(move.columns)])
        statements.append(
            f"DELETE FROM {q(move.stage)} WHERE p IN ({dirty})"
        )
        statements.append(
            f"INSERT INTO {q(move.stage)} ({columns}) "
            f"SELECT {columns} FROM {q(move.view)} WHERE p IN ({dirty}){fence}"
        )
    statements.append(f"DELETE FROM {q(DIRTY_TABLE)} WHERE seq <= {int(bound)}")
    return statements


# ---------------------------------------------------------------------------
# Cutover
# ---------------------------------------------------------------------------


def cutover_statements(
    engine: "InVerDa", schema: frozenset["SmoInstance"], move: Move
) -> tuple[list[str], list[str]]:
    """``(stage, swap)`` of ``move``'s cutover to ``schema``: from the
    layout the engine holds to :func:`physical_layout` of ``schema``.
    Stage statements, against the old views, create every new data table
    no chunk copied and every new aux table
    (:func:`repro.backend.codegen.migration_statements`); swap statements
    drop the tables leaving the layout and rename the chunk-copied ones
    into place.  A table both layouts name stays as it is."""
    from repro.backend import codegen

    layout, tables = physical_layout(engine.genealogy, schema), engine.database.tables
    created = {name: spec for name, spec in layout.items() if name not in tables}
    stage = stage_statements([t for t in move.plan.tables if t.stage not in move.cursors])
    stage += codegen.migration_statements(engine, schema, created)
    swap = [f"DROP TABLE IF EXISTS {q(name)}" for name in tables if name not in layout]
    return stage, swap + rename_statements(move)


def stage_statements(tables: list[TableMove]) -> list[str]:
    """Stage ``tables`` whole from their views under their final names."""
    statements: list[str] = []
    for move in tables:
        columns = ", ".join(["p", *qcols(move.columns)])
        statements += filled_table(
            move.data, move.columns, f"SELECT {columns} FROM {q(move.view)}"
        )
    return statements


def rename_statements(move: Move) -> list[str]:
    """Rename each table the chunks copied into place, by the journaled
    plan.  The drop matters only where that plan lists a table version
    physical already (an older release's): the staged copy replaces it."""
    statements: list[str] = []
    for table in move.plan.tables:
        if table.stage in move.cursors:
            statements += [
                f"DROP TABLE IF EXISTS {q(table.data)}",
                f"ALTER TABLE {q(table.stage)} RENAME TO {q(table.data)}",
            ]
    return statements


def count_check_sql(move: TableMove) -> tuple[str, str]:
    return (
        f"SELECT COUNT(*) FROM {q(move.stage)}",
        f"SELECT COUNT(*) FROM {q(move.view)}",
    )


def capture_teardown_statements(plan: MovePlan) -> list[str]:
    """Drop the capture triggers and the dirty table (staging tables are
    renamed into place at cutover, or dropped by ``rollback``)."""
    statements = []
    for table in plan.sources:
        for op in _CAPTURE_OPS:
            statements.append(
                f"DROP TRIGGER IF EXISTS {q(capture_trigger_name(table, op))}"
            )
    statements.append(f"DROP TABLE IF EXISTS {q(DIRTY_TABLE)}")
    return statements


def rollback_statements(plan: MovePlan) -> list[str]:
    """Undo the prepare entirely: capture machinery and staging."""
    statements = capture_teardown_statements(plan)
    for move in plan.trackable():
        statements.append(f"DROP TABLE IF EXISTS {q(move.stage)}")
    return statements
