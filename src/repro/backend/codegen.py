"""Assembling the full delta-code script from the schema version catalog.

For the current materialization this module produces, in dependency order,

1. scaffolding DDL (sequence table, the put/scratch tables the trigger
   programs name),
2. one ``CREATE VIEW`` per table version (physical table versions get a
   pass-through view so that every version is written through the same
   trigger machinery),
3. one ``INSTEAD OF INSERT/UPDATE/DELETE`` trigger triple per view (two
   programs — upsert and delete — the former under INSERT, with UPDATE
   handing its row to it), combining the storage-route propagation program
   with shared-aux maintenance for adjacent off-route SMOs and extent
   repairs for shared aux tables deeper down virtual branches; a write
   into a view whose own program is one row-local statement is that
   statement, so a write crosses one trigger per real hop,

plus the in-place SQL migration script implementing ``MATERIALIZE``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.backend import emit
from repro.backend.compose import ViewComposer
from repro.backend.emit import q, qcols, table_ddl
from repro.backend.handlers import (
    HandlerContext,
    handler_for,
    has_shared_aux,
    own_row,
)
from repro.backend.online import stage_name
from repro.catalog.genealogy import SmoInstance, TableVersion
from repro.catalog.materialization import physical_table_versions
from repro.errors import BackendError
from repro.util.naming import physical_name

#: Revision of the emitted delta-code text, persisted beside the catalog
#: generation the code was generated for.  Bump it whenever this package
#: would emit different SQL for the same catalog: a file stamped
#: otherwise (or not at all) regenerates once on its next open instead of
#: serving the old text until the next transition.
#: 2 = key-disjoint compounds are joined by UNION ALL.
#: 3 = a view upsert is one INSERT; INSERT and UPDATE triggers share a body.
#: 4 = FROM aliases are numbered per view, not across the whole script.
#: 5 = an UPDATE trigger upserts through its own view's INSERT trigger; a
#:     partition write folds the written row into NEW.
#: 6 = a write into a view whose own program is one row-local statement
#:     is that statement (UPDATE triggers included).
#: 7 = a SPLIT's first-partition keeper tests OLD, an aux membership is
#:     a delete plus one guarded insert, a snapshot row is a FROM item.
EMISSION_STAMP = 7

#: The key of an UPDATE trigger's one statement: ``NEW.p``, unless the
#: statement changed the row identifier.
IMMUTABLE_KEY = (
    "CASE WHEN NEW.p IS NOT OLD.p "
    "THEN RAISE(ABORT, 'the row identifier p is immutable') ELSE NEW.p END"
)


def route_for(engine, tv: TableVersion) -> tuple[SmoInstance, str] | None:
    """The SMO through which ``tv``'s reads and writes are routed, or
    ``None`` when the table version is physical (delegates to the engine's
    routing so generated code can never drift from it)."""
    if engine._is_physical(tv):
        return None
    smo = engine._route_smo(tv)
    if smo is None:
        raise BackendError(f"table version {tv!r} has no data route")
    return smo, ("forward" if tv in smo.sources else "backward")


def _adjacent_smos(tv: TableVersion) -> list[SmoInstance]:
    adjacent = [smo for smo in tv.outgoing if not smo.is_initial]
    if tv.incoming is not None and not tv.incoming.is_initial:
        adjacent.append(tv.incoming)
    return adjacent


def _off_route_shared(
    tv: TableVersion, route: SmoInstance | None
) -> tuple[list[SmoInstance], list[SmoInstance]]:
    """(adjacent shared-aux SMOs, deeper shared-aux SMOs) excluding the
    storage route (whose cascade handles its own far side)."""
    adjacent = [smo for smo in _adjacent_smos(tv) if smo is not route]
    adjacent_shared = [smo for smo in adjacent if has_shared_aux(smo)]
    seen = {smo.uid for smo in adjacent}
    if route is not None:
        seen.add(route.uid)
    deep: list[SmoInstance] = []
    frontier: list[SmoInstance] = list(adjacent)
    while frontier:
        smo = frontier.pop()
        for far_tv in (*smo.sources, *smo.targets):
            if far_tv is tv:
                continue
            for nxt in _adjacent_smos(far_tv):
                if nxt.uid in seen:
                    continue
                seen.add(nxt.uid)
                if has_shared_aux(nxt):
                    deep.append(nxt)
                frontier.append(nxt)
    return adjacent_shared, deep


def active_table_versions(engine) -> list[TableVersion]:
    """Every table version reachable from an active schema version, in a
    physical-first dependency order (each view's inputs precede it)."""
    ordered: list[TableVersion] = []
    installed: set[int] = set()

    def install(tv: TableVersion) -> None:
        if tv.uid in installed:
            return
        installed.add(tv.uid)
        route = route_for(engine, tv)
        if route is not None:
            smo, direction = route
            neighbors = smo.targets if direction == "forward" else smo.sources
            for neighbor in neighbors:
                install(neighbor)
            # Identifier-generating SMOs derive a narrow view from the wide
            # view and vice versa; make sure siblings come in too.
            for sibling in (*smo.sources, *smo.targets):
                install(sibling)
        ordered.append(tv)

    for version in engine.genealogy.active_versions():
        for tv in version.tables.values():
            install(tv)
    return ordered


def scaffold_statements(engine) -> list[str]:
    """Idempotent DDL for the sequence table, per-SMO staging tables, and
    indexes over the always-stored ID tables (the trigger programs probe
    them by identifier on every row write)."""
    ctx = HandlerContext(engine)
    statements = [emit.sequences_ddl()]
    for smo in engine.genealogy.evolution_smos():
        if smo.semantics is None:
            continue
        handler = handler_for(ctx, smo)
        for name, columns in handler.put_tables().items():
            statements.append(table_ddl(name, columns))
        for role, schema in smo.semantics.aux_shared().items():
            table = smo.aux_table_name(role)
            for column in schema.column_names:
                index = physical_name("ix", str(smo.uid), role, column)
                statements.append(
                    f"CREATE INDEX IF NOT EXISTS {q(index)} ON {q(table)} ({q(column)})"
                )
    return statements


class Renderer:
    """Renders the delta code one table version at a time and keeps what
    it rendered.

    The table versions it has already rendered are served from its memo,
    which is what makes a catalog transition cost what it changes (the
    live backend keeps one between transitions); the module functions
    :func:`view_definitions` and :func:`trigger_statements` render
    through a fresh one — the memo-less reference.

    The memo is sound between two MATERIALIZEs only: a surviving table
    version's view reads nothing but its route to the physical tables
    (:func:`route_for` — materialization flags plus the physical table
    set), which evolve and drop never change for survivors.  Its triggers
    additionally read :func:`_off_route_shared` of itself and of every
    *hop* — each view a write was offered to (:meth:`row_program`), since
    whether that view's program is one statement, and so inlined, turns
    on those SMOs — so they are remembered under the hops' SMO uids.  A
    MATERIALIZE moves the routes — the holder must start a new
    ``Renderer`` then.
    """

    def __init__(self, engine, *, flatten: bool = True):
        self.engine = engine
        self.ctx = HandlerContext(engine, self.row_program)
        self.composer = ViewComposer() if flatten else None
        self._views: dict[int, tuple[str, str, list | None]] = {}
        self._triggers: dict[int, tuple[list[TableVersion], tuple, list[str]]] = {}
        # Per pass (cleared by active()): uid -> (route SMO, adjacent and
        # deep off-route shared, the hop key of both by uid).
        self._routes: dict[int, tuple] = {}
        self._hops: dict[int, TableVersion] = {}

    def active(self) -> list[TableVersion]:
        """:func:`active_table_versions`, after forgetting every table
        version that left that set."""
        self._routes.clear()
        tvs = active_table_versions(self.engine)
        alive = {tv.uid for tv in tvs}
        for uid in self._views.keys() - alive:
            name, _select, _flat = self._views.pop(uid)
            if self.composer is not None:
                self.composer.forget(name)
        for uid in self._triggers.keys() - alive:
            del self._triggers[uid]
        return tvs

    def view(self, tv: TableVersion) -> tuple[str, str, list | None]:
        """``(view name, SELECT body, composed branches)`` of ``tv``; every
        view it reads must have been rendered before it."""
        definition = self._views.get(tv.uid)
        if definition is None:
            definition = self._views[tv.uid] = self._render_view(tv)
        return definition

    def _render_view(self, tv: TableVersion) -> tuple[str, str, list | None]:
        composer = self.composer
        route = route_for(self.engine, tv)
        flat = None
        if route is None:
            columns = ", ".join(["p", *qcols(tv.schema.column_names)])
            select = f"SELECT {columns} FROM {q(tv.data_table_name)}"
            if composer is not None:
                flat = composer.register_physical(
                    tv.view_name, tv.data_table_name, tv.schema.column_names
                )
            return tv.view_name, select, flat
        handler = handler_for(self.ctx, route[0])
        if composer is not None:
            flat = composer.register(tv.view_name, handler.view_branches(tv))
        # The handler's own (nested) body only where the composer yields
        # none: rendering it costs as much as the branches did.
        select = composer.sql(flat) if flat is not None else handler.view_select(tv)
        return tv.view_name, select, flat

    def _route(self, tv: TableVersion) -> tuple:
        """``(route SMO or None, adjacent shared, deep shared, hop key)``."""
        found = self._routes.get(tv.uid)
        if found is None:
            route = route_for(self.engine, tv)
            smo = route[0] if route is not None else None
            adjacent, deep = _off_route_shared(tv, smo)
            key = (tv.uid, *(smo.uid for smo in adjacent), None, *(smo.uid for smo in deep))
            found = self._routes[tv.uid] = (smo, adjacent, deep, key)
        return found

    def _hop_key(self, hops: list[TableVersion]) -> tuple:
        return tuple(self._route(hop)[3] for hop in hops)

    def row_program(self, tv, op, key, values, guard, source) -> str | None:
        """``tv``'s own ``op`` program bound to a writer's row, when it is
        one row-local statement — no shared-aux upkeep around it, and the
        physical pass-through or a handler's
        :meth:`~repro.backend.handlers.SmoHandler.row_write` — else
        ``None`` (:attr:`HandlerContext.inline`)."""
        self._hops.setdefault(tv.uid, tv)
        route_smo, adjacent_shared, deep, _key = self._route(tv)
        if adjacent_shared or deep:
            return None
        if route_smo is None:
            return _physical_write(tv, op, key, values, guard, source)
        return handler_for(self.ctx, route_smo).row_write(tv, op, key, values, guard, source)

    def triggers(self, tv: TableVersion) -> list[str]:
        """The ``INSTEAD OF`` trigger triple of ``tv``.

        A table version has two write programs, upsert and delete.  The
        upsert program is installed under the INSERT trigger; the UPDATE
        trigger is that program bound to the immutable ``p`` where it is
        one row-local statement, else one statement handing the row, under
        its immutable ``p``, to the INSERT trigger (SQLite re-parses every
        installed program on each connection after a transition, so a
        second copy of a longer program costs)."""
        remembered = self._triggers.get(tv.uid)
        if remembered is not None and self._hop_key(remembered[0]) == remembered[1]:
            return remembered[2]
        self._hops = {tv.uid: tv}
        route_smo, adjacent_shared, deep, _key = self._route(tv)
        ctx = self.ctx

        def program(op: str) -> list[str]:
            body: list[str] = []
            # Adjacent shared-aux maintenance first: like the engine, the
            # identifier decision procedure reads the PRE-write state (the
            # derived views still show it while the INSTEAD OF trigger runs).
            for smo in adjacent_shared:
                body += handler_for(ctx, smo).write_statements(
                    tv, op, apply_data=False
                )
            if route_smo is None:
                body.append(_physical_write(tv, op, *own_row(tv, op), None, None))
            else:
                body += handler_for(ctx, route_smo).write_statements(tv, op)
            # Extent repairs for distant shared-aux SMOs read the POST-write
            # state, so they come last.
            for smo in deep:
                body += handler_for(ctx, smo).repair_statements()
            return body

        update = ctx.upsert(tv, IMMUTABLE_KEY, own_row(tv, "UPSERT")[1])
        statements = [
            emit.create_trigger(
                tv.trigger_name(operation), operation, tv.view_name, body
            )
            for operation, body in (
                ("INSERT", program("UPSERT")),
                ("UPDATE", [update]),
                ("DELETE", program("DELETE")),
            )
        ]
        hops = list(self._hops.values())
        self._triggers[tv.uid] = (hops, self._hop_key(hops), statements)
        return statements

    def view_definitions(self) -> list[tuple[str, str, list | None]]:
        """:meth:`view` of every active table version (see
        :func:`view_definitions`)."""
        return [self.view(tv) for tv in self.active()]

    def view_statements(self) -> list[str]:
        return [
            emit.create_view(name, select)
            for name, select, _branches in self.view_definitions()
        ]

    def trigger_statements(self) -> list[str]:
        return [statement for tv in self.active() for statement in self.triggers(tv)]


def view_definitions(engine, *, flatten: bool = True) -> list[tuple[str, str, list | None]]:
    """``(view name, SELECT body, composed branches)`` per active table
    version, in dependency order.

    The rule-rendered SELECTs are algebraically composed along the SMO
    chain by :class:`~repro.backend.compose.ViewComposer`, so a version at
    chain depth N is served by one shallow query instead of an N-deep view
    sandwich; SMOs the composer cannot flatten (the hand-written FK/COND
    views, over-budget unions) keep their nested view references.  The
    branches are ``None`` where the body is not the composer's (those
    hand-written views, and everything under ``flatten=False``).

    ``flatten=False`` renders every view in that nested one-view-per-hop
    form, always on plain ``UNION``.  The backend never installs it; it is
    the reference basis of the verifier's RPC106 and the third leg of the
    test suite's memory / composed / nested oracle — which makes that
    oracle the bag-vs-set check of the composed ``UNION ALL`` emission."""
    return Renderer(engine, flatten=flatten).view_definitions()


def view_statements(engine, *, flatten: bool = True) -> list[str]:
    """One ``CREATE VIEW`` per active table version (see
    :func:`view_definitions`)."""
    return Renderer(engine, flatten=flatten).view_statements()


def trigger_statements(engine) -> list[str]:
    """The ``INSTEAD OF`` trigger triple of every active table version
    (see :meth:`Renderer.triggers`)."""
    return Renderer(engine).trigger_statements()


def script(statements: Iterable[str]) -> str:
    """The delta-code script of ``statements`` (``repro_delta_code_bytes``)."""
    return ";\n".join(statements)


def _physical_write(tv: TableVersion, op: str, key: str, values, guard, source) -> str:
    """The pass-through program of a physical table version, bound to the
    row ``key`` / ``values`` (reading ``source`` if given) under ``guard``."""
    data = q(tv.data_table_name)
    if op == "DELETE":
        return emit.delete_row(data, key, guard=guard)
    return emit.upsert_row(
        data, tv.schema.column_names, key, values,
        guard=guard, source=source, plain_table=True,
    )


def repair_all_statements(engine) -> list[str]:
    """Extent repairs for every shared-aux SMO (eager identifier
    initialization at evolution time, consistency pass after migration)."""
    ctx = HandlerContext(engine)
    statements: list[str] = []
    for smo in engine.genealogy.evolution_smos():
        if has_shared_aux(smo):
            statements += handler_for(ctx, smo).repair_statements()
    return statements


#: The names :attr:`TableVersion.view_name` / :meth:`TableVersion
#: .trigger_name` produce — and nothing else a database may hold, such as
#: a user's own ``vendor_report`` view.
_GENERATED_NAME = {
    "view": re.compile(r"v\d+__.*", re.DOTALL),
    "trigger": re.compile(r"tg__\d+__.*", re.DOTALL),
}

_CREATED_NAME = re.compile(r'CREATE (?:VIEW|TRIGGER) (?:"((?:[^"]|"")+)"|(\w+))')


def installed_objects(connection) -> dict[str, tuple[str, str, str]]:
    """``{name: (type, CREATE text, view it belongs to)}`` of the views and
    triggers this package generated, as ``sqlite_master`` holds them — the
    one place both the full drop and the install-by-diff learn what is
    installed."""
    return {
        name: (kind, sql, on)
        for kind, name, on, sql in connection.execute(
            "SELECT type, name, tbl_name, sql FROM sqlite_master "
            "WHERE type IN ('view', 'trigger')"
        )
        if _GENERATED_NAME[kind].fullmatch(name)
    }


def generated_object_names(connection) -> tuple[list[str], list[str]]:
    """(views, triggers) previously generated by this package, as recorded
    in ``sqlite_master``."""
    installed = installed_objects(connection)
    return (
        [name for name, (kind, _sql, _on) in installed.items() if kind == "view"],
        [name for name, (kind, _sql, _on) in installed.items() if kind == "trigger"],
    )


def created_name(statement: str) -> str | None:
    """The object a ``CREATE VIEW`` / ``CREATE TRIGGER`` statement of
    :mod:`~repro.backend.emit` names, or ``None`` for any other text."""
    match = _CREATED_NAME.match(statement)
    if match is None:
        return None
    quoted, bare = match.groups()
    return bare if quoted is None else quoted.replace('""', '"')


# ---------------------------------------------------------------------------
# MATERIALIZE as an in-place SQL migration
# ---------------------------------------------------------------------------


def _aux_stage_name(smo: SmoInstance, role: str) -> str:
    return physical_name("stageaux", str(smo.uid), role)


def migration_statements(
    engine, schema: frozenset[SmoInstance]
) -> tuple[list[str], list[str]]:
    """(stage_statements, swap_statements) of a ``MATERIALIZE`` cutover.

    Stage statements run against the *old* views: they create staging
    tables holding every aux table of each SMO's newly stored side — small
    derived state, rebuilt whole by every move.  The move stages the new
    physical data tables itself (:mod:`repro.backend.online`).  Swap
    statements (run after the generated views/triggers are dropped) drop
    the old tables and rename both kinds of staged table into place.
    Shared aux tables (ID) survive unchanged.
    """
    ctx = HandlerContext(engine)
    genealogy = engine.genealogy
    stage: list[str] = []
    swap: list[str] = []

    new_physical = physical_table_versions(genealogy, schema)
    old_physical = [
        tv
        for uid in sorted(genealogy.table_versions)
        if engine._is_physical(tv := genealogy.table_versions[uid])
    ]

    for tv in new_physical:
        swap += [
            f"DROP TABLE IF EXISTS {q(tv.data_table_name)}",
            f"ALTER TABLE {q(stage_name(tv))} RENAME TO {q(tv.data_table_name)}",
        ]

    keep_data = {tv.data_table_name for tv in new_physical}
    for tv in old_physical:
        if tv.data_table_name not in keep_data:
            swap.append(f"DROP TABLE IF EXISTS {q(tv.data_table_name)}")

    for smo in genealogy.evolution_smos():
        semantics = smo.semantics
        if semantics is None:
            continue
        will_materialize = smo in schema
        handler = handler_for(ctx, smo)
        new_side = semantics.aux_tgt() if will_materialize else semantics.aux_src()
        old_side = semantics.aux_tgt() if smo.materialized else semantics.aux_src()
        selects = handler.stored_role_selects(will_materialize)
        for role, schema_for_role in new_side.items():
            select = selects.get(role)
            if select is None:
                raise BackendError(
                    f"SMO {smo!r} cannot derive aux role {role!r} for migration"
                )
            name = _aux_stage_name(smo, role)
            stage += [
                f"DROP TABLE IF EXISTS {q(name)}",
                table_ddl(name, schema_for_role.column_names),
                f"INSERT INTO {q(name)} ({', '.join(['p', *qcols(schema_for_role.column_names)])}) "
                f"{select}",
            ]
            swap += [
                f"DROP TABLE IF EXISTS {q(smo.aux_table_name(role))}",
                f"ALTER TABLE {q(name)} RENAME TO {q(smo.aux_table_name(role))}",
            ]
        for role in old_side:
            if role not in new_side:
                swap.append(f"DROP TABLE IF EXISTS {q(smo.aux_table_name(role))}")
    return stage, swap


def evolution_statements(engine, version) -> list[str]:
    """DDL bringing the backend up to date after ``CREATE SCHEMA VERSION``:
    data tables for new CREATE TABLE targets, (empty) aux tables for the
    stored sides of the new SMOs, and staging scaffolding."""
    statements: list[str] = []
    for smo in engine.genealogy.all_smos():
        if smo.evolution != version.name:
            continue
        if smo.is_initial:
            tv = smo.targets[0]
            statements.append(table_ddl(tv.data_table_name, tv.schema.column_names))
            continue
        semantics = smo.semantics
        if semantics is None:  # pragma: no cover - catalog invariant
            continue
        aux_tables = dict(semantics.aux_shared())
        if not smo.materialized:
            aux_tables.update(semantics.aux_src())
        for role, schema in aux_tables.items():
            statements.append(
                table_ddl(smo.aux_table_name(role), schema.column_names)
            )
    statements += scaffold_statements(engine)
    return statements
