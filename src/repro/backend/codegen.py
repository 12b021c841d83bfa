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
   into a view whose own program is row-local runs that program in place
   (:meth:`Renderer.row_program`), so a write crosses one trigger per hop
   that is not,

plus the in-place SQL migration script implementing ``MATERIALIZE``.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from typing import NamedTuple

from repro.backend import emit
from repro.backend.compose import ViewComposer
from repro.backend.emit import filled_table, q, qcols, table_ddl
from repro.backend.handlers import (
    HandlerContext,
    handler_for,
    has_shared_aux,
    own_row,
)
from repro.catalog.genealogy import SmoInstance, TableVersion
from repro.errors import BackendError
from repro.relational.schema import TableSchema
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
#: 8 = ADD COLUMN's widening rule pair is one branch reading B by a probe.
#: 9 = a delete from a compound view runs that view's key deletes in place;
#:     a NOT EXISTS guard reads a physical table version's data table.
#: 10 = the FK and condition SMOs' views come from their rule sets; a lone
#:      branch not proven key-preserving is SELECT DISTINCT.
#: 11 = a condition SMO's write is one staged put: the stored side comes
#:      from its rule set.
#: 12 = an FK SMO's identifier decision seeks an index over the physical
#:      payload columns it probes (the scaffold creates it), and a wide
#:      write leaves a T row holding its payload alone.
#: 13 = a row-local program of more than one statement runs in place where
#:      what it is bound to reads nothing but row snapshots; a partition's
#:      keeper follows gamma_tgt's Uprime rule; an upsert names no columns,
#:      and one without guard or source is a VALUES row.
EMISSION_STAMP = 13

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


def active_table_versions(
    engine,
    roots: Iterable[TableVersion] | None = None,
    known: Callable[[TableVersion], bool] = lambda _tv: False,
) -> list[TableVersion]:
    """Every table version reachable from an active schema version — or
    from ``roots`` — in a physical-first dependency order (each view's
    inputs precede it), entering none for which ``known`` holds."""
    ordered: list[TableVersion] = []
    installed: set[int] = set()

    def install(tv: TableVersion) -> None:
        if tv.uid in installed or known(tv):
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

    if roots is None:
        roots = (
            tv
            for version in engine.genealogy.active_versions()
            for tv in version.tables.values()
        )
    for tv in roots:
        install(tv)
    return ordered


class Scope(NamedTuple):
    """What one evolve or drop touched: the SMOs it added and removed, and
    every table version whose delta code that can change."""

    added: tuple[SmoInstance, ...]
    removed: tuple[SmoInstance, ...]
    table_versions: tuple[TableVersion, ...]

    def object_names(self) -> list[str]:
        """The views and triggers its table versions have, or had."""
        return [
            name
            for tv in self.table_versions
            for name in (tv.view_name, *map(tv.trigger_name, ("INSERT", "UPDATE", "DELETE")))
        ]


def transition_scope(
    engine, version, added: Iterable[SmoInstance] = (), removed: Iterable[SmoInstance] = ()
) -> Scope | None:
    """The :class:`Scope` of evolving ``version`` (``added`` its SMOs) or
    dropping it (``removed`` the SMOs that left the catalog), or ``None``
    when only the whole catalog is.

    In scope are the targets of those SMOs: a new table version's code is
    rendered, a removed one's dropped.  Survivors' views read nothing but
    their routes, which evolve and drop leave alone; their triggers read
    the shared-aux SMOs off their routes (:func:`_off_route_shared`).  Only
    an SMO with shared aux tables, or one joining more than one source,
    changes that set, so it brings its whole connected genealogy component
    into scope.  A drop has a scope only where it retired ``version`` and
    left its parent active: any other drop may leave a survivor that no
    active version reads through any more."""
    added, removed = tuple(added), tuple(removed)
    genealogy = engine.genealogy
    if version.dropped:
        parent = genealogy.schema_versions.get(version.parent)
        parent_active = version.parent is None or (parent is not None and not parent.dropped)
        if version.name not in genealogy.retired or not parent_active:
            return None
    touched = (*added, *removed)
    tvs = {tv.uid: tv for smo in touched for tv in smo.targets}
    frontier = [
        tv
        for smo in touched
        if has_shared_aux(smo) or len(smo.sources) > 1
        for tv in smo.sources
    ]
    tvs.update((tv.uid, tv) for tv in frontier)
    while frontier:
        tv = frontier.pop()
        for smo in _adjacent_smos(tv):
            for other in (*smo.sources, *smo.targets):
                if other.uid not in tvs:
                    tvs[other.uid] = other
                    frontier.append(other)
    return Scope(added, removed, tuple(tvs.values()))


def scaffold_statements(engine, smos: Iterable[SmoInstance] | None = None) -> list[str]:
    """Idempotent DDL for the per-SMO staging tables of ``smos``, indexes
    over their always-stored ID tables (the trigger programs probe them by
    identifier on every row write) and over the columns their programs
    look physical rows up by (:meth:`~repro.backend.handlers.SmoHandler
    .probe_indexes`); for every evolution SMO, and the sequence table,
    when ``smos`` is ``None``."""
    ctx = HandlerContext(engine)
    statements = []
    if smos is None:
        statements.append(emit.sequences_ddl())
        smos = engine.genealogy.evolution_smos()
    for smo in smos:
        if smo.semantics is None or smo.is_initial:
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
        for table, columns in handler.probe_indexes():
            index = physical_name("ix", table, *columns)
            statements.append(
                f"CREATE INDEX IF NOT EXISTS {q(index)} ON {q(table)} "
                f"({', '.join(q(column) for column in columns)})"
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

    A pass renders the whole catalog or one transition's :class:`Scope`
    (:meth:`active`).  The scope rule keeps the memo sound between two
    MATERIALIZEs: a surviving table version's view reads nothing but its
    route to the physical tables (:func:`route_for` — materialization
    flags plus the physical table set), which evolve and drop never
    change for survivors, so a view is rendered once.  Its triggers also
    read :func:`_off_route_shared` of itself and of every view a write was
    offered to (:meth:`row_program`, since whether that view's program is
    row-local, and so inlined, turns on those SMOs); all of them lie
    in its connected genealogy component, which is in every scope that
    can change one of those sets (:func:`transition_scope`).  So a scoped
    pass renders the triggers of its table versions again and trusts the
    rest, and a pass over the whole catalog trusts every memo entry.  A
    transition without a scope, and a MATERIALIZE, which moves the routes,
    need a new ``Renderer``.
    """

    def __init__(self, engine, *, flatten: bool = True):
        self.engine = engine
        self.ctx = HandlerContext(engine, self.row_program)
        self.composer = ViewComposer() if flatten else None
        self._views: dict[int, tuple[str, str, list | None]] = {}
        self._triggers: dict[int, list[str]] = {}
        # Per pass (cleared by active()): uid -> (route SMO, adjacent and
        # deep off-route shared).
        self._routes: dict[int, tuple] = {}
        # Uids of the active table versions, once a whole-catalog pass
        # has walked them; a scoped pass moves its SMOs' targets in or out.
        self._alive: set[int] | None = None

    def active(self, scope: Scope | None = None) -> list[TableVersion]:
        """:func:`active_table_versions` — of the whole catalog, or the
        active ones of ``scope`` — after forgetting every table version
        that left that set and the triggers ``scope`` may change.  A
        scoped pass first renders every view those read that the memo
        lacks, so they can be composed against."""
        self._routes.clear()
        if scope is None or self._alive is None:
            tvs = active_table_versions(self.engine)
            self._alive = {tv.uid for tv in tvs}
            self._forget(self._views.keys() - self._alive, self._triggers.keys() - self._alive)
            if scope is None:
                return tvs
        alive = self._alive
        alive.difference_update(tv.uid for smo in scope.removed for tv in smo.targets)
        alive.update(tv.uid for smo in scope.added for tv in smo.targets)
        in_scope = {tv.uid for tv in scope.table_versions}
        self._forget(in_scope - alive, in_scope)
        ordered = active_table_versions(
            self.engine,
            [tv for tv in scope.table_versions if tv.uid in alive],
            known=lambda tv: tv.uid in self._views and tv.uid not in in_scope,
        )
        for tv in ordered:
            if tv.uid not in in_scope:
                self.view(tv)
        return [tv for tv in ordered if tv.uid in in_scope]

    def _forget(self, views: Iterable[int], triggers: Iterable[int]) -> None:
        for uid in list(views):
            definition = self._views.pop(uid, None)
            if definition is not None and self.composer is not None:
                self.composer.forget(definition[0])
        for uid in list(triggers):
            self._triggers.pop(uid, None)

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
        if composer is None:
            return tv.view_name, handler.view_select(tv), None
        flat = composer.register(tv.view_name, handler.view_branches(tv))
        return tv.view_name, composer.sql(flat), flat

    def _route(self, tv: TableVersion) -> tuple:
        """``(route SMO or None, adjacent shared, deep shared)``."""
        found = self._routes.get(tv.uid)
        if found is None:
            route = route_for(self.engine, tv)
            smo = route[0] if route is not None else None
            found = self._routes[tv.uid] = (smo, *_off_route_shared(tv, smo))
        return found

    def row_program(self, tv, op, key, values, guard, source) -> list[str] | None:
        """``tv``'s own ``op`` program bound to a writer's row, where it runs
        in place of the hop: it is row-local — no shared-aux upkeep around
        it, and the physical pass-through or a handler's
        :meth:`~repro.backend.handlers.SmoHandler.row_write` — and one
        statement, or its key, row, guard and source read nothing but row
        snapshots, which no row-local program writes, so every statement
        of it sees what the first one saw.  Else ``None``
        (:attr:`HandlerContext.inline`)."""
        route_smo, adjacent_shared, deep = self._route(tv)
        if adjacent_shared or deep:
            return None
        if route_smo is None:
            program = [_physical_write(tv, op, key, values, guard, source)]
        else:
            handler = handler_for(self.ctx, route_smo)
            program = handler.row_write(tv, op, key, values, guard, source)
        if program is not None and (
            len(program) == 1 or emit.reads_only_snapshots(key, *values, guard, source)
        ):
            return program
        return None

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
        if remembered is not None:
            return remembered
        route_smo, adjacent_shared, deep = self._route(tv)
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

        values = own_row(tv, "UPSERT")[1]
        update = ctx.upsert(tv, IMMUTABLE_KEY, values)
        if len(update) > 1:
            update = [emit.upsert_row(tv.view_name, tv.schema.column_names, IMMUTABLE_KEY, values)]
        statements = self._triggers[tv.uid] = [
            emit.create_trigger(
                tv.trigger_name(operation), operation, tv.view_name, body
            )
            for operation, body in (
                ("INSERT", program("UPSERT")),
                ("UPDATE", update),
                ("DELETE", program("DELETE")),
            )
        ]
        return statements

    def view_definitions(self, scope: Scope | None = None) -> list[tuple[str, str, list | None]]:
        """:meth:`view` of every active table version (see
        :func:`view_definitions`), or of those in ``scope``."""
        return [self.view(tv) for tv in self.active(scope)]

    def view_statements(self, scope: Scope | None = None) -> list[str]:
        return [
            emit.create_view(name, select)
            for name, select, _branches in self.view_definitions(scope)
        ]

    def trigger_statements(self, scope: Scope | None = None) -> list[str]:
        return [statement for tv in self.active(scope) for statement in self.triggers(tv)]


def view_definitions(engine, *, flatten: bool = True) -> list[tuple[str, str, list | None]]:
    """``(view name, SELECT body, composed branches)`` per active table
    version, in dependency order.

    The rule-rendered SELECTs are algebraically composed along the SMO
    chain by :class:`~repro.backend.compose.ViewComposer`, so a version at
    chain depth N is served by one shallow query instead of an N-deep view
    sandwich; a view whose composition would exceed the branch budget
    keeps its nested view references.  The branches are ``None`` under
    ``flatten=False``.

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


#: What joins two statements of a delta-code script.
SEPARATOR = ";\n"


def script(statements: Iterable[str]) -> str:
    """The delta-code script of ``statements`` (``repro_delta_code_bytes``)."""
    return SEPARATOR.join(statements)


def script_bytes(statements: int, text_bytes: int) -> int:
    """``len(script(…).encode())`` of ``statements`` statements holding
    ``text_bytes`` UTF-8 bytes in all."""
    return text_bytes + len(SEPARATOR) * max(statements - 1, 0)


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


def repair_all_statements(engine, smos: Iterable[SmoInstance] | None = None) -> list[str]:
    """Extent repairs for every shared-aux SMO of ``smos`` (every SMO when
    ``None``): eager identifier initialization at evolution time,
    consistency pass after migration."""
    ctx = HandlerContext(engine)
    statements: list[str] = []
    for smo in engine.genealogy.evolution_smos() if smos is None else smos:
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


def installed_objects(
    connection, names: list[str] | None = None
) -> dict[str, tuple[str, str, str]]:
    """``{name: (type, CREATE text, view it belongs to)}`` of the views and
    triggers this package generated — all of them, or those among
    ``names`` — as ``sqlite_master`` holds them: the one place both the
    full drop and the install-by-diff learn what is installed."""
    query = "SELECT type, name, tbl_name, sql FROM sqlite_master WHERE type IN ('view', 'trigger')"
    if names is not None:
        query += f" AND name IN ({', '.join('?' for _ in names)})"
    return {
        name: (kind, sql, on)
        for kind, name, on, sql in connection.execute(query, names or ())
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


def _unserved_views(engine) -> list[str]:
    """``CREATE VIEW`` for each table version an SMO's aux derivation may
    read that is not active: the other side of an SMO whose version was
    dropped (dropping ``v1`` after materializing ``v2`` leaves ``v1``'s
    tables to the SMOs between them, reachable from no active version).
    The move drops them with every other generated object before its
    swap."""
    active = {tv.uid for tv in active_table_versions(engine)}
    unserved = [
        tv
        for smo in engine.genealogy.evolution_smos()
        for tv in (*smo.sources, *smo.targets)
        if tv.uid not in active
    ]
    if not unserved:
        return []
    renderer = Renderer(engine)
    statements = []
    for tv in active_table_versions(engine, unserved):
        name, select, _branches = renderer.view(tv)
        if tv.uid not in active:
            statements.append(emit.create_view(name, select))
    return statements


def migration_statements(
    engine, schema: frozenset[SmoInstance], created: dict[str, TableSchema]
) -> list[str]:
    """Stage statements of a ``MATERIALIZE`` to ``schema``: they create,
    under its final name, every aux table of ``created`` (what the move
    adds to the physical layout), filled by its SMO's rule set from the
    *old* views — small derived state, rebuilt whole — after creating the
    views those derivations read that no active table version needs any
    more (:func:`_unserved_views`).  The move stages the new data tables
    itself (:func:`repro.backend.online.cutover_statements`)."""
    ctx = HandlerContext(engine)
    stage: list[str] = _unserved_views(engine)
    for smo in engine.genealogy.evolution_smos():
        new = {name: role for name, role in smo.aux_table_names().items() if name in created}
        if not new:
            continue
        selects = handler_for(ctx, smo).stored_role_selects(smo in schema)
        for name, role in new.items():
            stage += filled_table(name, created[name].column_names, selects[role])
    return stage
