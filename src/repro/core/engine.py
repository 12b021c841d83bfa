"""The InVerDa engine: co-existing schema versions over one data set.

This is the paper's Figure-3 architecture in library form. The engine owns

- the physical storage (:class:`~repro.relational.database.Database`),
- the schema version catalog (:class:`~repro.catalog.genealogy.Genealogy`),

and implements the two user-facing operations:

- the **Database Evolution Operation** — executing a BiDEL
  ``CREATE SCHEMA VERSION`` makes the new version immediately readable and
  writable (Section 6's delta code corresponds to the routing implemented
  by :meth:`InVerDa.read_table_version` / :meth:`InVerDa.apply_change`);
- the **Database Migration Operation** — ``MATERIALIZE`` moves the physical
  data representation along the genealogy without affecting any version's
  visible contents (Section 7).

Reads follow the three cases of Section 6: *local* (the table version is
physical), *forwards* (an outgoing SMO is materialized; read through its
``γ_src``), and *backwards* (the incoming SMO is virtualized; read through
its ``γ_tgt``), each evaluating the SMO's rule set.  Writes propagate the
other way, through each SMO's lens put (:meth:`SmoSemantics.put`), which
evaluates the same rule set again: over the changed keys' rows alone when
it is key-local, over whole extents otherwise.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable
from contextlib import AbstractContextManager as ContextManager
from contextlib import contextmanager, nullcontext

from repro.bidel.ast import (
    CreateSchemaVersion,
    CreateTable,
    DropSchemaVersion,
    Materialize,
    SmoNode,
    Statement,
)
from repro.bidel.parser import parse_script
from repro.bidel.smo.base import KeyedRows, TableChange
from repro.bidel.smo.registry import build_semantics, source_table_names
from repro.catalog.genealogy import Genealogy, SmoInstance, TableVersion
from repro.catalog.materialization import (
    current_materialization,
    materialization_for_versions,
    physical_layout,
    validate_materialization,
)
from repro.catalog.versions import SchemaVersion
from repro.core.context import EngineMapContext, ReadCache
from repro.errors import (
    AccessError, CatalogError, EvolutionError, MissingTableError, SchemaError,
    TableExistsError,
)
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.table import Key, Table

_ID_COLUMN = "id"


def bind_smo(node: SmoNode, working: dict[str, TableSchema]):
    """``(semantics, target schemas)`` of ``node`` over the working schema
    ``working`` (table name -> schema), which it then advances past the
    SMO.  An SMO that does not apply raises :class:`EvolutionError` (or
    :class:`SchemaError` from its semantics) and leaves ``working`` as it
    was.  A target column may not be named ``p`` in any letter case: the
    generated views expose the hidden row identifier under that name."""
    names = source_table_names(node)
    missing = [name for name in names if name not in working]
    if missing:
        raise MissingTableError(
            f"SMO {node.unparse()!r}: no table {missing[0]!r} in the working schema", missing
        )
    semantics = build_semantics(node, tuple(working[name] for name in names))
    targets = semantics.target_schemas()
    advanced = {name: schema for name, schema in working.items() if name not in names}
    for schema in targets:
        reserved = [column for column in schema.column_names if column.lower() == "p"]
        if reserved:
            raise SchemaError(
                f"SMO {node.unparse()!r}: column {reserved[0]!r} of table {schema.name!r} "
                "takes the name of the hidden row identifier p"
            )
        if schema.name in advanced:
            raise TableExistsError(
                f"SMO {node.unparse()!r}: table {schema.name!r} already exists "
                "in the working schema",
                schema.name,
            )
        advanced[schema.name] = schema
    working.clear()
    working.update(advanced)
    return semantics, targets


class RWLock:
    """A writer-preferring read/write lock guarding the catalog.

    The data plane (SQL statements of concurrent sessions) takes the read
    side, so any number of sessions read and write *data* in parallel;
    catalog transitions (evolution, ``MATERIALIZE``, drop) take the write
    side, which drains in-flight statements, blocks new ones, and gives
    the transition exclusive access to regenerate delta code once and
    republish it to every session.

    The lock itself guards the read side (``with lock:`` is ``with
    lock.read_locked():``): a reader takes a plain mutex on entry and on
    exit, and waits only while a writer holds the lock or waits for it —
    waiting writers block *new* readers, so a steady stream of statements
    cannot starve DDL.  The write side is reentrant (``materialize``
    calls ``_cut_over``), and its holder may also enter the read side.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0
        # Optional observer(seconds) told how long each writer waited for
        # exclusivity (the engine binds repro_rwlock_write_wait_seconds).
        self.write_wait_observer = None

    def read_locked(self) -> "RWLock":
        return self

    def __enter__(self) -> None:
        with self._mutex:
            if self._writer is not None or self._writers_waiting:
                if self._writer == threading.get_ident():
                    return  # the transition itself is the only activity
                while self._writer is not None or self._writers_waiting:
                    self._cond.wait()
            self._readers += 1

    def __exit__(self, *exc) -> None:
        with self._mutex:
            # A writer cannot hold the lock while a reader is inside, so
            # one that does is this thread, and this read was reentrant.
            if self._writer is None:
                self._readers -= 1
                if not self._readers and self._writers_waiting:
                    self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        me = threading.get_ident()
        waited = None
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
            else:
                self._writers_waiting += 1
                wait_start = time.perf_counter()
                while self._writer is not None or self._readers:
                    self._cond.wait()
                waited = time.perf_counter() - wait_start
                self._writers_waiting -= 1
                self._writer = me
                self._writer_depth = 1
        if waited is not None and self.write_wait_observer is not None:
            self.write_wait_observer(waited)
        try:
            yield
        finally:
            with self._cond:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()


class InVerDa:
    """A database with end-to-end support for co-existing schema versions."""

    def __init__(self) -> None:
        self.database = Database()
        self.genealogy = Genealogy()
        self._undo_log: list[tuple[str, Key, tuple | None]] | None = None
        # Moves whenever a transaction's journal ends (see MemorySession).
        self._journal_epoch = 0
        # Memo: does anything stored lie beyond (smo, direction)? Reset on
        # every evolution and migration.
        self._propagation_needs: dict[tuple[int, str], bool] = {}
        # The attached execution backend (the live SQLite backend), if any.
        # It owns the data plane: it takes the rows and leaves the
        # in-memory tables empty, while the catalog (and the *layout* of
        # physical storage, which the code generators consult) stays live
        # here.
        self.live_backend = None
        # Set by a backend once it has taken the rows; such an engine can
        # no longer seed another database.
        self.rows_handed_over = False
        # Catalog read/write lock: concurrent sessions' statements take the
        # read side, catalog transitions (DDL) the write side.
        self.catalog_lock = RWLock()
        # Catalog-transition listeners (e.g. the network server invalidating
        # clients bound to a dropped version). Called while the write lock
        # is still held — listeners must be quick and must not execute
        # statements (they would deadlock on the read side).
        self._catalog_listeners: list = []
        # Monotonic catalog generation: bumped under the write lock on
        # every transition (evolution, MATERIALIZE, drop). The persisted
        # catalog, the verified-at mark and a backfill journal record it,
        # so recovery can tell which transition they belong to; compiled
        # plans are not tagged with it (they live as long as their version).
        self.catalog_generation = 0  # repro-lint: allow(RPC302) — initial value, no catalog exists yet
        # (generation, fingerprint) memo for catalog_fingerprint().
        self._fingerprint_memo: tuple[int, str] | None = None
        # Summary of the most recent static-analysis run (repro.check):
        # set by record_findings(), surfaced in the stats snapshot and the
        # server status report.
        self.last_check: dict | None = None
        from repro.core.advisor import WorkloadRecorder
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer
        from repro.sql.plancache import PlanCache

        # Observability: one registry and one tracer per engine. Every
        # instrumented component (plan cache, workload recorder, session
        # pool, server, recovery) binds its series here.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.workload = WorkloadRecorder(self.metrics)
        self.plan_cache = PlanCache()
        self.plan_cache.bind_metrics(self.metrics)
        self.add_catalog_listener(self.plan_cache.on_catalog_event)
        self._transition_seconds = self.metrics.histogram(
            "repro_transition_duration_seconds",
            "Catalog transition duration by kind.",
            ("kind",),
        )
        self._transitions_total = self.metrics.counter(
            "repro_transitions_total",
            "Catalog transitions completed by kind.",
            ("kind",),
        )
        self._generation_gauge = self.metrics.gauge(
            "repro_catalog_generation",
            "Current catalog generation (bumped on every transition).",
        )
        self._generation_gauge.set(0)
        rwlock_wait = self.metrics.histogram(
            "repro_rwlock_write_wait_seconds",
            "Time catalog transitions waited to acquire the writer lock.",
        )
        self.catalog_lock.write_wait_observer = rwlock_wait.observe
        # Online MATERIALIZE observability: phase (0 idle, 1 prepare,
        # 2 backfill, 3 cutover), per-move progress, and end-to-end move
        # duration.  The guard flag refuses *other* catalog transitions
        # while a backfill is in flight (they would invalidate the staged
        # copies) instead of letting them queue behind the chunk loop.
        self._online_materialize_active = False
        # Optional context-manager factory entered around an online move's
        # cutover (the brief write-lock window at the end of the backfill).
        # Callers that serialize external state against the catalog — the
        # soak harness orders its differential oplog with it — get a hook
        # at the move's true serialization point: code inside the ``with``
        # body runs after the cutover committed, while whatever mutual
        # exclusion the context manager provides spans the switch itself.
        self.online_cutover_hook: "Callable[[], ContextManager[None]] | None" = None
        self._backfill_phase = self.metrics.gauge(
            "repro_backfill_phase",
            "Online MATERIALIZE phase (0=idle 1=prepare 2=backfill 3=cutover).",
        )
        self._backfill_phase.set(0)
        self._backfill_chunks = self.metrics.gauge(
            "repro_backfill_chunks",
            "Chunks committed by the in-flight online MATERIALIZE.",
        )
        self._backfill_rows = self.metrics.gauge(
            "repro_backfill_rows",
            "Rows copied by the in-flight online MATERIALIZE.",
        )
        self._online_materialize_seconds = self.metrics.histogram(
            "repro_materialize_online_seconds",
            "End-to-end duration of online MATERIALIZE moves.",
        )

    @contextmanager
    def _transition(self, kind: str, **notice):
        """One catalog transition (``kind`` in evolve|materialize|drop)
        under the write lock, timed, with the generation gauge kept
        current.  Open transactions end first; then one snapshot of the
        catalog is taken, and any exception restores it: a refused script
        and a failed backend hook (whose transaction rolled the file back)
        alike leave the process serving the catalog it served before.  On
        success the listeners hear of it with ``notice``, and the
        backend's post-commit check runs after the undo window, so its
        error fails the statement but parts neither."""
        event = "evolution" if kind == "evolve" else kind
        with self.catalog_lock.write_locked():
            started = time.perf_counter()
            try:
                if kind != "materialize":  # a cutover runs with the online guard up
                    self._ensure_no_online_move()
                self._quiesce_backend()
                restore, generation = self._snapshot(), self.catalog_generation
                try:
                    yield
                except BaseException:
                    restore()
                    self.catalog_generation = generation
                    raise
                self._notify_catalog(event, **notice)
                self._verify_transition(event)
            finally:
                self._generation_gauge.set(self.catalog_generation)
            self._transition_seconds.observe(time.perf_counter() - started, kind=kind)
            self._transitions_total.inc(kind=kind)

    def _snapshot(self) -> Callable[[], None]:
        """What restores the catalog as it is now: the genealogy's maps,
        retired names and uid counters, every table version's links, every
        version's dropped flag and SMO's materialized flag and the memory
        tables and sequences (an FK SMO's evolution allocates identifiers)
        — and clears the memos derived from it.  The generation is
        :meth:`_transition`'s to put back."""
        genealogy = self.genealogy
        maps = [
            (live, dict(live))
            for live in (genealogy.schema_versions, genealogy.table_versions,
                         genealogy.smo_instances)
        ]
        scalars = (
            set(genealogy.retired), genealogy._next_table_uid, genealogy._next_smo_uid,
            dict(self.database.tables), dict(self.database.sequences),
        )
        links = [
            (tv, tv.incoming, list(tv.outgoing)) for tv in genealogy.table_versions.values()
        ]
        dropped = [(version, version.dropped) for version in genealogy.schema_versions.values()]
        materialized = [(smo, smo.materialized) for smo in genealogy.smo_instances.values()]

        def restore() -> None:
            for live, saved in maps:
                live.clear()
                live.update(saved)
            (genealogy.retired, genealogy._next_table_uid, genealogy._next_smo_uid,
             self.database.tables, self.database.sequences) = scalars
            for tv, incoming, outgoing in links:
                tv.incoming, tv.outgoing[:] = incoming, outgoing
            for version, flag in dropped:
                version.dropped = flag
            for smo, flag in materialized:
                smo.materialized = flag
            self._fingerprint_memo = None
            self._invalidate_semantics_caches()
            self._propagation_needs.clear()

        return restore

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------

    def attach_backend(self, backend) -> None:
        """Give ``backend`` the engine's one backend slot (idempotent)."""
        if self.live_backend not in (None, backend):
            raise CatalogError("this engine already serves through another live backend")
        self.live_backend = backend

    def detach_backend(self, backend) -> None:
        if self.live_backend is backend:
            self.live_backend = None

    def add_catalog_listener(self, listener) -> None:
        """Register ``listener(event: str, **info)`` to be called after
        every catalog transition (``"evolution"``, ``"materialize"``,
        ``"drop"``), still under the catalog write lock."""
        if listener not in self._catalog_listeners:
            self._catalog_listeners.append(listener)

    def remove_catalog_listener(self, listener) -> None:
        if listener in self._catalog_listeners:
            self._catalog_listeners.remove(listener)

    def _notify_catalog(self, event: str, **info) -> None:
        for listener in list(self._catalog_listeners):
            try:
                listener(event, **info)
            except Exception:  # pragma: no cover - listeners are advisory
                pass  # the catalog already changed; a listener cannot veto it

    def _verify_transition(self, kind: str) -> None:
        """The backend's post-commit check of a transition.  It runs after
        the undo window: the file and the catalog both hold the
        transition, so an error fails the statement and parts neither."""
        if self.live_backend is not None:
            self.live_backend.verify_transition(kind)

    def _quiesce_backend(self) -> None:
        """Commit every open transaction before a catalog transition (DDL
        is not transactional): the memory journal and every backend
        session's.  A journal kept across a migration would name physical
        tables the swap may drop, making rollback a lie.  Runs under the
        catalog write lock, so no session statements are in flight."""
        if self._undo_log is not None:
            self._end_journal()
        if self.live_backend is not None:
            self.live_backend.quiesce()

    def _end_journal(self) -> None:
        """End the transaction journal, keeping its writes."""
        self._undo_log = None
        self._journal_epoch += 1

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(self, script: str) -> None:
        """Execute a BiDEL script (any mix of the three statement forms)."""
        for statement in parse_script(script):
            self.execute_statement(statement)

    def execute_statement(self, statement: Statement) -> None:
        if isinstance(statement, CreateSchemaVersion):
            self.create_schema_version(statement)
        elif isinstance(statement, DropSchemaVersion):
            self.drop_schema_version(statement.name)
        elif isinstance(statement, Materialize):
            self.materialize(statement.targets, online=statement.online)
        else:  # pragma: no cover - parser guarantees the union
            raise EvolutionError(f"unknown statement {statement!r}")

    # ------------------------------------------------------------------
    # Database Evolution Operation
    # ------------------------------------------------------------------

    def create_schema_version(self, statement: CreateSchemaVersion) -> SchemaVersion:
        with self._transition("evolve", version=statement.name):
            version, added, created = self._create_schema_version(statement)
            # The generation moves BEFORE the backend hooks run, so a
            # persisting backend records the new generation in the same
            # transaction as the DDL it installs.
            self.catalog_generation += 1
            if self.live_backend is not None:
                self.live_backend.on_evolution(version, added, created)
        return version

    def _create_schema_version(
        self, statement: CreateSchemaVersion
    ) -> tuple[SchemaVersion, list[SmoInstance], dict[str, TableSchema]]:
        """The new version, the SMO instances it added and the tables they
        store (all empty but the shared ID tables).  A refused SMO leaves
        what the script's earlier SMOs registered to the transition's
        snapshot to undo."""
        self.genealogy.check_new_name(statement.name)
        working: dict[str, TableVersion] = {}
        if statement.source is not None:
            working.update(self.genealogy.schema_version(statement.source).tables)
        added: list[SmoInstance] = []
        created: dict[str, TableSchema] = {}
        for node in statement.smos:
            added.append(self._apply_smo(node, working, statement.name))
            created.update(self._lay_out(self.current_materialization())[0])
            self._initialize_shared_aux(added[-1])
        version = SchemaVersion(statement.name, working, parent=statement.source)
        self.genealogy.add_schema_version(version)
        self.genealogy.check_acyclic()
        self._propagation_needs.clear()
        return version, added, created

    def _apply_smo(
        self, node: SmoNode, working: dict[str, TableVersion], evolution: str
    ) -> SmoInstance:
        """Bind ``node`` over ``working`` (:func:`bind_smo`), register it
        and advance ``working`` past it."""
        semantics, target_schemas = bind_smo(
            node, {name: tv.schema for name, tv in working.items()}
        )
        sources = [working[name] for name in source_table_names(node)]
        targets = [
            self.genealogy.new_table_version(schema.name, schema, evolution)
            for schema in target_schemas
        ]
        smo = self.genealogy.new_smo_instance(
            node,
            sources,
            targets,
            evolution,
            materialized=isinstance(node, CreateTable),
        )
        smo.semantics = semantics
        self._assign_key_columns(node, smo)
        for tv in sources:
            del working[tv.name]
        working.update((tv.name, tv) for tv in targets)
        return smo

    def _assign_key_columns(self, node: SmoNode, smo: SmoInstance) -> None:
        """Track which visible columns mirror generated row identifiers."""
        from repro.bidel.ast import Decompose, Join, RenameColumn

        if isinstance(node, Decompose) and node.kind.method in ("FK", "COND"):
            generated = smo.targets if node.kind.method == "COND" else smo.targets[1:]
            for tv in generated:
                tv.key_column = _ID_COLUMN
            return
        if isinstance(node, Join) and node.kind.method == "COND" and not node.outer:
            return  # joined rows get fresh ids but expose no id column
        # Identity-shaped SMOs inherit the marker when the column survives.
        if len(smo.sources) == 1 and len(smo.targets) >= 1:
            inherited = smo.sources[0].key_column
            if inherited is None:
                return
            if isinstance(node, RenameColumn) and node.column == inherited:
                inherited = node.new_name
            for tv in smo.targets:
                if tv.schema.has_column(inherited):
                    tv.key_column = inherited

    def _initialize_shared_aux(self, smo: SmoInstance) -> None:
        """Populate ``smo``'s ID tables, if any, eagerly so generated
        identifiers are stable from the first read onwards (repeatable
        reads, Appendix B.3).  A live backend holds the rows, and
        initializes its own."""
        if self.live_backend is not None or not smo.semantics.aux_tables["shared"]:
            return
        ctx = EngineMapContext(self, smo, output_side="target")
        state = smo.semantics.map_forward(ctx)
        for role in smo.semantics.aux_tables["shared"]:
            if role in state:
                self.database.table(smo.aux_table_name(role)).replace_all(state[role])

    # ------------------------------------------------------------------
    # Dropping schema versions
    # ------------------------------------------------------------------

    def drop_schema_version(self, name: str) -> None:
        with self._transition("drop", version=name):
            version, removed, dropped = self._drop_schema_version(name)
            self.catalog_generation += 1
            if self.live_backend is not None:
                self.live_backend.on_drop(version, removed, dropped)

    def _drop_schema_version(
        self, name: str
    ) -> tuple[SchemaVersion, list[SmoInstance], list[str]]:
        """The dropped version, the SMO instances that left the catalog and
        the tables that left the physical layout with them."""
        version = self.genealogy.schema_version(name)
        removable = self.genealogy.drop_schema_version(version.name)
        # SMOs no longer connecting remaining versions are garbage-collected
        # from the catalog; their data stays where the materialization put it.
        removed: list[SmoInstance] = []
        for smo in removable:
            if smo.materialized or any(
                self._is_physical(tv) for tv in smo.targets
            ):
                continue  # data would be lost; keep the SMO alive
            for tv in smo.targets:
                tv.incoming = None
            for tv in smo.sources:
                if smo in tv.outgoing:
                    tv.outgoing.remove(smo)
            self.genealogy.smo_instances.pop(smo.uid, None)
            removed.append(smo)
        self.genealogy.retire_dropped()
        return version, removed, self._lay_out(self.current_materialization())[1]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _is_physical(self, tv: TableVersion) -> bool:
        return self.database.has_table(tv.data_table_name)

    def _forward_smo(self, tv: TableVersion) -> SmoInstance | None:
        """The outgoing materialized SMO, if any (Case 2 of Section 6)."""
        for smo in tv.outgoing:
            if smo.materialized:
                return smo
        return None

    def _route_smo(self, tv: TableVersion) -> SmoInstance | None:
        """The SMO a derived table version's reads are routed through."""
        if self._is_physical(tv):
            return None
        forward = self._forward_smo(tv)
        if forward is not None:
            return forward
        if tv.incoming is not None and not tv.incoming.is_initial:
            return tv.incoming
        return None

    def _derivation(self, tv: TableVersion) -> tuple[SmoInstance, bool, str]:
        """``(SMO, forward?, role)``: the map a derived table version's
        extent comes out of (Cases 2 and 3 of Section 6)."""
        forward = self._forward_smo(tv)
        if forward is not None:
            return forward, False, forward.semantics.source_roles[forward.sources.index(tv)]
        smo = tv.incoming
        if smo is not None and not smo.is_initial:
            return smo, True, smo.semantics.target_roles[smo.targets.index(tv)]
        raise AccessError(f"table version {tv!r} has no data route")  # pragma: no cover

    def _derive(
        self, tv: TableVersion, cache: ReadCache, keys: set[Key] | None = None
    ) -> KeyedRows:
        smo, forward, role = self._derivation(tv)
        output_side = "target" if forward else "source"
        ctx = EngineMapContext(self, smo, output_side=output_side, cache=cache)
        semantics = smo.semantics
        state = (semantics.map_forward if forward else semantics.map_backward)(ctx, keys)
        return state.get(role, {})

    def read_table_version(
        self, tv: TableVersion, *, cache: ReadCache | None = None
    ) -> KeyedRows:
        """The visible extent of a table version (Cases 1–3 of Section 6)."""
        if cache is not None and tv.uid in cache:
            return cache[tv.uid]
        if self._is_physical(tv):
            extent = self.database.table(tv.data_table_name).as_dict()
        else:
            cache = cache if cache is not None else {}
            extent = self._derive(tv, cache)
        if cache is not None:
            cache[tv.uid] = extent
        return extent

    def read_table_version_keys(
        self, tv: TableVersion, keys: set[Key], *, cache: ReadCache | None = None
    ) -> KeyedRows:
        """Key-restricted read.  A derived table version's map reads what
        the rows of ``keys`` need (see :meth:`SmoSemantics.map_forward`)."""
        if self._is_physical(tv):
            table = self.database.table(tv.data_table_name)
            return {key: row for key in keys if (row := table.get(key)) is not None}
        if cache is not None and tv.uid in cache:
            extent = cache[tv.uid]
            return {key: extent[key] for key in keys if key in extent}
        return self._derive(tv, cache if cache is not None else {}, keys)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def allocate_key(self) -> Key:
        return self.database.next_value()

    def apply_change(self, tv: TableVersion, change: TableChange) -> None:
        """Apply a write to a table version.

        Mirrors the paper's cascading-trigger architecture: the change
        travels to every table version "as long as some data is physically
        stored with a table version either in the data table or in
        auxiliary tables" — i.e. toward the physical home *and* along any
        virtual branch that ends in stored auxiliary state (e.g. the ID
        tables of an identifier-generating SMO).
        """
        if change.empty:
            return
        own_log = self._undo_log is None
        if own_log:
            self._undo_log = []
        try:
            self._propagate_batch([(tv, change)], cache={}, visited={})
        except Exception:
            if own_log:
                self._rollback()
            raise
        finally:
            if own_log:
                self._undo_log = None

    def _rollback(self) -> None:
        self._rollback_to(0)

    def _rollback_to(self, mark: int) -> None:
        """Undo journal entries back to ``mark`` (a savepoint: the journal
        length at the time the guarded scope began)."""
        assert self._undo_log is not None
        while len(self._undo_log) > mark:
            table_name, key, old_row = self._undo_log.pop()
            if not self.database.has_table(table_name):
                continue
            table = self.database.table(table_name)
            if old_row is None:
                table.discard(key)
            else:
                table.upsert(key, old_row)
        self._invalidate_semantics_caches()

    def _invalidate_semantics_caches(self) -> None:
        for smo in self.genealogy.smo_instances.values():
            if smo.semantics is not None:
                smo.semantics.invalidate_caches()

    def _apply_physical(self, table: Table, change: TableChange) -> None:
        log = self._undo_log
        for key in change.deletes:
            old = table.discard(key)
            if log is not None and old is not None:
                log.append((table.name, key, old))
        for key, row in change.upserts.items():
            old = change.replaced[key] = table.get(key)
            if log is not None:
                log.append((table.name, key, old))
            table.upsert(key, row)

    def _is_storage_route(self, tv: TableVersion, smo: SmoInstance) -> bool:
        """Is ``smo`` the SMO through which ``tv``'s data reaches storage?"""
        if smo.is_initial:
            return False
        if tv in smo.sources:
            return smo.materialized
        return not smo.materialized and not self._is_physical(tv) and self._forward_smo(tv) is None

    def _needs_propagation(self, smo: SmoInstance, direction: str) -> bool:
        """Does anything physically stored lie on or beyond the far side of
        ``smo`` in ``direction``? (Memoized per materialization epoch.)"""
        key = (smo.uid, direction)
        cached = self._propagation_needs.get(key)
        if cached is not None:
            return cached
        self._propagation_needs[key] = False  # break exploration cycles
        semantics = smo.semantics
        result = False
        if semantics is not None and semantics.aux_shared():
            result = True
        elif direction == "forward":
            if smo.materialized:
                result = True  # data and aux_tgt live there
            else:
                result = any(
                    self._needs_propagation(nxt, "forward" if far_tv in nxt.sources else "backward")
                    for far_tv in smo.targets
                    for nxt in ([far_tv.incoming] if far_tv.incoming not in (None, smo) else [])
                    + [out for out in far_tv.outgoing if out is not smo]
                    if nxt is not None and not nxt.is_initial
                )
        else:
            if not smo.materialized:
                result = True  # data and aux_src live there
            else:
                result = any(
                    self._needs_propagation(nxt, "forward" if far_tv in nxt.sources else "backward")
                    for far_tv in smo.sources
                    for nxt in ([far_tv.incoming] if far_tv.incoming not in (None, smo) else [])
                    + [out for out in far_tv.outgoing if out is not smo]
                    if nxt is not None and not nxt.is_initial
                )
        self._propagation_needs[key] = result
        return result

    def _propagate_batch(
        self,
        batch: list[tuple[TableVersion, TableChange]],
        cache: ReadCache,
        visited: dict[int, str],
    ) -> None:
        """One wavefront step: apply the physical parts of the batch, then
        carry the changes across every adjacent SMO that leads to stored
        state and has not been crossed the other way (``visited``: uid ->
        direction) — never back across the SMO that wrote them, but again
        across one a change reaches along a second path, as the delta
        code's cascade does. Changes destined for one SMO are grouped so
        multi-source SMOs (MERGE, JOIN) see all their roles at once."""
        for tv, change in batch:
            if change.empty:
                continue
            cache.pop(tv.uid, None)
            if self._is_physical(tv):
                self._apply_physical(self.database.table(tv.data_table_name), change)
            elif self._forward_smo(tv) is None and (
                tv.incoming is None or tv.incoming.is_initial
            ):
                raise AccessError(f"table version {tv!r} accepts no writes (no data route)")

        # Group the batch's changes by adjacent SMO and direction.
        grouped: dict[int, tuple[SmoInstance, str, dict[str, TableChange]]] = {}
        order: list[int] = []
        for tv, change in batch:
            if change.empty:
                continue
            adjacent = [smo for smo in tv.outgoing]
            if tv.incoming is not None and not tv.incoming.is_initial:
                adjacent.append(tv.incoming)
            for smo in adjacent:
                if smo.is_initial:
                    continue
                direction = "forward" if tv in smo.sources else "backward"
                if visited.get(smo.uid, direction) != direction:
                    continue
                is_route = self._is_storage_route(tv, smo)
                if not is_route and not self._needs_propagation(smo, direction):
                    continue
                if smo.uid not in grouped:
                    grouped[smo.uid] = (smo, direction, {})
                    if is_route:
                        order.insert(0, smo.uid)  # storage routes run first
                    else:
                        order.append(smo.uid)
                semantics = smo.semantics
                roles = (
                    dict(zip(semantics.source_roles, smo.sources))
                    if direction == "forward"
                    else dict(zip(semantics.target_roles, smo.targets))
                )
                for role, role_tv in roles.items():
                    if role_tv is tv:
                        grouped[smo.uid][2][role] = change

        for smo_uid in order:
            smo, direction, role_changes = grouped[smo_uid]
            if smo_uid in visited:
                cache.clear()  # a second path: what the first wrote is read afresh
            visited[smo_uid] = direction
            forward = direction == "forward"
            ctx = EngineMapContext(
                self, smo, output_side="target" if forward else "source", cache=cache,
                changes=role_changes,
            )
            out = smo.semantics.put(forward, role_changes, ctx)
            self._dispatch(smo, out, direction=direction, cache=cache, visited=visited)

    def _dispatch(
        self,
        smo: SmoInstance,
        outputs: dict[str, TableChange],
        *,
        direction: str,
        cache: ReadCache,
        visited: dict[int, str],
    ) -> None:
        semantics = smo.semantics
        data_roles = (
            dict(zip(semantics.target_roles, smo.targets))
            if direction == "forward"
            else dict(zip(semantics.source_roles, smo.sources))
        )
        next_batch: list[tuple[TableVersion, TableChange]] = []
        for role, change in outputs.items():
            if change.empty:
                continue
            tv = data_roles.get(role)
            if tv is not None:
                next_batch.append((tv, change))
                continue
            table_name = smo.aux_table_name(role)
            if self.database.has_table(table_name):
                self._apply_physical(self.database.table(table_name), change)
            # aux roles the layout does not store are simply not persisted
        if next_batch:
            self._propagate_batch(next_batch, cache, visited)

    # ------------------------------------------------------------------
    # Database Migration Operation (Section 7)
    # ------------------------------------------------------------------

    def materialize(
        self,
        targets: Iterable[str],
        *,
        online: bool = False,
        chunk_rows: int | None = None,
    ) -> None:
        """``MATERIALIZE 'version'`` / ``MATERIALIZE 'version.table', ...``

        One move on one of two schedules.  Offline, prepare and cutover
        run under one hold of the catalog write lock.  ``online=True``
        (BiDEL ``MATERIALIZE ONLINE``) journals the move and copies the
        new physical tables in chunks under the read side of the lock, so
        statements keep flowing and only the prepare and cutover take
        brief write-lock windows; ``chunk_rows`` overrides the chunk size.
        Without a live backend the move is offline either way (the pure
        in-memory engine, where it is a dict swap).
        """
        backend = self.live_backend if online else None
        started = time.perf_counter()
        with self.catalog_lock.write_locked():
            self._ensure_no_online_move()
            schema = self.resolve_materialization(targets)
            if backend is None:
                self._cut_over(schema)
                return
            validate_materialization(self.genealogy, schema)
            self._backfill_phase.set(1)
            self._quiesce_backend()
            move = backend.prepare_move(schema, chunk_rows)
            self._online_materialize_active = True
            self._backfill_phase.set(2)
        try:
            done = False
            while not done:
                with self.catalog_lock.read_locked():
                    done = backend.copy_chunk(move)
                self._backfill_chunks.set(move.chunks)
                self._backfill_rows.set(move.rows)
            self._backfill_phase.set(3)
            # The guard stays up through the cutover: _cut_over re-enters
            # the write lock and never checks it, while any other
            # transition slipping in before it would still be refused.
            with (self.online_cutover_hook or nullcontext)():
                self._cut_over(schema, move)
        finally:
            self._online_materialize_active = False
            self._backfill_phase.set(0)
        self._online_materialize_seconds.observe(time.perf_counter() - started)

    def resolve_materialization(
        self, targets: Iterable[str]
    ) -> frozenset[SmoInstance]:
        """The materialization schema ``MATERIALIZE targets`` moves to;
        raises :class:`MaterializationError` for a refused target set."""
        table_versions: list[TableVersion] = []
        for target in targets:
            if "." in target:
                version_name, table_name = target.split(".", 1)
                version = self.genealogy.schema_version(version_name)
                table_versions.append(version.table_version(table_name))
            else:
                version = self.genealogy.schema_version(target)
                table_versions.extend(version.tables.values())
        return materialization_for_versions(self.genealogy, table_versions)

    def _ensure_no_online_move(self) -> None:
        """Catalog transitions are refused (not queued) while an online
        backfill is in flight: they would invalidate the staged copies,
        and failing fast keeps the DDL caller from deadlocking behind a
        move that may take minutes."""
        if self._online_materialize_active:
            raise CatalogError(
                "an online MATERIALIZE backfill is in flight; retry the "
                "catalog transition after it cuts over"
            )

    def apply_materialization(self, schema: frozenset[SmoInstance]) -> None:
        """Move the physical data representation to ``schema`` offline.

        All new physical contents (data tables and auxiliary tables) are
        computed from the *current* state through the existing delta code,
        then swapped in atomically; afterwards every SMO's materialization
        flag is updated and obsolete tables are dropped.
        """
        with self.catalog_lock.write_locked():
            self._ensure_no_online_move()
            self._cut_over(schema)

    def _cut_over(self, schema: frozenset[SmoInstance], move=None) -> None:
        """A move's cutover: the whole offline move, or the end of the
        online ``move`` whose chunks have run.  A live backend runs it as
        one transaction and calls back into :meth:`_relayout` inside it."""
        with self._transition("materialize"):
            validate_materialization(self.genealogy, schema)
            if self.live_backend is None:
                self._relayout(schema)
            else:
                self.live_backend.on_materialize(schema, lambda: self._relayout(schema), move)

    def _relayout(self, schema: frozenset[SmoInstance]) -> None:
        """Lay the storage out for ``schema`` (its new tables derived from
        the current state while the engine holds rows) and flip the
        materialization flags."""
        self._lay_out(schema, derive=True)
        for smo in self.genealogy.evolution_smos():
            smo.materialized = smo in schema
        self._invalidate_semantics_caches()
        self._propagation_needs.clear()
        # Inside the backend's transaction, so a persisting backend records
        # the new generation with the regenerated delta code.  Only ever
        # called from _cut_over(), whose _transition holds the write lock.
        self.catalog_generation += 1  # repro-lint: allow(RPC302)

    def _lay_out(
        self, schema: frozenset[SmoInstance], *, derive: bool = False
    ) -> tuple[dict[str, TableSchema], list[str]]:
        """Bring the stored tables to :func:`physical_layout` of ``schema``;
        returns ``(created, dropped)``.  A table the layout keeps keeps its
        rows: no map recovers all an aux table holds (a computed column's
        values stay computed).  A new one is empty, unless ``derive`` and
        the engine holds the rows (not a live backend): then it takes, as
        of before the change, its table version's extent or its role's rows
        of its SMO's map toward the side ``schema`` stores."""
        layout = physical_layout(self.genealogy, schema)
        old = self.database.tables
        created = {name: spec for name, spec in layout.items() if name not in old}
        tables = {name: old[name] if name in old else Table(spec) for name, spec in layout.items()}
        if derive and created and self.live_backend is None and any(old.values()):
            cache: ReadCache = {}
            for tv in self.genealogy.table_versions.values():
                if tv.data_table_name in created:
                    extent = self.read_table_version(tv, cache=cache)
                    tables[tv.data_table_name].replace_all(extent)
            for smo in self.genealogy.evolution_smos():
                roles = {n: role for n, role in smo.aux_table_names().items() if n in created}
                if not roles:
                    continue
                semantics, forward = smo.semantics, smo in schema
                ctx = EngineMapContext(
                    self, smo, output_side="target" if forward else "source", cache=cache
                )
                state = (semantics.map_forward if forward else semantics.map_backward)(ctx)
                for name, role in roles.items():
                    tables[name].replace_all(state.get(role, {}))
        self.database.tables = tables
        return created, [name for name in old if name not in layout]

    def current_materialization(self) -> frozenset[SmoInstance]:
        return current_materialization(self.genealogy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def physical_tables(self) -> list[str]:
        return self.database.table_names()

    def version_names(self) -> list[str]:
        """Active schema version names in genealogy (insertion) order.

        The order is deterministic and creation-ordered on purpose: the
        persisted catalog log, the catalog fingerprint, and replay-based
        recovery all depend on genealogy iteration being stable across
        runs (sorting by name would make it depend on what versions are
        *called*)."""
        return [v.name for v in self.genealogy.active_versions()]

    def catalog_fingerprint(self) -> str:
        """The deterministic fingerprint of the whole catalog (versions,
        materialization, physical layout), memoized per generation."""
        memo = self._fingerprint_memo
        if memo is not None and memo[0] == self.catalog_generation:
            return memo[1]
        from repro.persist.fingerprint import catalog_fingerprint

        fingerprint = catalog_fingerprint(self)
        self._fingerprint_memo = (self.catalog_generation, fingerprint)
        return fingerprint
