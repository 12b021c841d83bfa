"""The traced pass: spans, the layer peel, and the per-layer probes.

Layers are measured from *outside*.  A statement is issued

(a) over TCP through ``connect_remote``,
(b) in-process through ``repro.connect``,
(c) as its rendered ``backend_sql`` (from ``EXPLAIN``) on a bare
    ``sqlite3`` handle on the same file, configured like a pooled session
    — writes inside ``BEGIN IMMEDIATE … ROLLBACK``, so state is untouched,
(d) as the equivalent statement on the floor's plain table holding the
    rows the pin's table shows,

in blocks of a dozen statements per level (back-to-back statements on one
handle, as in the steady phase, yet all levels within milliseconds of each
other), and a layer's self time is the difference of neighbouring levels:
``server`` = a − b, ``sql`` = b − c, ``backend`` (view or trigger) = c − d,
``floor`` = d.  Every level's sample is calibrated like a statement sample
(between two kernel probes).

Spans are ``{name, start, end, parent, op_id}`` records kept in memory and
written out once, at exit.
"""

from __future__ import annotations

import json
import re
import statistics
import time

import repro
from repro.backend import codegen
from repro.backend.emit import ROW_ID_SEQUENCE, SEQUENCES_TABLE
from repro.backend.planner import compile_statement_sqlite
from repro.bidel import parse_script
from repro.check.delta import verify_delta_code
from repro.persist.recovery import replay_into, verify_catalog, verify_layout
from repro.persist.store import CatalogStore
from repro.sql.parser import SqlParser

import floor as floor_module
from opgen import CLASSES, PIPELINE, PIPELINE_STATEMENTS, RANGE_ROWS, Statements
from scenarios import ROLES, TableSpec, own_key_base

LEVELS = ("wire", "inproc", "backend_sql", "floor")
PEEL_POINT_READS = 48
PEEL_RANGE_READS = 12
PEEL_WRITE_TRIPLES = 16
#: Statements a level runs back to back before the next level takes over.
PEEL_BLOCK = 12
PROBE_REPEATS = 15


class Tracer:
    """In-memory span log.  A span is a tuple
    ``(name, start, end, parent, op_id)``; ``parent`` is the index of the
    enclosing span in the log (``None`` for a root), ``op_id`` is shared
    by all spans of one operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._operations = 0

    def span(self, name: str, start: float, end: float,
             parent: int | None = None, op_id: int | None = None) -> int:
        if op_id is None:
            op_id = self._operations
            self._operations += 1
        self.spans.append((name, start, end, parent, op_id))
        return len(self.spans) - 1

    def statements(self, ops, starts, mids, ends) -> None:
        """One round's statements: a root span per statement with an
        ``execute`` and a ``fetch`` child where the two were separable."""
        for (cls, pin, _sql, _params, _expect), start, mid, end in zip(ops, starts, mids, ends):
            name = "pipeline" if cls == PIPELINE else CLASSES[cls]
            root = self.span(f"stmt.{name}", start, end)
            if mid:
                op_id = self.spans[root][4]
                self.span("execute", start, mid, root, op_id)
                self.span("fetch", mid, end, root, op_id)

    def leaf_cycle(self, version: str, t0, t1, t2, t3, t4) -> None:
        root = self.span(f"leaf_cycle.{version}", t0, t4)
        op_id = self.spans[root][4]
        for name, start, end in (
            ("core.evolve", t0, t1), ("stall_probes", t1, t2),
            ("leaf_statements", t2, t3), ("core.drop", t3, t4),
        ):
            self.span(name, start, end, root, op_id)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")


def self_times(spans) -> dict[str, float]:
    """Σ self time by span name: a span's duration minus the part of it
    its child spans cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        stem = name.split(".")[0] if name.startswith("leaf_cycle") else name
        totals[stem] = totals.get(stem, 0.0) + (end - start) - covered[index]
    return totals


def _explain(connection, sql: str) -> dict[str, str]:
    return dict(connection.execute(f"EXPLAIN {sql}").fetchall())


def _highest_parameter(sql: str) -> int:
    return max((int(n) for n in re.findall(r"\?(\d+)", sql)), default=0)


class BackendStatement:
    """What the backend planner sends to SQLite for one statement text,
    replayed on a bare handle (level c)."""

    def __init__(self, connection, sql: str):
        report = _explain(connection, sql)
        self.kind = report["statement_kind"]
        self.sql = report["backend_sql"]
        self.view_sql = report.get("view_sql", "")
        count_sql = report.get("count_sql")
        self.count_sql = count_sql
        self.where_parameters = _highest_parameter(count_sql) if count_sql else 0

    def run(self, handle, params):
        """Execute like ``backend/planner.py``'s plan objects do.  Writes
        are left inside the open transaction for the caller to roll back."""
        if self.kind == "select":
            return handle.execute(self.sql, params).fetchall()
        handle.execute("BEGIN IMMEDIATE")
        if self.kind == "insert":
            # The planner allocates the row identifier from the shared sequence.
            handle.execute(
                f"UPDATE {SEQUENCES_TABLE} SET value = value + 1 WHERE name = ?",
                (ROW_ID_SEQUENCE,),
            )
            (key,) = handle.execute(
                f"SELECT value FROM {SEQUENCES_TABLE} WHERE name = ?", (ROW_ID_SEQUENCE,)
            ).fetchone()
            # Columns the statement does not name trail the ones it does
            # (every scenario table lists the base columns first).
            padding = (None,) * (self.sql.count("?") - 1 - len(params))
            handle.execute(self.sql, (key, *params, *padding))
            return 1
        where = params[: self.where_parameters]
        (count,) = handle.execute(self.count_sql, where).fetchone()
        if count:
            handle.execute(self.sql, params if self.kind == "update" else where)
        return count


class Peel:
    """Runs the peel on a live system and keeps every level's calibrated
    samples, by class."""

    def __init__(self, run):
        self.run = run
        self.system = run.system
        self.scenario = run.scenario
        self.floor = run.floor
        self.generator = run.generator
        #: samples[class index][level] -> calibrated seconds
        self.samples = [{level: [] for level in LEVELS} for _ in CLASSES]
        self.mismatches = 0

    def _timed(self, action):
        probe = self.floor.probe
        before = probe()
        start = time.perf_counter()
        result = action()
        end = time.perf_counter()
        after = probe()
        return floor_module.probe_calibrated(end - start, before, after), start, end, result

    def run_all(self) -> None:
        system = self.system
        system.start_server()
        handle = floor_module.plain_handle(system.path)
        try:
            for pin, role in enumerate(ROLES):
                version = self.scenario.pins[role].version
                remote = system.remote(version)
                local = system.local(version)
                try:
                    self._peel_pin(pin, remote, local, handle)
                finally:
                    remote.close()
                    local.close()
        finally:
            handle.close()

    def _peel_pin(self, pin: int, remote, local, handle) -> None:
        scenario, generator, rng = self.scenario, self.generator, self.generator.rng
        role = ROLES[pin]
        texts = Statements(scenario, scenario.pins[role].primary)
        plain = _plain_statements(scenario, role)
        backend = {
            kind: BackendStatement(local, getattr(texts, kind))
            for kind in ("point", "range", "insert", "update", "delete")
        }
        floor_handle = self.floor.connection

        def through(connection, kind, params, is_read):
            cursor = connection.execute(getattr(texts, kind), params)
            return cursor.fetchall() if is_read else cursor.rowcount

        def on_floor(kind, params, is_read):
            if is_read:
                return floor_handle.execute(getattr(plain, kind), params).fetchall()
            floor_handle.execute("BEGIN IMMEDIATE")
            return floor_handle.execute(getattr(plain, kind), params).rowcount

        actions = {
            "wire": lambda kind, params, is_read: through(remote, kind, params, is_read),
            "inproc": lambda kind, params, is_read: through(local, kind, params, is_read),
            "backend_sql": lambda kind, params, _is_read: backend[kind].run(handle, params),
            "floor": on_floor,
        }
        rollback = {"backend_sql": handle, "floor": floor_handle}

        def block(cls, jobs, is_read):
            """``jobs`` maps each level to its (kind, params) list — the
            same statements, on keys of the level's own where it really
            writes.  A level runs its whole list before the next level
            starts: back-to-back statements on one handle, the way the
            steady phase issues them, yet all four levels within
            milliseconds of each other."""
            results = {}
            for level in reversed(LEVELS):
                action, undo = actions[level], rollback.get(level)
                outcomes = []
                for kind, params in jobs[level]:
                    value, start, end, outcome = self._timed(
                        lambda: action(kind, params, is_read)
                    )
                    if undo is not None and not is_read:
                        undo.execute("ROLLBACK")
                    self.samples[cls][level].append(value)
                    outcomes.append(outcome)
                    if self.run.tracer is not None:
                        self.run.tracer.span(f"peel.{level}.{CLASSES[cls]}", start, end)
                results[level] = outcomes
            for a, b, c in zip(results["wire"], results["inproc"], results["backend_sql"]):
                same = (
                    sorted(a) == sorted(b) == sorted(tuple(row) for row in c)
                    if is_read else a == b == c == 1
                )
                self.mismatches += not same

        keys = generator.initial_keys[pin]
        reads = ["point"] * PEEL_POINT_READS + ["range"] * PEEL_RANGE_READS
        rng.shuffle(reads)
        jobs = []
        for kind in reads:
            if kind == "point":
                jobs.append((kind, (rng.choice(keys),)))
            else:
                first = rng.randrange(len(keys) - RANGE_ROWS)
                jobs.append((kind, (keys[first], keys[first + RANGE_ROWS])))
        for first in range(0, len(jobs), PEEL_BLOCK):
            chunk = jobs[first : first + PEEL_BLOCK]
            block(pin, {level: chunk for level in LEVELS}, True)
        # Writes come in INSERT / UPDATE / DELETE triples.  Both transports
        # really execute them, each on keys of its own, and leave the data
        # as it was; the two bare-SQLite levels roll every statement back,
        # so they update and delete a row that was there from the start.
        for first in range(0, PEEL_WRITE_TRIPLES, PEEL_BLOCK // 3):
            jobs = {level: [] for level in LEVELS}
            for triple in range(first, min(first + PEEL_BLOCK // 3, PEEL_WRITE_TRIPLES)):
                value = scenario.update_value(rng)
                wire_key = own_key_base(5 + pin) + triple
                local_key = wire_key + 1_000_000
                spare_key = wire_key + 2_000_000
                old_key = rng.choice(keys)
                for level, key in (("wire", wire_key), ("inproc", local_key)):
                    jobs[level] += [
                        ("insert", scenario.fresh_row(role, key, rng)),
                        ("update", (value, key)),
                        ("delete", (key,)),
                    ]
                for level in ("backend_sql", "floor"):
                    jobs[level] += [
                        ("insert", scenario.fresh_row(role, spare_key, rng)),
                        ("update", (value, old_key)),
                        ("delete", (old_key,)),
                    ]
            block(3 + pin, jobs, False)

    # -- results --------------------------------------------------------------

    def median(self, cls: int, level: str) -> float:
        return statistics.median(self.samples[cls][level]) * 1000.0

    def difference(self, classes, upper: str, lower: str) -> float:
        """Median over the classes' statements of the paired difference
        of two levels, in ms."""
        pairs = [
            u - l
            for cls in classes
            for u, l in zip(self.samples[cls][upper], self.samples[cls][lower])
        ]
        return statistics.median(pairs) * 1000.0


def _plain_statements(scenario, role: str) -> Statements:
    """The pin's statements addressed to its plain table in the floor."""
    return Statements(
        scenario, TableSpec(f"plain_{role}", scenario.base_columns, lambda _row: True)
    )


def _timed_ms(action, repeats: int = PROBE_REPEATS) -> float:
    """Median wall milliseconds of ``repeats`` calls of ``action``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000.0


def _count_steps(handle, action) -> int:
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        return 0

    handle.set_progress_handler(tick, 1)
    try:
        action()
    finally:
        handle.set_progress_handler(None, 1)
    return steps


def _count_traced(handle, action) -> int:
    statements = 0

    def traced(_text):
        nonlocal statements
        statements += 1

    handle.set_trace_callback(traced)
    try:
        action()
    finally:
        handle.set_trace_callback(None)
    return statements


def statement_probes(run) -> dict[str, float]:
    """Counts and times of single statements, taken on the live system:
    VM steps, trigger invocations, view size, parse / plan / cold cost,
    pipelining."""
    system, scenario, generator = run.system, run.scenario, run.generator
    values: dict[str, float] = {}
    handle = floor_module.plain_handle(system.path)
    try:
        for pin, role in enumerate(ROLES):
            pin_spec = scenario.pins[role]
            texts = Statements(scenario, pin_spec.primary)
            connection = system.local(pin_spec.version)
            try:
                point = BackendStatement(connection, texts.point)
                update = BackendStatement(connection, texts.update)
            finally:
                connection.close()
            key = generator.initial_keys[pin][0]
            new_value = scenario.update_value(generator.rng)
            values[f"backend.view_sql_bytes.{role}"] = len(point.view_sql.encode())
            values[f"backend.view_vm_steps.{role}"] = _count_steps(
                handle, lambda: point.run(handle, (key,))
            )

            def write():
                update.run(handle, (new_value, key))
                handle.execute("ROLLBACK")

            values[f"backend.trigger_vm_steps.{role}"] = _count_steps(handle, write)
            # BEGIN IMMEDIATE, the count query and ROLLBACK are traced too;
            # they are the same three on every pin.
            values[f"backend.trigger_invocations.{role}"] = _count_traced(handle, write)
    finally:
        handle.close()

    local = scenario.pins["local"]
    version = system.engine.genealogy.schema_version(local.version)
    texts = Statements(scenario, local.primary)
    class_texts = [texts.point, texts.range, texts.insert, texts.update, texts.delete]
    values["sql.parse_ms"] = statistics.median(
        _timed_ms(lambda text=text: SqlParser(text).parse_statement()) for text in class_texts
    )
    parsed = [SqlParser(text).parse_statement() for text in class_texts]
    values["sql.plan_ms"] = statistics.median(
        _timed_ms(lambda stmt=stmt: compile_statement_sqlite(version, stmt)) for stmt in parsed
    )

    cached = system.local(local.version)
    cold = system.local(local.version, plan_cache=False)
    try:
        keys = generator.initial_keys[0]
        differences = []
        probe = run.floor.probe
        for index in range(4 * PROBE_REPEATS):
            params = (keys[index % len(keys)],)
            pair = []
            for connection in (cached, cold):
                before = probe()
                start = time.perf_counter()
                connection.execute(texts.point, params).fetchall()
                wall = time.perf_counter() - start
                pair.append(floor_module.probe_calibrated(wall, before, probe()))
            differences.append(pair[1] - pair[0])
        values["sql.cold_extra_ms"] = statistics.median(differences) * 1000.0
    finally:
        cached.close()
        cold.close()

    system.start_server()
    remote = system.remote(local.version)
    try:
        batch = [(texts.point, (keys[i],)) for i in range(PIPELINE_STATEMENTS)]
        samples = []
        for _ in range(2 * PROBE_REPEATS):
            before = probe()
            start = time.perf_counter()
            for cursor in remote.pipeline(batch):
                cursor.fetchall()
            wall = time.perf_counter() - start
            samples.append(floor_module.probe_calibrated(wall, before, probe()))
        values["server.pipeline_stmt_ms"] = (
            statistics.median(samples) * 1000.0 / PIPELINE_STATEMENTS
        )
    finally:
        remote.close()
    return values


def catalog_probes(run) -> dict[str, float]:
    """Code generation and installed delta code of the live system."""
    system, scenario = run.system, run.scenario
    engine, backend = system.engine, system.backend
    values: dict[str, float] = {}
    leaf = scenario.leaf(10_000)
    values["bidel.parse_ms"] = _timed_ms(lambda: parse_script(leaf.create))
    values["backend.codegen_ms"] = _timed_ms(
        lambda: (codegen.view_statements(engine), codegen.trigger_statements(engine)), 5
    )
    values["backend.regenerate_ms"] = _timed_ms(backend.regenerate, 3)
    views, triggers = codegen.generated_object_names(backend.connection)
    values["backend.generated_objects"] = len(views) + len(triggers)
    values["backend.generated_sql_bytes"] = len(backend.generated_sql().encode())
    chunks = system.connections[0].stats()["metrics"]["repro_backfill_chunks"]["series"]
    values["backend.online_chunks"] = chunks[0]["value"] if chunks else 0
    return values


def _table_bytes(handle, pattern: str) -> int:
    names = [
        name for (name,) in handle.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name GLOB ?", (pattern,)
        )
    ]
    total = 0
    for name in names:
        (size,) = handle.execute(
            "SELECT coalesce(sum(pgsize), 0) FROM dbstat WHERE name = ?", (name,)
        ).fetchone()
        total += size
    return total


def file_probes(path: str) -> dict[str, float]:
    """What the closed database file holds, and what recovering it costs
    phase by phase."""
    values: dict[str, float] = {}
    handle = floor_module.plain_handle(path)
    try:
        count = lambda pattern: handle.execute(  # noqa: E731
            "SELECT count(*) FROM sqlite_master WHERE type = 'table' AND name GLOB ?",
            (pattern,),
        ).fetchone()[0]
        values["backend.physical_tables"] = count("d__*")
        values["backend.aux_tables"] = count("aux__*")
        values["backend.aux_bytes"] = _table_bytes(handle, "aux__*")
        values["persist.catalog_bytes"] = _table_bytes(handle, "_repro_catalog_*")
        state = CatalogStore(handle).load()
        values["persist.log_entries"] = len(state.entries)
        values["persist.replay_ms"] = _timed_ms(
            lambda: replay_into(repro.InVerDa(), state.entries), 3
        )
        engine = repro.InVerDa()
        replay_into(engine, state.entries)
        values["persist.verify_ms"] = _timed_ms(
            lambda: (verify_catalog(engine, state), verify_layout(engine, handle)), 3
        )
        values["check.verify_ms"] = _timed_ms(lambda: verify_delta_code(engine), 3)
    finally:
        handle.close()
    return values
