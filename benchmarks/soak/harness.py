"""The continuous-evolution soak harness.

One live, SQLite-backed engine serves a sustained multi-client mixed
read/write workload (the orders scenario, clients pinned to skewed
schema versions) while a seeded SMO stream keeps evolving the catalog
underneath them.  A second, in-memory engine acts as the *differential
oracle*: every acknowledged write and every executed DDL script is
appended to an ordered operation log, and at sync barriers the log is
replayed onto the oracle and the two visible states must match under
canonical comparison.

Why replaying a log is sound here: each client only writes rows it owns
(disjoint ``order_no`` strides / ``sku`` ranges), so committed writes
*commute* — any serialization of them between two DDL boundaries yields
the same logical state.  The log lock makes DDL a strict boundary: a
write acknowledged before a drop can never be logged after it.

Lock ordering is ``stream lock -> engine catalog lock``, everywhere:

- clients hold the stream lock's *read* side around each operation
  (execute + log append);
- the SMO thread and the barrier hold the *write* side, so DDL and
  differential checks see a quiesced log.
"""

from __future__ import annotations

import os
import random
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.backend.sqlite import LiveSqliteBackend
from repro.check import error_count, preflight_script, verify_delta_code
from repro.core.engine import RWLock
from repro.errors import OperationalError
from repro.relational.types import DataType
from repro.sql.connection import connect
from repro.workloads.orders import (
    PROTECTED_COLUMNS,
    build_orders,
    order_no_for,
    tenant_name,
)

from soak.probes import FinalState, Probe, make_probes
from soak.stream import SmoStream
from tests.testing.compare import assert_states_match, visible_state
from tests.testing.faults import InjectedFault, RandomFaultInjector


@dataclass
class SoakConfig:
    seed: int = 42
    duration: float = 10.0
    clients: int = 4
    smo_rate: float = 0.5  # expected SMO stream events per second
    transport: str = "inproc"  # "inproc" | "tcp"
    barrier_interval: float = 5.0
    probes: list[str] | None = None  # None = all registered probes
    p95_budget_ms: float = 2500.0
    orders_per_tenant: int = 20
    inventory_per_tenant: int = 4
    initial_versions: int = 3
    upgrade_rate: float = 0.03  # per-op chance a client re-pins to a new version
    version_skew: float = 2.0
    fault_rates: dict[str, float] = field(default_factory=dict)
    database: str | None = None  # None -> a temporary file (WAL mode)
    max_versions: int = 9

    def __post_init__(self) -> None:
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(f"transport must be 'inproc' or 'tcp', not {self.transport!r}")
        if self.clients < 1:
            raise ValueError("need at least one client")

    def repro_command(self) -> str:
        """The exact one-command replay for this configuration."""
        parts = [
            "python benchmarks/soak",
            f"--seed {self.seed}",
            f"--duration {self.duration:g}",
            f"--clients {self.clients}",
            f"--smo-rate {self.smo_rate:g}",
            f"--transport {self.transport}",
        ]
        if self.barrier_interval != 5.0:
            parts.append(f"--barrier-interval {self.barrier_interval:g}")
        if self.fault_rates:
            spec = ",".join(f"{point}={rate:g}" for point, rate in sorted(self.fault_rates.items()))
            parts.append(f"--inject-fault '{spec}'")
        return " ".join(parts)


@dataclass
class LogEntry:
    kind: str  # "sql" | "ddl"
    version: str | None
    sql: str
    params: tuple


@dataclass
class _TableInfo:
    name: str
    columns: tuple[str, ...]
    updatable: tuple[str, ...]  # integer-valued, non-identity columns


@dataclass
class _VersionSchema:
    """A client's cached view of its pinned version (immutable once built:
    schema versions never mutate, they only get dropped)."""

    orders: list[_TableInfo]
    inventory: list[_TableInfo]

    @classmethod
    def of(cls, version) -> "_VersionSchema":
        orders, inventory = [], []
        for name in sorted(version.tables):
            schema = version.tables[name].schema
            columns = schema.column_names
            updatable = tuple(
                c.name for c in schema.columns
                if c.dtype is not DataType.TEXT and c.name not in PROTECTED_COLUMNS
            )
            info = _TableInfo(name, columns, updatable)
            if "order_no" in columns:
                orders.append(info)
            elif "sku" in columns:
                inventory.append(info)
        return cls(orders, inventory)


class _Client(threading.Thread):
    """One simulated app server: pinned to a schema version, running a
    mixed read/write stream over rows it owns."""

    def __init__(self, harness: "SoakHarness", index: int, pin: str):
        super().__init__(name=f"soak-client-{index}", daemon=True)
        self.h = harness
        self.index = index
        self.tenant = tenant_name(index)
        self.rng = random.Random(harness.config.seed * 7919 + index)
        self.next_serial = harness.config.orders_per_tenant
        self.live_orders = [
            order_no_for(index, serial)
            for serial in range(harness.config.orders_per_tenant)
        ]
        self.skus = [
            f"{self.tenant}-sku{serial}"
            for serial in range(harness.config.inventory_per_tenant)
        ]
        self.pin = pin
        self.conn = None
        self.schema: _VersionSchema | None = None
        self.ops = 0
        self.retries = 0
        self.repins = 0
        self._want_repin = False

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> None:
        try:
            self._pin(self.pin)
            while not self.h.stop_event.is_set():
                if self._want_repin:
                    self._repin()
                    if self.h.stop_event.is_set():
                        break
                self._one_op()
        except Exception:
            self.h.record_crash(self.index, traceback.format_exc())
            self.h.stop_event.set()
        finally:
            self._close_conn()

    def _close_conn(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass
            self.conn = None

    def _pin(self, version: str) -> None:
        with self.h.stream_lock.read_locked():
            sv = self.h.live.genealogy.schema_version(version)
            schema = _VersionSchema.of(sv)
        self._close_conn()
        self.conn = self.h.open_conn(version)
        self.schema = schema
        self.pin = version
        self._want_repin = False

    def _repin(self) -> None:
        """Re-pin to a surviving version.  Weighted toward *newer*
        versions: a session only re-pins when its app server redeploys
        (or its version was dropped), and redeployments move forward —
        which also keeps some clients sitting on young leaf versions the
        SMO stream may drop out from under them."""
        for _ in range(5):
            with self.h.stream_lock.read_locked():
                actives = self.h.live.version_names()
                if not actives:
                    return
                weights = [
                    float(rank + 1) ** self.h.config.version_skew
                    for rank in range(len(actives))
                ]
                target = self.rng.choices(actives, weights=weights, k=1)[0]
            try:
                self._pin(target)
                self.repins += 1
                return
            except Exception:
                continue  # raced another drop; try again
        raise RuntimeError(f"client {self.index} could not re-pin after 5 attempts")

    # -- the op mix ---------------------------------------------------------

    def _one_op(self) -> None:
        if self.rng.random() < self.h.config.upgrade_rate:
            self._want_repin = True
            return
        draw = self.rng.random()
        if draw < 0.50:
            op = "read"
        elif draw < 0.75:
            op = "insert"
        elif draw < 0.90:
            op = "update"
        else:
            op = "delete"
        with self.h.stream_lock.read_locked():
            start = time.monotonic()
            try:
                getattr(self, "_op_" + op)()
            except Exception as exc:  # noqa: BLE001 - classified below
                self._classify_error(exc)
                return
            self.ops += 1
            self.h.emit_op(start, time.monotonic(), op)

    def _classify_error(self, exc: Exception) -> None:
        """Inside the stream read lock: the catalog cannot change under us."""
        if self.pin not in self.h.live.version_names():
            # Our version was dropped mid-session.  The documented
            # contract: the client sees a clean OperationalError.
            clean = isinstance(exc, OperationalError)
            self.h.emit_version_lost(self.pin, exc, clean)
            self._want_repin = True
            return
        if isinstance(exc, OperationalError) and "locked" in str(exc).lower():
            self.retries += 1  # transient sqlite contention; just go again
            return
        raise exc

    def _exec(self, sql: str, params: tuple = (), *, log: bool = False):
        cursor = self.conn.execute(sql, params)
        if log:
            self.h.log_sql(self.pin, sql, params)
        return cursor

    def _op_read(self) -> None:
        tables = self.schema.orders + self.schema.inventory
        info = self.rng.choice(tables)
        if "order_no" in info.columns:
            key = self.rng.choice(self.live_orders) if self.live_orders else 0
            self._exec(f"SELECT * FROM {info.name} WHERE order_no = ?", (key,))
        else:
            self._exec(f"SELECT * FROM {info.name} WHERE sku = ?", (self.rng.choice(self.skus),))

    def _op_insert(self) -> None:
        if not self.schema.orders:
            return
        info = self.rng.choice(self.schema.orders)
        order_no = order_no_for(self.index, self.next_serial)
        values = []
        for column in info.columns:
            if column == "tenant":
                values.append(self.tenant)
            elif column == "order_no":
                values.append(order_no)
            else:
                values.append(self.rng.randint(0, 9))
        placeholders = ", ".join("?" for _ in info.columns)
        self._exec(
            f"INSERT INTO {info.name}({', '.join(info.columns)}) VALUES ({placeholders})",
            tuple(values),
            log=True,
        )
        self.next_serial += 1
        self.live_orders.append(order_no)
        self.h.emit_ack(self.pin, info.name, order_no)

    def _op_update(self) -> None:
        if self.rng.random() < 0.25 and self.schema.inventory:
            value = self.rng.randint(0, 50)
            sku = self.rng.choice(self.skus)
            for info in self._shuffled(self.schema.inventory):
                if not info.updatable:
                    continue
                column = self.rng.choice(info.updatable)
                cursor = self._exec(
                    f"UPDATE {info.name} SET {column} = ? WHERE sku = ?",
                    (value, sku),
                    log=True,
                )
                if cursor.rowcount:
                    return
            return
        if not self.live_orders:
            return
        order_no = self.rng.choice(self.live_orders)
        value = self.rng.randint(0, 9)
        for info in self._shuffled(self.schema.orders):
            if not info.updatable:
                continue
            column = self.rng.choice(info.updatable)
            cursor = self._exec(
                f"UPDATE {info.name} SET {column} = ? WHERE order_no = ?",
                (value, order_no),
                log=True,
            )
            if cursor.rowcount:
                return

    def _op_delete(self) -> None:
        if len(self.live_orders) <= self.h.config.orders_per_tenant // 2:
            return  # keep a working set; inserts will grow it back
        order_no = self.rng.choice(self.live_orders)
        for info in self._shuffled(self.schema.orders):
            cursor = self._exec(
                f"DELETE FROM {info.name} WHERE order_no = ?", (order_no,), log=True
            )
            if cursor.rowcount:
                self.live_orders.remove(order_no)
                self.h.emit_delete(self.pin, order_no)
                return

    def _shuffled(self, infos: list[_TableInfo]) -> list[_TableInfo]:
        infos = list(infos)
        self.rng.shuffle(infos)
        return infos


class _SmoThread(threading.Thread):
    """Fires preflight-gated SMO scripts at an exponential cadence."""

    def __init__(self, harness: "SoakHarness"):
        super().__init__(name="soak-smo-stream", daemon=True)
        self.h = harness
        self.rng = random.Random(harness.config.seed + 104729)
        self.stream = SmoStream(
            harness.live,
            harness.config.seed + 7,
            max_versions=harness.config.max_versions,
        )

    def run(self) -> None:
        rate = self.h.config.smo_rate
        if rate <= 0:
            return
        try:
            while not self.h.stop_event.is_set():
                delay = min(max(self.rng.expovariate(rate), 0.05), 10.0)
                if self.h.stop_event.wait(delay):
                    return
                self._fire_one()
        except Exception:
            self.h.record_crash(-1, traceback.format_exc())
            self.h.stop_event.set()

    def _fire_one(self) -> None:
        requested = time.monotonic()
        with self.h.stream_lock.write_locked():
            generated = self.stream.next_script()
            if generated is None:
                return
            kind, script = generated
            event = {
                "seq": len(self.h.smo_log),
                "t": round(time.monotonic() - self.h.t0, 3),
                "kind": kind,
                "script": script.strip(),
            }
            diagnostics = preflight_script(self.h.live, script)
            if error_count(diagnostics):
                event["outcome"] = "preflight_rejected"
                event["diagnostics"] = [str(d) for d in diagnostics]
                self.h.smo_log.append(event)
                return
            if kind != "materialize-online":
                if not self._execute(event, script):
                    return
                self.h.oplog.append(LogEntry("ddl", None, script, ()))
                self.h.ddl_windows.append((requested, time.monotonic()))
                return
        # An online move deliberately runs OUTSIDE the stream write lock:
        # the whole point is that client traffic keeps flowing through
        # the backfill, and the availability probe measures exactly that
        # window.  Ordering is handled by the engine's cutover hook
        # (``_online_cutover_barrier``): the oplog DDL entry is appended
        # inside the cutover's quiesced window, because MATERIALIZE
        # freezes derived-column state and so its position relative to
        # concurrent client writes is semantically significant.  No
        # other DDL can start meanwhile (this thread is the only DDL
        # source, and the engine fences catalog transitions during a
        # backfill anyway).
        self.h._online_script = script
        started = time.monotonic()
        try:
            ok = self._execute(event, script)
        finally:
            self.h.backfill_windows.append((started, time.monotonic()))
        if not ok:
            self.h._online_script = None
            return
        if self.h._online_script is not None:
            # The engine fell back to an offline move (no online-capable
            # backend): the cutover hook never ran, so log the entry here
            # under the stream write lock, as for any other DDL.
            with self.h.stream_lock.write_locked():
                self.h.oplog.append(LogEntry("ddl", None, script, ()))
            self.h._online_script = None
        self.h.ddl_windows.append((requested, time.monotonic()))

    def _execute(self, event: dict, script: str) -> bool:
        """Run one stream script, classifying the outcome into ``event``;
        returns True iff it executed (and so belongs in the oplog)."""
        try:
            self.h.live.execute(script)
        except InjectedFault as fault:
            event["outcome"] = "fault"
            event["fault"] = {"point": fault.point, "visit": fault.visit}
            self.h.smo_log.append(event)
            self.h.fault = {
                "point": fault.point,
                "visit": fault.visit,
                "script": script.strip(),
                "smo_seq": event["seq"],
            }
            self.h.stop_event.set()
            return False
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            event["outcome"] = "engine_rejected"
            event["error"] = f"{type(exc).__name__}: {exc}"
            self.h.smo_log.append(event)
            return False
        event["outcome"] = "executed"
        self.h.smo_log.append(event)
        return True


class _GenerationSampler(threading.Thread):
    def __init__(self, harness: "SoakHarness", interval: float = 0.02):
        super().__init__(name="soak-generation-sampler", daemon=True)
        self.h = harness
        self.interval = interval

    def run(self) -> None:
        gauge = self.h.live.metrics.get("repro_catalog_generation")
        while not self.h.stop_event.wait(self.interval):
            self.h.emit_generation(self.h.live.catalog_generation, gauge.value())


class SoakHarness:
    """Builds the dual system, runs clients + SMO stream + barriers, and
    renders the JSON report.  One instance per run."""

    def __init__(self, config: SoakConfig):
        self.config = config
        self.stop_event = threading.Event()
        self.stream_lock = RWLock()
        self.oplog: list[LogEntry] = []
        self.smo_log: list[dict] = []
        self.ddl_windows: list[tuple[float, float]] = []
        self.barrier_windows: list[tuple[float, float]] = []
        self.backfill_windows: list[tuple[float, float]] = []
        self.crashes: list[tuple[int, str]] = []
        self.fault: dict | None = None
        self.diverged = False
        self._online_script: str | None = None
        self.probes: list[Probe] = make_probes(config.probes)
        self._probe_lock = threading.Lock()
        self._replayed = 0
        self._oracle_conns: dict[str, object] = {}
        self._barrier_index = 0
        self.t0 = time.monotonic()
        self.workload_elapsed = 0.0
        # Workload seconds in which a barrier did not block the clients.
        self.load_elapsed = 0.0
        self.live = None
        self.mem = None
        self.backend: LiveSqliteBackend | None = None
        self.injector: RandomFaultInjector | None = None
        self.server = None
        self._tmpdir = None

    # -- probe event fan-out (called from worker/sampler threads) -----------

    def _dispatch(self, method: str, *args) -> None:
        with self._probe_lock:
            for probe in self.probes:
                getattr(probe, method)(*args)

    def emit_ack(self, version: str, table: str, order_no: int) -> None:
        self._dispatch("on_ack", version, table, order_no)

    def emit_delete(self, version: str, order_no: int) -> None:
        self._dispatch("on_delete", version, order_no)

    def emit_version_lost(self, version: str, exc: BaseException, clean: bool) -> None:
        self._dispatch("on_version_lost", version, exc, clean)

    def emit_generation(self, engine_value: int, gauge_value: float) -> None:
        self._dispatch("on_generation_sample", engine_value, gauge_value)

    def emit_op(self, start: float, end: float, kind: str) -> None:
        self._dispatch("on_op", start, end, kind)

    def log_sql(self, version: str, sql: str, params: tuple) -> None:
        self.oplog.append(LogEntry("sql", version, sql, params))

    @contextmanager
    def _online_cutover_barrier(self):
        """Entered by the live engine around an online move's cutover.

        MATERIALIZE is *not* oplog-order-neutral: it freezes derived
        ``ADD COLUMN`` payloads into stored aux state, so an op that
        executes after the cutover but lands in the oplog before the
        move's DDL entry replays against pre-freeze semantics and
        diverges.  Taking the stream write lock here quiesces clients
        (each op holds the read side through execute *and* log append),
        so the cutover and its oplog entry sit at the move's true
        serialization point.  The backfill itself still runs outside
        any stream lock — this window is the same brief write-lock
        cutover every live client experiences.
        """
        with self.stream_lock.write_locked():
            yield
            script = self._online_script
            if script is not None:
                self.oplog.append(LogEntry("ddl", None, script, ()))
                self._online_script = None

    def record_crash(self, index: int, text: str) -> None:
        self.crashes.append((index, text))

    # -- transports ----------------------------------------------------------

    def open_conn(self, version: str):
        if self.config.transport == "tcp":
            from repro.server.client import connect_remote

            host, port = self.server.address
            return connect_remote(host, port, version, autocommit=True, timeout=30.0)
        return connect(self.live, version, autocommit=True, backend=self.backend)

    # -- the differential barrier -------------------------------------------

    def _replay(self) -> None:
        """Apply unreplayed log entries, in order, to the memory oracle."""
        while self._replayed < len(self.oplog):
            entry = self.oplog[self._replayed]
            if entry.kind == "ddl":
                for conn in self._oracle_conns.values():
                    conn.close()
                self._oracle_conns.clear()
                self.mem.execute(entry.sql)
            else:
                conn = self._oracle_conns.get(entry.version)
                if conn is None:
                    conn = connect(self.mem, entry.version, autocommit=True)
                    self._oracle_conns[entry.version] = conn
                conn.execute(entry.sql, entry.params)
            self._replayed += 1

    def barrier(self) -> bool:
        """Quiesce writers, replay the log, compare canonical states."""
        started = time.monotonic()
        with self.stream_lock.write_locked():
            index = self._barrier_index
            self._barrier_index += 1
            ok, detail, full_detail = True, "", ""
            try:
                self._replay()
                mem_state = visible_state(self.mem)
                live_state = visible_state(self.live, self.backend)
                assert_states_match(self.mem, mem_state, self.live, live_state)
            except AssertionError as exc:
                full_detail = str(exc)
                ok, detail = False, full_detail[:4000]
            except Exception as exc:  # noqa: BLE001 - a broken replay is a divergence
                ok, detail = False, f"{type(exc).__name__}: {exc}"
                full_detail = detail
            self._dispatch("on_barrier", index, ok, detail)
            if not ok:
                self.diverged = True
                self.stop_event.set()
                self._dump_oplog(index, full_detail)
        self.barrier_windows.append((started, time.monotonic()))
        return ok

    def _dump_oplog(self, barrier_index: int, detail: str) -> None:
        """On divergence, dump the full operation log (the oracle's exact
        input) when ``REPRO_SOAK_OPLOG_DUMP`` names a file — the one
        artifact a differential failure cannot be debugged without."""
        path = os.environ.get("REPRO_SOAK_OPLOG_DUMP")
        if not path:
            return
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# barrier #{barrier_index} diverged\n# {detail}\n")
                for i, entry in enumerate(self.oplog):
                    fh.write(
                        f"{i}\t{entry.kind}\t{entry.version}\t"
                        f"{entry.sql!r}\t{entry.params!r}\n"
                    )
        except OSError:
            pass

    # -- run -----------------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        if cfg.database is None:
            import tempfile

            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-soak-")
            database = f"{self._tmpdir.name}/soak.db"
        else:
            database = cfg.database
        build = dict(
            tenants=cfg.clients,
            orders_per_tenant=cfg.orders_per_tenant,
            inventory_per_tenant=cfg.inventory_per_tenant,
            seed=cfg.seed,
            versions=cfg.initial_versions,
        )
        self.mem = build_orders(**build).engine
        self.live = build_orders(**build).engine
        self.backend = LiveSqliteBackend.attach(self.live, database=database)
        self.live.online_cutover_hook = self._online_cutover_barrier
        if cfg.fault_rates:
            self.injector = RandomFaultInjector(cfg.fault_rates, seed=cfg.seed)
            self.backend.fault_injector = self.injector
        if cfg.transport == "tcp":
            from repro.server.server import ReproServer

            self.server = ReproServer(self.live, port=0, backend=self.backend)
            self.server.start()

    def run(self) -> dict:
        cfg = self.config
        self._build()
        self.t0 = time.monotonic()
        from repro.workloads.orders import assign_version_pins

        pins = assign_version_pins(
            self.live.version_names(), cfg.clients, seed=cfg.seed, skew=cfg.version_skew
        )
        clients = [_Client(self, index, pin) for index, pin in enumerate(pins)]
        smo = _SmoThread(self)
        sampler = _GenerationSampler(self)
        differential = any(p.name == "differential" for p in self.probes)
        try:
            for client in clients:
                client.start()
            smo.start()
            sampler.start()
            deadline = self.t0 + cfg.duration
            while not self.stop_event.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if self.stop_event.wait(min(cfg.barrier_interval, remaining)):
                    break
                if time.monotonic() >= deadline:
                    break
                if differential and self.fault is None:
                    self.barrier()
            self.stop_event.set()
            for thread in (*clients, smo, sampler):
                thread.join(timeout=30.0)
            self.workload_elapsed = time.monotonic() - self.t0
            self.load_elapsed = self.workload_elapsed - _seconds(self.barrier_windows)
            hung = [t.name for t in (*clients, smo, sampler) if t.is_alive()]
            if hung:
                self.record_crash(-2, f"threads did not stop: {hung}")
            # Final barrier on the fully quiesced system, also after an
            # injected fault: the failed transition restored the catalog.
            if differential and not hung:
                self.barrier()
            return self._report(clients)
        finally:
            self._teardown(clients)

    def _teardown(self, clients: list[_Client]) -> None:
        self.stop_event.set()
        for conn in self._oracle_conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._oracle_conns.clear()
        for client in clients:
            client._close_conn()
        if self.server is not None:
            try:
                self.server.close()
            except Exception:
                pass
        if self.backend is not None:
            try:
                self.backend.close()
            except Exception:
                pass
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    # -- reporting ------------------------------------------------------------

    def _final_state(self) -> FinalState:
        live_state = visible_state(self.live, self.backend)
        rows_by_version: dict[str, set[int]] = {}
        for (version, table), rows in live_state.items():
            schema = self.live.genealogy.schema_version(version).tables[table].schema
            if "order_no" not in schema.column_names:
                continue
            at = schema.index_of("order_no")
            rows_by_version.setdefault(version, set()).update(row[at] for row in rows)
        gauge = self.live.metrics.get("repro_catalog_generation")
        return FinalState(
            order_rows_by_version=rows_by_version,
            active_versions=self.live.version_names(),
            engine_generation=self.live.catalog_generation,
            gauge_generation=gauge.value(),
            disk_generation=self.backend.on_disk_generation(),
            ddl_windows=list(self.ddl_windows),
            barrier_windows=list(self.barrier_windows),
            backfill_windows=list(self.backfill_windows),
            p95_budget_ms=self.config.p95_budget_ms,
            delta_findings=verify_delta_code(
                self.live, connection=self.backend.connection
            ),
        )

    def _report(self, clients: list[_Client]) -> dict:
        load = max(self.load_elapsed, 1e-9)
        executed = [e for e in self.smo_log if e["outcome"] == "executed"]
        probe_reports = []
        if self.fault is None and not self.crashes:
            final = self._final_state()
            probe_reports = [probe.finalize(final) for probe in self.probes]
        ok = (
            self.fault is None
            and not self.crashes
            and not self.diverged
            and all(report.ok for report in probe_reports)
        )
        report = {
            "ok": ok,
            "config": {
                "seed": self.config.seed,
                "duration": self.config.duration,
                "clients": self.config.clients,
                "smo_rate": self.config.smo_rate,
                "transport": self.config.transport,
                "barrier_interval": self.config.barrier_interval,
                "p95_budget_ms": self.config.p95_budget_ms,
                "fault_rates": dict(self.config.fault_rates),
            },
            "repro_command": self.config.repro_command(),
            "stats": {
                "elapsed_s": round(self.workload_elapsed, 3),
                "ops": sum(c.ops for c in clients),
                "load_s": round(load, 3),
                "barrier_s": round(_seconds(self.barrier_windows), 3),
                "ops_per_sec": round(sum(c.ops for c in clients) / load, 1),
                "retries": sum(c.retries for c in clients),
                "repins": sum(c.repins for c in clients),
                "logged_writes": sum(1 for e in self.oplog if e.kind == "sql"),
                "smo_events": len(self.smo_log),
                "smo_executed": len(executed),
                "barriers": self._barrier_index,
                "ddl_windows": len(self.ddl_windows),
                "backfill_windows": len(self.backfill_windows),
                "backfill_seconds": round(_seconds(self.backfill_windows), 3),
                "final_versions": self.live.version_names(),
                "final_generation": self.live.catalog_generation,
            },
            "probes": [report.to_dict() for report in probe_reports],
            "smo_log": list(self.smo_log),
            "fault": self.fault,
            "diverged": self.diverged,
            "client_errors": [
                {"client": index, "traceback": text} for index, text in self.crashes
            ],
        }
        if self.injector is not None:
            report["injector"] = self.injector.describe()
        return report


def _seconds(windows: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in windows)


def run_soak(config: SoakConfig) -> dict:
    """Run one soak phase and return its JSON-serializable report."""
    return SoakHarness(config).run()
