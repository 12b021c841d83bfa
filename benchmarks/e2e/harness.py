"""One benchmark run: set up, steady rounds, transitions, restart.

The skeleton is the same for all four workloads (``workloads.py`` says
what differs).  The program is driven only through its public calls; every
timing is taken here, around those calls, and every timed quantity carries
the kernel measurements that calibrate it (``floor.py``):

- a *statement* sample sits between two kernel probes and is divided by
  their mean;
- a *section* sample (set-up, a DDL group, a move, a re-open) sits between
  two full kernel readings.

Results are checked after the timing window that produced them: the
expected result of every statement is known before it is issued
(``opgen.py``).
"""

from __future__ import annotations

import os
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field

import repro
from repro.backend import LiveSqliteBackend

import floor as floor_module
from floor import Floor
from opgen import BATCH_ROWS, CLASSES, PIPELINE, RANGE_ROWS, Mix, OpGenerator, Statements
from scenarios import ROLES, Scenario, Shadow, own_key_base

SETUPS = 3
REOPENS = 7
LEAF_CYCLES = 24
MOVE_PAIRS = 3
WARMUP_OPERATIONS = 90
#: Statements of one leaf cycle: CREATE, three stall probes, four
#: statements through the leaf, DROP.
CYCLE_STATEMENTS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: type
    scenario_args: tuple
    transport: str  # "inproc" | "wire"
    mix: Mix
    #: Steady rounds per second of ``--seconds`` (sized on the quiet sandbox).
    rounds_per_second: float
    operations_per_round: int
    #: evolve_churn: a round is this many leaf cycles, each followed by
    #: ``operations_per_round`` statements (0: plain statement rounds).
    cycles_per_round: int = 0
    #: evolve_churn: a move pair after every n-th cycle.
    move_every: int = 0


class System:
    """One built database with everything that is open on it."""

    def __init__(self, scenario: Scenario, transport: str, engine, path: str):
        self.scenario = scenario
        self.path = path
        self.engine = engine
        self.backend = engine.live_backend
        self.server = None
        versions = [scenario.pins[role].version for role in ROLES]
        if transport == "wire":
            self.start_server()
            self.connections = [self.remote(version) for version in versions]
        else:
            self.connections = [self.local(version) for version in versions]

    @classmethod
    def build(cls, scenario: Scenario, transport: str, directory: str) -> "System":
        """Build the scenario through the SQL layer, attach a file-backed
        live backend in ``directory``, materialize the local version."""
        path = os.path.join(directory, "db.sqlite")
        engine = scenario.build()
        LiveSqliteBackend.attach(engine, database=path)
        engine.execute(f"MATERIALIZE '{scenario.pins['local'].version}';")
        return cls(scenario, transport, engine, path)

    @classmethod
    def reopen(cls, scenario: Scenario, transport: str, path: str) -> "System":
        return cls(scenario, transport, repro.open(path), path)

    def start_server(self) -> None:
        if self.server is None:
            self.server = repro.ReproServer(self.engine, backend=self.backend).start()

    def remote(self, version: str):
        host, port = self.server.address
        return repro.connect_remote(host, port, version, autocommit=True, timeout=60.0)

    def local(self, version: str, **options):
        return repro.connect(
            self.engine, version, autocommit=True, backend=self.backend, **options
        )

    def connect(self, version: str):
        """A connection over the transport the pins use."""
        return self.remote(version) if self.server is not None else self.local(version)

    def read_table(self, pin, table):
        connection = self.connections[ROLES.index(pin.role)]
        return connection.execute(Statements(self.scenario, table).scan).fetchall()

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            _close_server(self.server)
            self.server = None
        self.backend.close()


def _close_server(server) -> None:
    """``ReproServer.close()`` joins its accept thread, but on Linux closing
    the listener does not wake a thread blocked in ``accept()`` — the join
    runs into its five-second timeout.  One more connection wakes it."""
    address = server.address
    closer = threading.Thread(target=server.close)
    closer.start()
    while closer.is_alive():
        try:
            socket.create_connection(address, timeout=0.2).close()
        except OSError:
            pass
        closer.join(0.02)


@dataclass
class Section:
    """Samples of one bracketed quantity: wall seconds, the kernel
    readings either side, and the work done (rows, statements)."""

    wall: list[float] = field(default_factory=list)
    before: list[float] = field(default_factory=list)
    after: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)

    def add(self, wall: float, before_ms: float, after_ms: float, work: float = 1.0):
        self.wall.append(wall)
        self.before.append(before_ms)
        self.after.append(after_ms)
        self.work.append(work)

    def __len__(self) -> int:
        return len(self.wall)

    def steady(self) -> list[bool]:
        return [
            not floor_module.unsteady(b, a) for b, a in zip(self.before, self.after)
        ]

    @property
    def dropped(self) -> int:
        return len(self) - sum(self.steady())

    def timed_in(self) -> list[int]:
        """Indexes of the samples that count: those across which the
        kernel held still — or all of them, flagged by ``dropped``, when
        that leaves fewer than half (a host that never holds still must
        not turn into a failed run)."""
        kept = [i for i, ok in enumerate(self.steady()) if ok]
        return kept if 2 * len(kept) >= len(self) else list(range(len(self)))

    def factor(self, index: int) -> float:
        return floor_module.cal_factor(self.before[index], self.after[index])

    def calibrated(self) -> list[float]:
        return [self.wall[i] * self.factor(i) for i in self.timed_in()]

    def walls(self) -> list[float]:
        return [self.wall[i] for i in self.timed_in()]


@dataclass
class Lane:
    """Statement samples of the steady phase (one lane for the rounds run
    with spans on, one for the rounds run with spans off)."""

    #: Per class: each statement's wall seconds and calibrated seconds.
    wall: list[list[float]] = field(default_factory=lambda: [[] for _ in CLASSES])
    calibrated: list[list[float]] = field(default_factory=lambda: [[] for _ in CLASSES])
    #: Per round: [statements, Σ wall seconds, Σ calibrated seconds].
    rounds: list[list[float]] = field(default_factory=list)
    #: Per pipeline: (statements, wall seconds, calibrated seconds).
    pipelines: list[tuple[int, float, float]] = field(default_factory=list)


class Recorder:
    """Everything a run measures, raw; ``metrics.py`` turns it into the
    reported numbers."""

    def __init__(self):
        self.lanes = {False: Lane(), True: Lane()}
        self.sections: dict[str, Section] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, float] = {}

    def section(self, name: str) -> Section:
        return self.sections.setdefault(name, Section())

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message[:400])

    def check(self, is_read: bool, expect, got, *what) -> None:
        """Count one statement; a wrong result or a raised error is a
        failed operation (``what`` names it in the failure message)."""
        self.attempted += 1
        if isinstance(got, Exception):
            problem = f"raised {got!r}"
        elif is_read:
            if sorted(tuple(row) for row in got) == sorted(expect):
                return
            problem = f"got {got!r}, expected {expect!r}"
        elif got == expect:
            return
        else:
            problem = f"{got!r} rows affected, expected {expect!r}"
        self.fail(" ".join(map(str, what)) + ": " + problem)


class Run:
    """Drives one workload once."""

    def __init__(self, workload: Workload, seed: int, directory: str, tracer=None):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.tracer = tracer
        self.scenario: Scenario = workload.scenario(*workload.scenario_args)
        self.recorder = Recorder()
        os.makedirs(directory)
        self.floor = Floor(os.path.join(directory, "floor.db"))
        self.system: System | None = None
        self.shadow: Shadow | None = None
        self.generator: OpGenerator | None = None
        self.leaf_index = 0

    # -- bracketed sections -------------------------------------------------

    def bracket(self, name: str, action, work: float = 1.0):
        before = self.floor.reading()
        start = time.perf_counter()
        result = action()
        end = time.perf_counter()
        after = self.floor.reading()
        self.recorder.section(name).add(end - start, before, after, work)
        if self.tracer is not None:
            self.tracer.span(name, start, end)
        return result

    # -- set-up ---------------------------------------------------------------

    def setup(self, repeats: int = SETUPS) -> None:
        """Build the database ``repeats`` times into fresh directories;
        the last instance is the one the run uses."""
        for index in range(repeats):
            if self.system is not None:
                self.system.close()
            directory = os.path.join(self.directory, f"db{index}")
            os.makedirs(directory)
            self.system = self.bracket(
                "setup",
                lambda: System.build(self.scenario, self.workload.transport, directory),
            )
        bwd = self.scenario.pins["bwd"]
        local = self.scenario.pins["local"]
        rows = [tuple(row) for row in self.system.read_table(bwd, bwd.primary)]
        static = {
            table.name: [tuple(row) for row in self.system.read_table(local, table)]
            for table in self.scenario.static_tables
        }
        self.shadow = Shadow(self.scenario, rows, static)
        self.floor.load_plain(self.scenario.base_columns, {
            role: self.shadow.contents(pin.primary)
            for role, pin in self.scenario.pins.items()
        })
        self.generator = OpGenerator(self.scenario, self.shadow, self.seed, self.workload.mix)

    def warm_up(self) -> None:
        """Untimed: every statement text is planned and prepared once on
        every pin, the way a long-running client finds them."""
        self.execute_round(self.generator.round(WARMUP_OPERATIONS), timed=False)
        self.execute_batch(self.generator.batch(0), timed=False)

    # -- steady rounds --------------------------------------------------------

    def execute_round(self, ops, timed: bool = True, traced: bool = False) -> None:
        connections = self.system.connections
        count = len(ops)
        starts = [0.0] * count
        mids = [0.0] * count
        ends = [0.0] * count
        probes = [0.0] * (count + 1)
        results: list = [None] * count
        probe = self.floor.probe
        clock = time.perf_counter
        probes[0] = probe()
        for index, (cls, pin, sql, params, expect) in enumerate(ops):
            connection = connections[pin]
            mid = 0.0
            start = clock()
            try:
                if cls < 3:
                    cursor = connection.execute(sql, params)
                    if traced:
                        mid = clock()
                    result = cursor.fetchall()
                elif cls < PIPELINE:
                    result = connection.execute(sql, params).rowcount
                else:
                    cursors = connection.pipeline(params)
                    if traced:
                        mid = clock()
                    result = [
                        cursor.fetchall() if is_read else cursor.rowcount
                        for cursor, (is_read, _expect) in zip(cursors, expect)
                    ]
            except Exception as exc:  # noqa: BLE001 - a raised error is a failed operation
                result = exc
            end = clock()
            probes[index + 1] = probe()
            starts[index], mids[index], ends[index] = start, mid, end
            results[index] = result
        self.check_round(ops, results)
        if timed:
            self.record_round(ops, starts, ends, probes, traced)
        if traced:
            self.tracer.statements(ops, starts, mids, ends)

    def check_round(self, ops, results) -> None:
        check = self.recorder.check
        for (cls, _pin, sql, params, expect), result in zip(ops, results):
            if cls != PIPELINE:
                check(cls < 3, expect, result, sql, params)
                continue
            if isinstance(result, Exception):
                result = [result] * len(expect)
            for (is_read, wanted), got, (text, values) in zip(expect, result, params):
                check(is_read, wanted, got, "pipelined", text, values)

    def record_round(self, ops, starts, ends, probes, traced: bool) -> None:
        lane = self.recorder.lanes[traced]
        statements, wall_sum, calibrated_sum = 0, 0.0, 0.0
        for index, op in enumerate(ops):
            cls = op[0]
            wall = ends[index] - starts[index]
            calibrated = floor_module.probe_calibrated(
                wall, probes[index], probes[index + 1]
            )
            wall_sum += wall
            calibrated_sum += calibrated
            if cls == PIPELINE:
                statements += len(op[3])
                lane.pipelines.append((len(op[3]), wall, calibrated))
                continue
            statements += 1
            lane.wall[cls].append(wall)
            lane.calibrated[cls].append(calibrated)
        lane.rounds.append([statements, wall_sum, calibrated_sum])

    def execute_batch(self, batch, timed: bool = True) -> None:
        pin, insert_sql, rows, delete_sql, delete_params = batch
        connection = self.system.connections[pin]

        def insert():
            return connection.executemany(insert_sql, rows).rowcount

        try:
            if timed:
                inserted = self.bracket("batch", insert, work=len(rows))
            else:
                inserted = insert()
            removed = connection.execute(delete_sql, delete_params).rowcount
        except Exception as exc:  # noqa: BLE001 - a raised error is a failed operation
            inserted = removed = exc
        where = f"batch on {ROLES[pin]}:"
        self.recorder.check(False, BATCH_ROWS, inserted, where, "executemany")
        self.recorder.check(False, BATCH_ROWS, removed, where, "range delete")

    def steady(self, rounds: int, traced_every: int = 0) -> None:
        """``rounds`` rounds; with ``traced_every`` = 2, every second one
        records spans (the traced pass compares the two halves)."""
        workload = self.workload
        for index in range(rounds):
            traced = bool(traced_every) and index % traced_every == 0
            if workload.cycles_per_round:
                self.churn_round(traced)
            else:
                ops = self.generator.round(workload.operations_per_round)
                self.execute_round(ops, traced=traced)
            self.execute_batch(self.generator.batch(index))

    def churn_round(self, traced: bool) -> None:
        """evolve_churn: the steady phase *is* the transition stream."""
        workload = self.workload
        lane = self.recorder.lanes[traced]
        cycles = self.recorder.section("cycle")
        totals = [0, 0.0, 0.0]
        for _ in range(workload.cycles_per_round):
            self.leaf_cycle()
            totals[0] += CYCLE_STATEMENTS
            totals[1] += cycles.wall[-1]
            totals[2] += cycles.wall[-1] * cycles.factor(-1)
            self.execute_round(
                self.generator.round(workload.operations_per_round), traced=traced
            )
            for position, value in enumerate(lane.rounds.pop()):
                totals[position] += value
            if self.leaf_index % workload.move_every == 0:
                self.move_pair()
        lane.rounds.append(totals)

    # -- transitions ----------------------------------------------------------

    def leaf_cycle(self) -> None:
        """Evolve a leaf version from ``fwd``, read once on every pin (the
        stall a pinned client sees ends when the last of these returns),
        use the leaf, drop it."""
        scenario, system, recorder = self.scenario, self.system, self.recorder
        generator, shadow = self.generator, self.shadow
        rng = generator.rng
        leaf = scenario.leaf(self.leaf_index)
        key = own_key_base(4) + 2 * self.leaf_index
        self.leaf_index += 1
        stall_probes = [generator.point(pin) for pin in range(len(ROLES))]
        texts = Statements(scenario, leaf.table)
        visible = [
            k for k in generator.initial_keys[ROLES.index("fwd")]
            if leaf.table.member(shadow.rows[k])
        ]
        point_key = rng.choice(visible)
        first = rng.randrange(len(visible) - RANGE_ROWS)
        chosen = visible[first : first + RANGE_ROWS]
        leaf_ops = [
            (True, texts.point, (point_key,), [shadow.rows[point_key]]),
            (True, texts.range, (chosen[0], visible[first + RANGE_ROWS]),
             [shadow.rows[k] for k in chosen]),
            (False, texts.insert, scenario.fresh_row("fwd", key, rng), 1),
            (False, texts.delete, (key,), 1),
        ]
        results: list = []
        before = self.floor.reading()
        t0 = time.perf_counter()
        system.engine.execute(leaf.create)
        t1 = time.perf_counter()
        for op in stall_probes:
            results.append(system.connections[op[1]].execute(op[2], op[3]).fetchall())
        t2 = time.perf_counter()
        connection = system.connect(leaf.version)
        for is_read, sql, params, _expect in leaf_ops:
            cursor = connection.execute(sql, params)
            results.append(cursor.fetchall() if is_read else cursor.rowcount)
        connection.close()
        t3 = time.perf_counter()
        system.engine.execute(leaf.drop)
        t4 = time.perf_counter()
        after = self.floor.reading()
        recorder.section("ddl_stall").add(t2 - t0, before, after)
        recorder.section("evolve").add(t1 - t0, before, after)
        recorder.section("drop").add(t4 - t3, before, after)
        recorder.section("cycle").add(t4 - t0, before, after, work=CYCLE_STATEMENTS)
        if self.tracer is not None:
            self.tracer.leaf_cycle(leaf.version, t0, t1, t2, t3, t4)
        recorder.attempted += 2  # CREATE and DROP (an error in either raises)
        expected = [(True, op[4]) for op in stall_probes] + [
            (is_read, expect) for is_read, _sql, _params, expect in leaf_ops
        ]
        for (is_read, expect), got in zip(expected, results):
            recorder.check(is_read, expect, got, "leaf cycle", leaf.version)

    def move_pair(self) -> None:
        offline, online = self.scenario.move_pair
        rows = len(self.shadow.rows)
        engine = self.system.engine
        for name, script in (("move_offline", offline), ("move_online", online)):
            self.bracket(name, lambda: engine.execute(script), work=rows)
            self.recorder.attempted += 1

    def transitions(self, cycles: int = LEAF_CYCLES, pairs: int = MOVE_PAIRS) -> None:
        for index in range(cycles):
            self.leaf_cycle()
            if (index + 1) % (cycles // pairs) == 0:
                self.move_pair()

    # -- end state ------------------------------------------------------------

    def check_contents(self, when: str) -> bool:
        """The full contents of every table of all three pins against the
        shadow model."""
        problems = self.shadow.mismatches(self.system.read_table)
        self.recorder.problems += [f"contents {when}: {p}"[:400] for p in problems]
        return not problems

    def measure_space(self, path: str) -> None:
        """Database bytes after a truncating checkpoint (pages in use:
        how many pages the free list holds at that moment depends on the
        order of the deletes, not on what is stored), and the user bytes
        of the rows the local version shows."""
        handle = floor_module.plain_handle(path)
        try:
            handle.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
            pages, free, page_size = (
                handle.execute(f"PRAGMA {name}").fetchone()[0]
                for name in ("page_count", "freelist_count", "page_size")
            )
        finally:
            handle.close()
        facts = self.recorder.facts
        facts["file_bytes"] = os.path.getsize(path)
        facts["database_bytes"] = (pages - free) * page_size
        facts["user_bytes"] = Scenario.user_bytes(self.shadow.rows.values()) + sum(
            Scenario.user_bytes(rows) for rows in self.shadow.static.values()
        )

    def restart(self, repeats: int = REOPENS) -> bool:
        """Close everything, then ``repro.open`` the file the run left
        behind ``repeats`` times, reading once on every pin each time.
        Returns whether the contents survived."""
        path = self.system.path
        transport = self.workload.transport
        self.system.close()
        self.system = None
        self.measure_space(path)
        probes = [self.generator.point(pin) for pin in range(len(ROLES))]
        intact = True

        def reopen():
            system = System.reopen(self.scenario, transport, path)
            return system, [
                system.connections[op[1]].execute(op[2], op[3]).fetchall()
                for op in probes
            ]

        for index in range(repeats):
            self.system, results = self.bracket("recovery", reopen)
            for op, got in zip(probes, results):
                self.recorder.check(True, op[4], got, "first read after restart")
            if index == 0:
                intact = self.check_contents("after restart")
            if index + 1 < repeats:
                self.system.close()
                self.system = None
        return intact

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None
        self.floor.close()
        shutil.rmtree(self.directory, ignore_errors=True)
