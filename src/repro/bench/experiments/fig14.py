"""Figure 14 (extension): concurrent multi-session throughput.

The paper promises that co-existing schema versions serve many
applications at once; this experiment measures it.  A TasKy database is
attached to a file-backed WAL SQLite backend, then N threads — each with
its *own* session — run workloads against the co-existing versions
concurrently (a statement that finds the backend's primary handle busy
runs on a pooled overflow handle):

- ``read`` — aggregate scans through the generated views (WAL readers
  never block each other: throughput should scale with sessions);
- ``mixed`` — 90% reads / 10% single-row writes across versions (writers
  serialize on SQLite's write lock, reads keep scaling).

Reported: ops/s over all threads and the speedup against one session.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

from repro.backend.sqlite import LiveSqliteBackend
from repro.bench.harness import Experiment, ExperimentResult, register
from repro.errors import OperationalError
from repro.sql.connection import connect
from repro.workloads.tasky import build_tasky

READ_STATEMENTS = [
    ("TasKy", "SELECT count(rowid), sum(prio) FROM Task"),
    ("TasKy2", "SELECT count(task), min(prio) FROM Task"),
    ("Do!", "SELECT count(author) FROM Todo"),
]


def _run_workload(
    engine, backend, *, threads: int, ops: int, write_every: int | None
) -> tuple[float, int]:
    """(elapsed seconds, completed ops) for ``threads`` concurrent
    sessions issuing ``ops`` statements each."""
    barrier = threading.Barrier(threads + 1)
    errors: list[Exception] = []

    def worker(index: int) -> None:
        # Every worker cycles through ALL versions so the threads carry
        # identical work and finish together (no slow-thread tail skewing
        # the aggregate throughput).
        conns: list[tuple] = []
        writer = None
        try:
            conns = [
                (connect(engine, version, autocommit=True, backend=backend), sql)
                for version, sql in READ_STATEMENTS
            ]
            if write_every:
                writer = connect(engine, "TasKy", autocommit=True, backend=backend)
            barrier.wait()
            for op in range(ops):
                if write_every and op % write_every == write_every - 1:
                    for attempt in range(100):
                        try:
                            writer.execute(
                                "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
                                (f"w{index}", f"bench {index}-{op}", 1 + op % 5),
                            )
                            break
                        except OperationalError as exc:
                            if "locked" not in str(exc) or attempt == 99:
                                raise
                            time.sleep(0.001)
                else:
                    conn, read_sql = conns[(index + op) % len(conns)]
                    conn.execute(read_sql).fetchall()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            barrier.abort()
        finally:
            for conn, _ in conns:
                conn.close()
            if writer is not None:
                writer.close()

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed during setup; its error is surfaced below
    start = time.perf_counter()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, threads * ops


def run(
    num_tasks: int = 5000,
    ops: int = 300,
    thread_counts: tuple[int, ...] = (1, 2, 4, 8),
    write_every: int = 10,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig14",
        title="Figure 14: concurrent session throughput on the WAL backend",
        columns=("workload", "sessions", "ops", "seconds", "ops_per_s", "speedup"),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for workload, per_thread_write in (("read", None), ("mixed", write_every)):
            scenario = build_tasky(num_tasks)
            backend = LiveSqliteBackend.attach(
                scenario.engine,
                database=os.path.join(tmp, f"fig14-{workload}.db"),
                pool_size=max(thread_counts) * 2,
            )
            baseline: float | None = None
            for threads in thread_counts:
                elapsed, completed = _run_workload(
                    scenario.engine,
                    backend,
                    threads=threads,
                    ops=ops,
                    write_every=per_thread_write,
                )
                throughput = completed / elapsed if elapsed else float("inf")
                if baseline is None:
                    baseline = throughput
                result.add(
                    workload,
                    threads,
                    completed,
                    elapsed,
                    throughput,
                    throughput / baseline,
                )
            backend.close()
    result.note(
        "concurrent statements run on their own sqlite3 handles; WAL readers "
        "do not serialize, writers queue on the write lock"
    )
    result.note(
        f"{num_tasks} tasks, {ops} ops/session, 1 write per "
        f"{write_every} ops in the mixed workload"
    )
    return result


register(
    Experiment(
        name="fig14",
        title="Concurrent multi-session throughput",
        paper_artifact="Figure 14*",
        runner=run,
        quick_kwargs={"num_tasks": 5000, "ops": 300},
        paper_kwargs={"num_tasks": 100_000, "ops": 1000},
    )
)
