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
Runnable two ways:

- ``pytest benchmarks/bench_fig14_concurrency.py`` — pytest-benchmark
  wrappers timing one batch of concurrent sessions at each thread count;
- ``python benchmarks/bench_fig14_concurrency.py [--smoke]`` — print the
  full throughput-vs-sessions table (``--smoke`` shrinks the workload for
  CI and asserts that concurrent read throughput actually scales).
"""

import argparse
import os
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

try:
    import pytest
except ImportError:  # pragma: no cover - CLI use without pytest installed
    pytest = None

from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import OperationalError
from repro.sql.connection import connect
from repro.workloads.tasky import build_tasky

from experiment import ExperimentResult

N = 2000
OPS = 100


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


def _concurrent_reads(scenario, backend, threads):
    return _run_workload(
        scenario.engine, backend, threads=threads, ops=OPS, write_every=None
    )


if pytest is not None:

    @pytest.fixture(scope="module")
    def wal_backend(tmp_path_factory):
        scenario = build_tasky(N)
        backend = LiveSqliteBackend.attach(
            scenario.engine,
            database=str(tmp_path_factory.mktemp("fig14") / "tasky.db"),
            pool_size=16,
        )
        yield scenario, backend
        backend.close()

    def test_fig14_reads_1_session(benchmark, wal_backend):
        scenario, backend = wal_backend
        benchmark(lambda: _concurrent_reads(scenario, backend, 1))

    def test_fig14_reads_4_sessions(benchmark, wal_backend):
        scenario, backend = wal_backend
        benchmark(lambda: _concurrent_reads(scenario, backend, 4))

    def test_fig14_mixed_4_sessions(benchmark, wal_backend):
        scenario, backend = wal_backend
        benchmark(
            lambda: _run_workload(
                scenario.engine, backend, threads=4, ops=OPS, write_every=10
            )
        )

    def test_fig14_rows(print_result):
        print_result(run(num_tasks=N, ops=60, thread_counts=(1, 2, 4)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Concurrent multi-session throughput (fig14)."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI workload; asserts read throughput scales with sessions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # Large enough rows that each read is dominated by SQLite's query
        # engine (which releases the GIL), small enough op counts for CI.
        result = run(num_tasks=10_000, ops=80, thread_counts=(1, 4))
    else:
        result = run()
    print(result.format())
    if args.smoke:
        by_key = {(row[0], row[1]): row for row in result.rows}
        speedup = by_key[("read", 4)][5]
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
            os.cpu_count() or 1
        )
        # WAL readers must not serialize: aggregate throughput of 4
        # concurrent sessions has to track the hardware.  With several
        # cores that means real speedup; on a 1-core box speedup > 1 is
        # physically impossible, so the floor only rules out lock-induced
        # collapse (sessions queueing behind one another).
        expected = min(cores, 4)
        floor = 0.6 * expected
        print(
            f"\nread speedup at 4 sessions: {speedup:.2f}x "
            f"({cores} core(s), floor {floor:.2f}x)"
        )
        assert speedup > floor, (
            f"concurrent reads serialized: {speedup:.2f}x aggregate "
            f"throughput at 4 sessions on {cores} core(s)"
        )
        print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
