"""Figure 16 (extension): the statement hot path vs SMO-chain depth.

The paper's core claim is that co-existing schema versions cost
*negligible overhead* because delta code is compiled once and served
cheaply.  This experiment measures how the statement hot path holds up
at depth, and what **plan caching** buys (``cached`` vs ``cold``): a
repeated statement skips parsing and planner lowering via the engine's
shared :class:`~repro.sql.plancache.PlanCache` (and sqlite3's
per-session prepared-statement cache).

The schema chain alternates RENAME COLUMN with a SPLIT TABLE every
fourth step — a depth-16 chain holds 4 union-shaped levels, the worst
realistic shape the view composer must keep linear.  (The nested
one-view-per-hop rendering it replaced expands exponentially there:
``BENCH_fig16.json`` holds the last recorded comparison, 51x at depth
16.)  Reported per depth (1/4/16), mode, and transport: p50/p95
statement latency and read throughput on the tip version.  ``remote``
rows serve the cached configuration through the TCP server (the
server-side connection shares the same plan cache).
"""

from __future__ import annotations

import statistics
import time

from repro.backend.sqlite import LiveSqliteBackend
from repro.bench.harness import Experiment, ExperimentResult, register
from repro.core.engine import InVerDa
from repro.sql import parser as sql_parser
from repro.sql.connection import connect

#: Chain steps at which a SPLIT (union-shaped level) is inserted.
SPLIT_EVERY = 4


def build_chain(depth: int, rows: int) -> tuple[InVerDa, str]:
    """An engine with ``depth`` SMOs chained off the initial version
    (RENAME COLUMN steps with a SPLIT TABLE every ``SPLIT_EVERY``-th),
    ``rows`` rows inserted at the base; returns (engine, tip table name)."""
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION S0 WITH CREATE TABLE T0(a TEXT, b INTEGER, c INTEGER);"
    )
    conn = connect(engine, "S0", autocommit=True)
    conn.executemany(
        "INSERT INTO T0(a, b, c) VALUES (?, ?, ?)",
        [(f"a{i % 37}", i % 11, i) for i in range(rows)],
    )
    conn.close()
    table, column = "T0", "a"
    for step in range(1, depth + 1):
        if step % SPLIT_EVERY == 0:
            new_table = f"T{step}"
            engine.execute(
                f"CREATE SCHEMA VERSION S{step} FROM S{step - 1} WITH "
                f"SPLIT TABLE {table} INTO {new_table} WITH b >= 0;"
            )
            table = new_table
        else:
            engine.execute(
                f"CREATE SCHEMA VERSION S{step} FROM S{step - 1} WITH "
                f"RENAME COLUMN {column} IN {table} TO a{step};"
            )
            column = f"a{step}"
    return engine, table


def _measure(connection, sql: str, ops: int, *, cold: bool = False) -> dict:
    """p50/p95 statement latency (ms) and throughput for ``ops`` repeats
    of ``sql``.  ``cold=True`` clears the parse cache before every
    statement so each op pays the full parse+plan cost (the connection
    must also have been opened with ``plan_cache=False``)."""
    connection.execute(sql).fetchall()  # warm (plan cache, sqlite stmt cache)
    latencies = []
    start = time.perf_counter()
    for _ in range(ops):
        if cold:
            sql_parser._parse_statement_cached.cache_clear()
        before = time.perf_counter()
        connection.execute(sql).fetchall()
        latencies.append(time.perf_counter() - before)
    elapsed = time.perf_counter() - start
    latencies.sort()
    return {
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p95_ms": latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
        * 1000.0,
        "ops_per_s": ops / elapsed if elapsed else float("inf"),
    }


def run(
    rows: int = 5000,
    ops: int = 150,
    depths: tuple[int, ...] = (1, 4, 16),
    remote: bool = True,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig16",
        title="Figure 16: statement hot path vs SMO-chain depth",
        columns=(
            "depth",
            "plans",
            "transport",
            "ops",
            "p50_ms",
            "p95_ms",
            "ops_per_s",
        ),
    )
    summary: dict[tuple[int, str], float] = {}
    # Throwaway warmup round: the first measured configuration must not
    # absorb process warmup (imports, allocator growth) into its numbers.
    warm_engine, warm_table = build_chain(1, min(rows, 500))
    warm_backend = LiveSqliteBackend.attach(warm_engine)
    warm_conn = connect(warm_engine, "S1", autocommit=True, backend=warm_backend)
    _measure(warm_conn, f"SELECT count(rowid) FROM {warm_table}", 20)
    warm_conn.close()
    warm_backend.close()
    for depth in depths:
        for plans in ("cached", "cold"):
            engine, table = build_chain(depth, rows)
            backend = LiveSqliteBackend.attach(engine)
            sql = f"SELECT count(rowid), sum(b) FROM {table}"
            connection = connect(
                engine,
                f"S{depth}",
                autocommit=True,
                backend=backend,
                plan_cache=(plans == "cached"),
            )
            measured = _measure(connection, sql, ops, cold=(plans == "cold"))
            summary[(depth, plans)] = measured["ops_per_s"]
            result.add(
                depth,
                plans,
                "in-process",
                ops,
                measured["p50_ms"],
                measured["p95_ms"],
                measured["ops_per_s"],
            )
            if remote and plans == "cached":
                from repro.server.client import connect_remote
                from repro.server.server import ReproServer

                server = ReproServer(engine).start()
                try:
                    remote_conn = connect_remote(
                        *server.address, f"S{depth}", autocommit=True, timeout=60.0
                    )
                    measured = _measure(remote_conn, sql, ops)
                    result.add(
                        depth,
                        plans,
                        "remote",
                        ops,
                        measured["p50_ms"],
                        measured["p95_ms"],
                        measured["ops_per_s"],
                    )
                    remote_conn.close()
                finally:
                    server.close()
            connection.close()
            backend.close()
        cached, cold = summary[(depth, "cached")], summary[(depth, "cold")]
        if cold:
            result.note(f"depth {depth}: cached/cold = {cached / cold:.2f}x")
    result.note(
        f"{rows} rows at the base version; chain = RENAME COLUMN with a "
        f"SPLIT every {SPLIT_EVERY}th step; read workload on the tip version"
    )
    return result


register(
    Experiment(
        name="fig16",
        title="Statement hot path vs SMO-chain depth",
        paper_artifact="Figure 16*",
        runner=run,
        quick_kwargs={"rows": 5000, "ops": 150},
        paper_kwargs={"rows": 50_000, "ops": 400},
    )
)
