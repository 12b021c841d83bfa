"""``python -m repro.server`` — stand up a repro server from a BiDEL script.

::

    python -m repro.server --script schema.bidel --database state.db

builds an engine, executes the script (every ``CREATE SCHEMA VERSION`` /
``MATERIALIZE`` in it), attaches the live SQLite backend when
``--database`` is given, and serves until interrupted.  Without
``--script`` it serves the built-in TasKy demo catalog (three co-existing
versions), which is handy for trying the client driver::

    python -m repro.server --demo --port 7512
    python - <<'EOF'
    import repro
    conn = repro.connect_remote("127.0.0.1", 7512, "TasKy")
    print(conn.execute("SELECT * FROM Task").fetchall())
    EOF

Because the catalog is persisted *inside* the database file, a killed
server restarts into the same catalog without the original script::

    python -m repro.server --db state.db

recovers every schema version, the materialization choice, and the data
from ``state.db`` and serves them again.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.backend.sqlite import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.server.protocol import DEFAULT_PORT
from repro.server.server import ReproServer


def build_engine(args) -> InVerDa:
    if args.script:
        with open(args.script, encoding="utf-8") as f:
            script = f.read()
        engine = InVerDa()
        engine.execute(script)
        return engine
    from repro.workloads.tasky import build_tasky

    return build_tasky(args.demo_rows).engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve co-existing schema versions over TCP.",
    )
    parser.add_argument("--script", help="BiDEL script building the schema catalog")
    parser.add_argument(
        "--demo", action="store_true", help="serve the TasKy demo catalog instead"
    )
    parser.add_argument(
        "--demo-rows", type=int, default=100, help="rows in the demo data set"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--database",
        "--db",
        help="SQLite file for the live backend (omitted: in-memory engine); "
        "a file carrying a persisted catalog is recovered and served as-is",
    )
    parser.add_argument("--pool-size", type=int, default=8)
    parser.add_argument("--max-sessions", type=int, default=None)
    parser.add_argument("--busy-timeout", type=float, default=5.0)
    parser.add_argument("--page-size", type=int, default=256)
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve the metrics registry over HTTP on this port "
        "(GET /metrics, Prometheus text format; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace for every statement (ring-buffered, "
        "readable via the status op)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log statements slower than this many milliseconds to the "
        "slow-query ring buffer",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a graceful shutdown (SIGTERM/SIGINT) waits for "
        "in-flight requests before cutting the remaining clients off",
    )
    args = parser.parse_args(argv)
    from repro.persist.recovery import database_has_catalog, open_database

    recovering = (
        not args.script
        and not args.demo
        and args.database is not None
        and database_has_catalog(args.database)
    )
    if not args.script and not args.demo and not recovering:
        parser.error(
            "one of --script or --demo is required "
            "(or --database pointing at an existing repro database)"
        )

    if recovering:
        engine = open_database(
            args.database,
            create=False,
            pool_size=args.pool_size,
            max_sessions=args.max_sessions,
            busy_timeout=args.busy_timeout,
        )
        backend = engine.live_backend
    else:
        engine = build_engine(args)
        backend = None
        if args.database:
            backend = LiveSqliteBackend.attach(
                engine,
                database=args.database,
                pool_size=args.pool_size,
                max_sessions=args.max_sessions,
                busy_timeout=args.busy_timeout,
            )
    engine.tracer.enabled = args.trace
    if args.slow_ms is not None:
        engine.tracer.slow_ms = args.slow_ms
    metrics_http = None
    if args.metrics_port is not None:
        from repro.obs.http import MetricsHTTPServer

        metrics_http = MetricsHTTPServer(
            engine.metrics, host=args.host, port=args.metrics_port
        ).start()
    server = ReproServer(
        engine, args.host, args.port, backend=backend, page_size=args.page_size
    ).start()
    host, port = server.address
    print(f"repro server listening on {host}:{port}", flush=True)
    if metrics_http is not None:
        mhost, mport = metrics_http.address
        print(f"metrics endpoint on http://{mhost}:{mport}/metrics", flush=True)
    print(f"serving versions: {', '.join(engine.version_names())}", flush=True)
    if backend is not None:
        verb = "recovered" if backend.recovered else "persisting"
        print(
            f"catalog {verb}: generation {engine.catalog_generation}, "
            f"fingerprint {engine.catalog_fingerprint()[:12]}",
            flush=True,
        )
    # Graceful drain: SIGTERM (and SIGINT / Ctrl-C) stops accepting,
    # finishes in-flight requests within --drain-timeout, returns every
    # open transaction's handle to the pool, and exits 0 — so process
    # managers can roll the server without killing client requests
    # mid-reply.
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        while not stop.wait(timeout=1.0):
            pass
        print("draining: no new connections, finishing in-flight requests",
              flush=True)
    except KeyboardInterrupt:
        pass  # SIGINT before the handler was installed: same drain path
    finally:
        server.drain(timeout=args.drain_timeout)
        if metrics_http is not None:
            metrics_http.close()
        if backend is not None:
            backend.close()
        print("shutdown complete", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
