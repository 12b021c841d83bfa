#!/usr/bin/env python
"""Restart smoke test: a killed server restarts into the same catalog.

Exercises the durable-catalog path end to end, the way an operator
would hit it:

1. start ``python -m repro.server --demo --database state.db``;
2. over TCP, write a marker row and record the catalog fingerprint;
3. ``SIGKILL`` the server — no clean shutdown, no checkpoint;
4. restart ``python -m repro.server --db state.db --metrics-port 0``
   (no script/demo: the server must recover everything from the file);
5. every schema version answers again, the marker row survived, the
   catalog fingerprint is unchanged, and writes still propagate;
6. the recovered server reports how long recovery took, and the
   ``repro_catalog_generation`` gauge on the scrape endpoint matches the
   generation committed on disk (``on_disk_generation``);
7. that first restart verified the delta code in full and left the
   ``verified_at`` mark; a second restart reports ``verify_skipped`` for
   the same catalog fingerprint and leaves the mark row as it was.

Run from the repository root: ``PYTHONPATH=src python scripts/restart_smoke.py``
"""

from __future__ import annotations

import os
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.server.client import connect_remote  # noqa: E402

VERSIONS = ["TasKy", "Do!", "TasKy2"]
MARKER = "restart smoke marker"


def start_server(*args: str) -> tuple[subprocess.Popen, str, int, str | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    want_metrics = "--metrics-port" in args
    address = metrics_url = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"  [server] {line}")
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            address = (match.group(1), int(match.group(2)))
        match = re.search(r"metrics endpoint on (\S+)", line)
        if match:
            metrics_url = match.group(1)
        if address and (metrics_url or not want_metrics):
            return process, address[0], address[1], metrics_url
    process.kill()
    raise SystemExit("server did not report a listening address")


def read_mark(database: str) -> str | None:
    handle = sqlite3.connect(database)
    try:
        row = handle.execute(
            "SELECT value FROM _repro_catalog_meta WHERE key = 'verified_at'"
        ).fetchone()
    finally:
        handle.close()
    return None if row is None else row[0]


def connect(host: str, port: int, version: str):
    deadline = time.time() + 10
    while True:
        try:
            return connect_remote(host, port, version, timeout=10.0, autocommit=True)
        except Exception:
            if time.time() > deadline:
                raise
            time.sleep(0.2)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="repro-restart-smoke-")
    database = os.path.join(workdir, "state.db")

    print("== phase 1: demo server builds the catalog into the database file")
    process, host, port, _metrics = start_server(
        "--demo", "--demo-rows", "20", "--database", database
    )
    try:
        conn = connect(host, port, "TasKy")
        conn.execute(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            ("smoke", MARKER, 1),
        )
        status = conn.server_status()
        fingerprint = status["catalog"]["fingerprint"]
        generation = status["catalog"]["generation"]
        print(f"  marker written; catalog generation {generation}, "
              f"fingerprint {fingerprint[:12]}")
        conn.close()
        assert read_mark(database) is None, "a plain install left a verified-at mark"
    finally:
        print("== phase 2: SIGKILL the server (no clean shutdown)")
        process.send_signal(signal.SIGKILL)
        process.wait()

    print("== phase 3: restart from the bare file (no --script, no --demo)")
    process, host, port, metrics_url = start_server(
        "--db", database, "--metrics-port", "0"
    )
    try:
        conn = connect(host, port, "TasKy")
        status = conn.server_status()
        assert status["catalog"]["fingerprint"] == fingerprint, (
            "catalog fingerprint changed across restart: "
            f"{status['catalog']['fingerprint']} != {fingerprint}"
        )
        assert status["catalog"]["generation"] == generation
        assert status["versions"] == VERSIONS, status["versions"]

        # Observability of the recovery itself: the status reports how
        # long recovery took, and the catalog-generation gauge on the
        # scrape endpoint matches the generation committed on disk.
        recovery_seconds = status["catalog"]["recovery_seconds"]
        assert isinstance(recovery_seconds, float) and recovery_seconds > 0, (
            f"recovered server did not report a recovery duration: "
            f"{recovery_seconds!r}"
        )
        on_disk = status["catalog"]["on_disk_generation"]
        assert on_disk == generation, (
            f"on-disk generation drifted across restart: {on_disk} != {generation}"
        )
        import urllib.request

        scrape = (
            urllib.request.urlopen(metrics_url, timeout=10.0)
            .read()
            .decode("utf-8")
        )
        assert f"repro_catalog_generation {on_disk}" in scrape, (
            "repro_catalog_generation gauge does not match the on-disk "
            f"generation {on_disk}:\n" + scrape
        )
        assert "repro_recoveries_total 1" in scrape, scrape
        assert "repro_recovery_duration_seconds_count 1" in scrape, scrape
        print(f"  recovery reported: {recovery_seconds * 1000:.1f} ms; "
              f"generation gauge == on-disk generation {on_disk}")
        recovery = status["catalog"]["recovery"]
        assert recovery.get("verify_delta_ms", 0) > 0 and "verify_skipped" not in recovery, (
            f"restart 1 did not verify the delta code in full: {recovery}"
        )
        assert 'repro_recovery_verify_total{outcome="full"} 1' in scrape, scrape
        mark = read_mark(database)
        assert mark is not None, "restart 1 left no verified-at mark"
        print(f"  restart 1 verified in full ({recovery['verify_delta_ms']:.1f} ms) "
              "and left the mark")
        conn.close()

        expectations = {
            "TasKy": "SELECT author, task FROM Task WHERE task = ?",
            "Do!": "SELECT author, task FROM Todo WHERE task = ?",
            "TasKy2": "SELECT task FROM Task WHERE task = ?",
        }
        for version in VERSIONS:
            conn = connect(host, port, version)
            rows = conn.execute(expectations[version], (MARKER,)).fetchall()
            assert rows, f"marker row missing in {version!r} after restart"
            print(f"  {version}: marker visible ({rows[0]})")
            conn.close()

        print("== phase 4: the recovered catalog still accepts writes")
        conn = connect(host, port, "Do!")
        conn.execute(
            "INSERT INTO Todo(author, task) VALUES (?, ?)", ("smoke", "post-restart")
        )
        conn.close()
        conn = connect(host, port, "TasKy")
        rows = conn.execute(
            "SELECT prio FROM Task WHERE task = ?", ("post-restart",)
        ).fetchall()
        assert rows == [(1,)], f"write through Do! did not propagate: {rows}"
        conn.close()

        print("== phase 5: SIGTERM drains gracefully and exits 0")
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30)
        for line in process.stdout:
            sys.stdout.write(f"  [server] {line}")
        assert returncode == 0, (
            f"drained server exited {returncode}, expected 0"
        )
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait()

    print("== phase 6: the drained file reopens clean (no recovery repairs)")
    process, host, port, _metrics = start_server("--db", database)
    try:
        conn = connect(host, port, "TasKy")
        catalog = conn.server_status()["catalog"]
        assert catalog["recovery"].get("verify_skipped") is True, (
            f"restart 2 did not go by the mark: {catalog['recovery']}"
        )
        assert catalog["fingerprint"] == fingerprint and catalog["delta_reused"]
        assert read_mark(database) == mark, "restart 2 rewrote the verified-at mark"
        print(f"  restart 2 skipped the verifier: "
              f"{catalog['recovery']['total_ms']:.1f} ms in all")
        rows = conn.execute(
            "SELECT prio FROM Task WHERE task = ?", ("post-restart",)
        ).fetchall()
        assert rows == [(1,)], f"post-drain reopen lost data: {rows}"
        conn.close()
    finally:
        process.send_signal(signal.SIGKILL)
        process.wait()

    print("restart smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
