"""The calibration kernel: a fixed piece of bare-``sqlite3`` work whose
running time tracks how fast the host is *right now*.

Host speed on the sandbox moves by up to 40 % on every time scale from
milliseconds to minutes, which no process-CPU clock removes (raw medians
of identical runs spread 13–30 %).  Every timed quantity of the benchmark
is therefore taken between two measurements of this kernel and divided by
them:

- a statement (tens of microseconds to milliseconds) sits between two
  *probes* — one point read of the kernel table each;
- a section (a DDL group, a move, a set-up: tens to hundreds of
  milliseconds) sits between two *readings* — the median of five
  mini-kernels of 30 point reads and 8 single-row updates each.

The numbers the benchmark reports are in *calibrated* units: the time the
work would have taken on a host that runs a probe in exactly
``PROBE_NOMINAL_MS`` and a reading in exactly ``CAL_NOMINAL_MS``.  The
kernel touches nothing under ``src/``: no change to the program can move
it.

The same file also carries the *plain tables*: for each pin, the rows its
table shows, in an ordinary table without any delta code — the bottom
level of the layer peel (what the pin's statements would cost if its
version were the only one and its table a physical one).
"""

from __future__ import annotations

import sqlite3
import statistics
import time

#: What one kernel reading and one probe take on the quiet 2-core sandbox
#: this benchmark was sized on.  Calibrated results are relative to them,
#: so they are committed constants, never re-measured at run time.
CAL_NOMINAL_MS = 12.5
PROBE_NOMINAL_MS = 0.065

KERNEL_ROWS = 2000
#: One reading is the median of this many mini-kernels (scaled back up),
#: so a single preemption inside a reading cannot shift it.
MINI_KERNELS = 5
MINI_READS = 30
MINI_WRITES = 8

#: A section whose two neighbouring readings differ by more than this
#: share is executed but not timed in.
UNSTEADY_SHARE = 0.20

#: The session pool's settings for a file database (``backend/pool.py``),
#: applied to the benchmark's *own* handles so that the bare-SQLite
#: levels run under the flush policy the program runs under.
POOL_PRAGMAS = (
    "PRAGMA busy_timeout = 5000",
    "PRAGMA recursive_triggers = ON",
    "PRAGMA journal_mode = WAL",
    "PRAGMA synchronous = NORMAL",
)
FLUSH_POLICY = "file database, WAL, synchronous=NORMAL, autocommit statements"


def plain_handle(path: str) -> sqlite3.Connection:
    """A bare ``sqlite3`` handle on ``path`` configured like a pooled
    session of the program."""
    connection = sqlite3.connect(path, check_same_thread=False, cached_statements=256)
    connection.isolation_level = None
    for pragma in POOL_PRAGMAS:
        connection.execute(pragma).fetchall()
    return connection


def cal_factor(before_ms: float, after_ms: float) -> float:
    """Multiplier turning a wall-clock sample taken between two kernel
    readings into calibrated time."""
    return CAL_NOMINAL_MS / ((before_ms + after_ms) / 2.0)


def probe_calibrated(wall_s: float, before_s: float, after_s: float) -> float:
    """A statement's wall seconds, taken between two probes, in
    calibrated seconds."""
    return wall_s / ((before_s + after_s) / 2.0) * (PROBE_NOMINAL_MS / 1000.0)


def unsteady(before_ms: float, after_ms: float) -> bool:
    """Did host speed change too much across a window to calibrate it?"""
    low, high = sorted((before_ms, after_ms))
    return (high - low) / low > UNSTEADY_SHARE


class Floor:
    """The kernel table plus the scenario's plain table, in one file."""

    PROBE_SQL = "SELECT k, grp, qty, note FROM kernel WHERE k = ?"

    def __init__(self, path: str):
        self.connection = plain_handle(path)
        execute = self.connection.execute
        execute("CREATE TABLE kernel(k INTEGER, grp INTEGER, qty INTEGER, note TEXT)")
        execute("BEGIN")
        self.connection.executemany(
            "INSERT INTO kernel VALUES (?, ?, ?, ?)",
            [(i, i % 7, i % 13, f"n{i}") for i in range(KERNEL_ROWS)],
        )
        execute("COMMIT")
        self._step = 0
        self.readings: list[float] = []
        self.reading()  # warm the statement cache and the page cache
        self.readings.clear()

    def load_plain(self, columns: tuple[str, ...], rows_by_name: dict[str, list]) -> None:
        """Create one plain table ``plain_<name>`` per entry: the given
        rows, no delta code."""
        execute = self.connection.execute
        execute("BEGIN")
        for name, rows in rows_by_name.items():
            execute(f"CREATE TABLE plain_{name}({', '.join(columns)})")
            self.connection.executemany(
                f"INSERT INTO plain_{name} VALUES ({', '.join('?' * len(columns))})", rows
            )
        execute("COMMIT")

    def probe(self) -> float:
        """One point read of the kernel table, in seconds — the unit of
        host speed interleaved with the statement samples."""
        self._step = step = self._step + 1
        start = time.perf_counter()
        self.connection.execute(
            self.PROBE_SQL, ((step * 7919) % KERNEL_ROWS,)
        ).fetchall()
        return time.perf_counter() - start

    def _mini(self) -> float:
        execute = self.connection.execute
        step = self._step
        start = time.perf_counter()
        for _ in range(MINI_READS):
            step += 1
            execute(self.PROBE_SQL, ((step * 7919) % KERNEL_ROWS,)).fetchall()
        for _ in range(MINI_WRITES):
            step += 1
            execute(
                "UPDATE kernel SET qty = qty + 1 WHERE k = ?",
                ((step * 7919) % KERNEL_ROWS,),
            )
        self._step = step
        return time.perf_counter() - start

    def reading(self) -> float:
        """One kernel reading in milliseconds."""
        minis = [self._mini() for _ in range(MINI_KERNELS)]
        value = statistics.median(minis) * MINI_KERNELS * 1000.0
        self.readings.append(value)
        return value

    def close(self) -> None:
        self.connection.close()
