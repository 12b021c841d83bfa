"""Network serving: the wire-protocol server and the remote client driver.

The paper promises that every co-existing schema version is served to
applications as an ordinary database. This walkthrough makes that
literal over TCP: it starts a :class:`repro.ReproServer` on an ephemeral
port (backed by a file-based WAL SQLite database), then drives it with
``repro.connect_remote`` clients, showing

1. the identical PEP-249 surface on both transports,
2. per-client sessions (independent transactions, snapshot reads),
3. result paging and statement pipelining,
4. a catalog transition (DROP SCHEMA VERSION) surfacing to a bound
   client as a clean protocol error.

Run with: PYTHONPATH=src python examples/remote_client.py
"""

import tempfile
import os

import repro
from repro.backend.sqlite import LiveSqliteBackend
from repro.errors import OperationalError

db = repro.InVerDa()
db.execute("""
    CREATE SCHEMA VERSION TasKy WITH
    CREATE TABLE Task(author TEXT, task TEXT, prio INTEGER);
""")
repro.connect(db, "TasKy", autocommit=True).executemany(
    "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
    [("Ann", "Organize party", 3), ("Ben", "Learn for exam", 2),
     ("Ann", "Write paper", 1), ("Ben", "Clean room", 1)],
)
db.execute("""
    CREATE SCHEMA VERSION Do! FROM TasKy WITH
    SPLIT TABLE Task INTO Todo WITH prio = 1;
    DROP COLUMN prio FROM Todo DEFAULT 1;
""")

tmpdir = tempfile.mkdtemp(prefix="repro-remote-")
backend = LiveSqliteBackend.attach(db, database=os.path.join(tmpdir, "tasky.db"))

# ---------------------------------------------------------------------------
# 1. Serve, then connect like any database client
# ---------------------------------------------------------------------------
server = repro.serve(db, port=0)  # ephemeral port; use --port in production
host, port = server.address
print(f"serving {db.version_names()} on {host}:{port}\n")

tasky = repro.connect_remote(host, port, "TasKy", autocommit=True)
do = repro.connect_remote(host, port, "Do!", autocommit=True)
print("TasKy over TCP:", tasky.execute(
    "SELECT author, task FROM Task WHERE prio = ?", (1,)).fetchall())
print("Do!   over TCP:", do.execute(
    "SELECT author, task FROM Todo ORDER BY task").fetchall())

# ---------------------------------------------------------------------------
# 2. Every client is its own server-side session
# ---------------------------------------------------------------------------
status = tasky.server_status()
print(f"\nserver status: {status['clients']} clients, "
      f"{status['pool']['leased']} leased overflow handles")

txn = repro.connect_remote(host, port, "TasKy")  # transactional client
txn.execute("DELETE FROM Task")
print("during txn, another session still sees",
      tasky.execute("SELECT * FROM Task").rowcount, "rows (WAL snapshot)")
txn.rollback()
print("after rollback:", tasky.execute("SELECT * FROM Task").rowcount, "rows")
txn.close()

# ---------------------------------------------------------------------------
# 3. Paging and pipelining
# ---------------------------------------------------------------------------
paged = repro.connect_remote(host, port, "TasKy", autocommit=True, page_size=2)
cursor = paged.execute("SELECT task FROM Task ORDER BY task")
print("\npaged fetch (2 rows/frame):", [row[0] for row in cursor])
paged.close()

results = do.pipeline([
    ("INSERT INTO Todo(author, task) VALUES (?, ?)", ("Ann", "Buy milk")),
    ("INSERT INTO Todo(author, task) VALUES (?, ?)", ("Ben", "Call home")),
    "SELECT count(author) FROM Todo",
])
print("pipelined batch: 2 inserts + count =", results[2].fetchone()[0])
print("the writes surfaced in TasKy with the dropped-column default:",
      tasky.execute("SELECT task, prio FROM Task WHERE task = 'Buy milk'").fetchall())

# ---------------------------------------------------------------------------
# 4. Catalog transitions reach connected clients cleanly
# ---------------------------------------------------------------------------
tasky.execute("DROP SCHEMA VERSION Do!;")  # DDL over the wire
try:
    do.execute("SELECT * FROM Todo")
except OperationalError as exc:
    print(f"\nclient bound to the dropped version: OperationalError: {exc}")

do.close()
tasky.close()
server.close()
backend.close()
print("\nserver closed; all sessions returned to the pool")
