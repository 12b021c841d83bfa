"""What one ``ALTER TABLE … RENAME`` costs against the size of the schema.

SQLite re-parses every schema object on a rename (it rewrites the
references views and triggers hold), so a rename costs in proportion to
the schema, not to the table.  This times a rename inside a transaction
on an in-memory database holding ``n`` tables, each with one view over
it, and prints the median per ``n``:

    python3 benchmarks/rename_cost.py [--repeat 200]
"""

from __future__ import annotations

import argparse
import sqlite3
import statistics
import time


def rename_ms(tables: int, repeat: int) -> float:
    connection = sqlite3.connect(":memory:", isolation_level=None)
    for i in range(tables):
        connection.execute(f"CREATE TABLE t{i} (p INTEGER PRIMARY KEY, a, b)")
        connection.execute(f"CREATE VIEW v{i} AS SELECT p, a, b FROM t{i}")
    connection.execute("CREATE TABLE moved (p INTEGER PRIMARY KEY, a, b)")
    samples = []
    connection.execute("BEGIN")
    for i in range(repeat):
        started = time.perf_counter()
        connection.execute(f"ALTER TABLE moved RENAME TO moved{i % 2}")
        samples.append(time.perf_counter() - started)
        connection.execute(f"ALTER TABLE moved{i % 2} RENAME TO moved")
    connection.execute("ROLLBACK")
    connection.close()
    return statistics.median(samples) * 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args()
    print(f"SQLite {sqlite3.sqlite_version}")
    print("tables  objects  rename_ms")
    for tables in (2, 25, 60):
        objects = 2 * tables + 1
        print(f"{tables:6d}  {objects:7d}  {rename_ms(tables, args.repeat):9.3f}")


if __name__ == "__main__":
    main()
