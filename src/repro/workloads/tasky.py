"""The TasKy running example (Figure 1) as a reusable scenario.

Three co-existing schema versions over one task data set:

- ``TasKy`` — the initial desktop app: ``Task(author, task, prio)``;
- ``Do!`` — the phone app: ``Todo(author, task)`` holding only the most
  urgent tasks (``prio = 1``);
- ``TasKy2`` — the normalized second release: ``Task(task, prio, author→
  Author)`` and ``Author(id, name)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.engine import InVerDa
from repro.sql.connection import Connection, connect

TASKY_INITIAL_SCRIPT = """
CREATE SCHEMA VERSION TasKy WITH
CREATE TABLE Task(author TEXT, task TEXT, prio INTEGER);
"""

DO_SCRIPT = """
CREATE SCHEMA VERSION Do! FROM TasKy WITH
SPLIT TABLE Task INTO Todo WITH prio = 1;
DROP COLUMN prio FROM Todo DEFAULT 1;
"""

TASKY2_SCRIPT = """
CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH
DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author;
RENAME COLUMN author IN Author TO name;
"""

MIGRATION_SCRIPT = "MATERIALIZE 'TasKy2';\n"

AUTHOR_POOL = [
    "Ann", "Ben", "Cara", "Dan", "Eve", "Finn", "Gina", "Hank",
    "Iris", "Jon", "Kim", "Liam", "Mia", "Noah", "Olive", "Pete",
]

VERBS = ["Organize", "Write", "Clean", "Review", "Plan", "Fix", "Read", "Prepare"]
OBJECTS = ["party", "paper", "room", "code", "trip", "bug", "book", "talk", "report"]


def random_task(rng: random.Random, serial: int) -> dict:
    return {
        "author": rng.choice(AUTHOR_POOL),
        "task": f"{rng.choice(VERBS)} {rng.choice(OBJECTS)} #{serial}",
        "prio": rng.randint(1, 5),
    }


@dataclass
class TaskyScenario:
    engine: InVerDa
    num_tasks: int
    rng: random.Random

    def connect(self, version: str, *, autocommit: bool = True) -> Connection:
        """A DB-API connection to one of the co-existing versions."""
        return connect(self.engine, version, autocommit=autocommit)

    def materialize(self, version: str) -> None:
        self.engine.execute(f"MATERIALIZE '{version}';")

    def next_task(self) -> dict:
        self.num_tasks += 1
        return random_task(self.rng, self.num_tasks)


def build_tasky(
    num_tasks: int = 1000,
    *,
    seed: int = 42,
    with_do: bool = True,
    with_tasky2: bool = True,
) -> TaskyScenario:
    """Build the three-version TasKy database with ``num_tasks`` rows.

    The data is loaded through the SQL layer (one ``executemany`` batch),
    exactly the path a real client application would use.
    """
    engine = InVerDa()
    engine.execute(TASKY_INITIAL_SCRIPT)
    rng = random.Random(seed)
    rows = [random_task(rng, serial) for serial in range(num_tasks)]
    if rows:
        connection = connect(engine, "TasKy", autocommit=True)
        connection.executemany(
            "INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)",
            [(row["author"], row["task"], row["prio"]) for row in rows],
        )
        connection.close()
    if with_do:
        engine.execute(DO_SCRIPT)
    if with_tasky2:
        engine.execute(TASKY2_SCRIPT)
    return TaskyScenario(engine=engine, num_tasks=num_tasks, rng=rng)
