"""Hand-optimized baselines (the paper's "handwritten SQL", Section 8).

Two artifacts live here:

- *Handwritten SQL text* for the TasKy scenario — the initial schema and
  the data movement of the TasKy2 migration as a developer would write
  them by hand.  It feeds the Table-3 code-size comparison together with
  the generated scripts.
- :class:`HandwrittenTasky` — a hand-optimized Python implementation of
  exactly the TasKy propagation paths (no generic routing, no rule
  machinery), the Figure-8 performance baseline. It is intentionally
  specialised: it supports precisely the two materializations the paper's
  handwritten experiment covers (initial and evolved) and nothing else —
  that inflexibility is the paper's point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.engine import InVerDa
from repro.relational.table import Key, Row

HANDWRITTEN_TASKY_INITIAL_SQL = """\
CREATE TABLE task (
    p serial PRIMARY KEY,
    author varchar(255),
    task varchar(255),
    prio int
);
"""


# The data movement a developer would write to move TasKy's data into the
# TasKy2 physical schema: create the new tables, move the data, drop the
# old storage.  (After it, every remaining version's views and triggers
# must be rewritten against the new tables — the part InVerDa regenerates.)
HANDWRITTEN_TASKY_MIGRATION_SQL = """\
CREATE TABLE task2 (
    p serial PRIMARY KEY,
    task varchar(255),
    prio int,
    author int
);
CREATE TABLE author (
    id serial PRIMARY KEY,
    name varchar(255)
);
INSERT INTO author (name)
SELECT DISTINCT author FROM task;
INSERT INTO task2 (p, task, prio, author)
SELECT t.p, t.task, t.prio, a.id
FROM task t JOIN author a ON a.name = t.author;
DROP TABLE task;
"""


@dataclass
class HandwrittenTasky:
    """Hand-optimized TasKy with co-existing TasKy/Do!/TasKy2 versions.

    Storage under the *initial* materialization: one ``task`` dict.
    Storage under the *evolved* materialization: ``task2`` + ``author``
    dicts. All propagation logic is written out by hand per access path —
    the shape (and fragility) of the paper's 359-line SQL solution.
    """

    materialization: str = "initial"  # 'initial' | 'evolved'
    task: dict[Key, Row] = field(default_factory=dict)  # (author, task, prio)
    task2: dict[Key, Row] = field(default_factory=dict)  # (task, prio, author_fk)
    author: dict[Key, str] = field(default_factory=dict)  # id -> name
    _next_key: int = 0

    def allocate(self) -> Key:
        self._next_key += 1
        return self._next_key

    # -- loading ----------------------------------------------------------

    def load(self, rows: list[tuple[str, str, int]]) -> None:
        for author, task, prio in rows:
            self.insert_tasky(author, task, prio)

    # -- reads -------------------------------------------------------------

    def read_tasky(self) -> list[tuple[str, str, int]]:
        if self.materialization == "initial":
            return [(a, t, p) for a, t, p in self.task.values()]
        names = self.author
        return [
            (names.get(fk, ""), task, prio) for task, prio, fk in self.task2.values()
        ]

    def read_do(self) -> list[tuple[str, str]]:
        if self.materialization == "initial":
            return [(a, t) for a, t, p in self.task.values() if p == 1]
        names = self.author
        return [
            (names.get(fk, ""), task)
            for task, prio, fk in self.task2.values()
            if prio == 1
        ]

    def read_tasky2(self) -> tuple[list[tuple[str, int, int]], list[tuple[int, str]]]:
        if self.materialization == "evolved":
            tasks = [(t, p, fk) for t, p, fk in self.task2.values()]
            authors = sorted(self.author.items())
            return tasks, authors
        # Derive the normalized form: dedup authors by name.
        by_name: dict[str, int] = {}
        tasks: list[tuple[str, int, int]] = []
        for a, t, p in self.task.values():
            fk = by_name.get(a)
            if fk is None:
                fk = len(by_name) + 1
                by_name[a] = fk
            tasks.append((t, p, fk))
        authors = sorted((fk, name) for name, fk in by_name.items())
        return tasks, authors

    # -- writes -------------------------------------------------------------

    def _author_fk(self, name: str) -> Key:
        for fk, existing in self.author.items():
            if existing == name:
                return fk
        fk = self.allocate()
        self.author[fk] = name
        return fk

    def insert_tasky(self, author: str, task: str, prio: int) -> Key:
        key = self.allocate()
        if self.materialization == "initial":
            self.task[key] = (author, task, prio)
        else:
            self.task2[key] = (task, prio, self._author_fk(author))
        return key

    def insert_do(self, author: str, task: str) -> Key:
        return self.insert_tasky(author, task, 1)

    def insert_tasky2(self, task: str, prio: int, author_fk: int) -> Key:
        key = self.allocate()
        if self.materialization == "evolved":
            self.task2[key] = (task, prio, author_fk)
        else:
            name = self.author.get(author_fk, "")
            self.task[key] = (name, task, prio)
        return key

    # -- migration -----------------------------------------------------------

    def migrate_to_evolved(self) -> None:
        if self.materialization == "evolved":
            return
        for key, (author, task, prio) in list(self.task.items()):
            self.task2[key] = (task, prio, self._author_fk(author))
        self.task.clear()
        self.materialization = "evolved"

    def migrate_to_initial(self) -> None:
        if self.materialization == "initial":
            return
        for key, (task, prio, fk) in list(self.task2.items()):
            self.task[key] = (self.author.get(fk, ""), task, prio)
        self.task2.clear()
        self.author.clear()
        self.materialization = "initial"


def handwritten_tasky(num_tasks: int, *, materialization: str, seed: int = 42) -> HandwrittenTasky:
    """A loaded handwritten baseline mirroring ``build_tasky``."""
    from repro.workloads.tasky import random_task

    rng = random.Random(seed)
    baseline = HandwrittenTasky()
    baseline.load(
        [
            (row["author"], row["task"], row["prio"])
            for row in (random_task(rng, serial) for serial in range(num_tasks))
        ]
    )
    if materialization == "evolved":
        baseline.migrate_to_evolved()
    return baseline
