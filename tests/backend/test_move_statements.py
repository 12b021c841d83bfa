"""Statement witness of MATERIALIZE on both schedules.

A trace callback on the administrative handle records every top-level
statement each move issues (trigger-body lines, which SQLite reports as
``--`` comments, are dropped) over the sargable chain — 1 000 rows, data
at S4 — moved offline to S8, online back to S4, online to S8 and offline
back to S4.  Each move stays within the statements it issued when the
offline and online moves were two pipelines, and the offline move is one
transaction with none of the online schedule's machinery: no count
check, no change capture, no journal.
"""

from __future__ import annotations

import pytest

from repro.backend import online
from repro.persist.store import BACKFILL_TABLE
from tests.backend.test_sargable import build_chain

#: (id, statement, statements issued when the schedules were two pipelines)
MOVES = [
    ("offline-S8", "MATERIALIZE 'S8';", 138),
    ("online-S4", "MATERIALIZE ONLINE 'S4';", 204),
    ("online-S8", "MATERIALIZE ONLINE 'S8';", 212),
    ("offline-S4", "MATERIALIZE 'S4';", 152),
]


@pytest.fixture(scope="module")
def traces():
    engine, backend = build_chain([(i, i % 7, i % 13, f"n{i}") for i in range(1000)])
    recorded: dict[str, list[str]] = {}
    try:
        for name, statement, _budget in MOVES:
            seen: list[str] = []
            backend.connection.set_trace_callback(seen.append)
            try:
                engine.execute(statement)
            finally:
                backend.connection.set_trace_callback(None)
            recorded[name] = [s for s in seen if not s.lstrip().startswith("--")]
    finally:
        backend.close()
    return recorded


@pytest.mark.parametrize("name, budget", [(m[0], m[2]) for m in MOVES])
def test_move_stays_within_its_statements(traces, name, budget):
    assert len(traces[name]) <= budget, traces[name]


@pytest.mark.parametrize("name", ["offline-S8", "offline-S4"])
def test_offline_move_is_one_transaction_without_capture(traces, name):
    trace = traces[name]
    assert [s for s in trace if s.split()[0] == "BEGIN"] == ["BEGIN"]
    assert not [s for s in trace if "SELECT COUNT(*)" in s]
    capture = (online.DIRTY_TABLE, f"{online.TRANSITIONAL_PREFIX}__cap__")
    assert not [s for s in trace if any(text in s for text in capture)]
    # It reads the journal once (nothing to supersede) and never writes it.
    journal = [s for s in trace if BACKFILL_TABLE in s]
    assert len(journal) == 1 and journal[0].startswith("SELECT"), journal


def test_online_move_keeps_its_schedule(traces):
    trace = traces["online-S4"]
    assert sum(s.split()[0] == "BEGIN" for s in trace) == 3  # prepare, chunk, cutover
    assert [s for s in trace if "SELECT COUNT(*)" in s]
    assert [s for s in trace if s.startswith(f"DELETE FROM {BACKFILL_TABLE}")]
