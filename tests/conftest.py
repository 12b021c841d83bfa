"""Shared fixtures: small TasKy scenarios in each materialization.

The harness modules the suite also tests (the ``bench_*.py`` experiments,
their workloads and the soak) live in ``benchmarks/``, which goes on the
import path here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.workloads.tasky import build_tasky

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

PAPER_ROWS = [
    ("Ann", "Organize party", 3),
    ("Ben", "Learn for exam", 2),
    ("Ann", "Write paper", 1),
    ("Ben", "Clean room", 1),
]


def build_paper_tasky():
    """The exact four-row database of Figure 1."""
    scenario = build_tasky(0)
    tasky = scenario.connect("TasKy")
    for row in PAPER_ROWS:
        tasky.execute("INSERT INTO Task(author, task, prio) VALUES (?, ?, ?)", row)
    return scenario


def rows(engine, version: str, sql: str, params=()) -> list[dict]:
    """A SELECT on ``version`` of ``engine``, one dictionary per row."""
    cursor = repro.connect(engine, version, autocommit=True).execute(sql, params)
    names = [column[0] for column in cursor.description]
    return [dict(zip(names, row)) for row in cursor.fetchall()]


def keyed(engine, version: str, table: str) -> dict[int, tuple]:
    """``{rowid: row}`` of ``table`` as ``version`` of ``engine`` shows it."""
    tv = engine.genealogy.schema_version(version).table_version(table)
    columns = ", ".join(tv.schema.column_names)
    cursor = repro.connect(engine, version, autocommit=True).execute(
        f"SELECT rowid, {columns} FROM {table}"
    )
    return {row[0]: row[1:] for row in cursor.fetchall()}


@pytest.fixture
def paper_tasky():
    return build_paper_tasky()


@pytest.fixture(params=["TasKy", "Do!", "TasKy2"])
def materialized_paper_tasky(request):
    scenario = build_paper_tasky()
    scenario.materialize(request.param)
    return scenario
