"""Persist benchmark results as ``BENCH_<name>.json`` at the repo root.

The perf trajectory must survive across PRs: every ``--smoke`` run of a
benchmark records its measured numbers (plus environment facts a future
reader needs to interpret them) into a ``BENCH_*.json`` file that is
committed alongside the code and uploaded as a CI artifact.  A later PR
that touches the hot path regenerates the file and the diff *is* the
perf trajectory.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sqlite3
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _environment() -> dict:
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    return {
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "cpu_count": cores,
    }


def record(name: str, result, *, extra: dict | None = None, root: Path | None = None) -> Path:
    """Write ``result`` (an ``ExperimentResult`` or a plain dict) to
    ``BENCH_<name>.json`` under ``root`` (default: the repo root);
    returns the written path."""
    if hasattr(result, "columns"):  # experiment.ExperimentResult
        payload = {
            "experiment": result.experiment,
            "title": result.title,
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "notes": list(result.notes),
        }
    else:
        payload = dict(result)
    document = {
        "name": name,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "environment": _environment(),
        "result": payload,
    }
    if extra:
        document.update(extra)
    path = (root or REPO_ROOT) / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, default=str) + "\n", encoding="utf-8")
    return path


def load(name: str, *, root: Path | None = None) -> dict | None:
    """The previously recorded document for ``name``, or ``None``."""
    path = (root or REPO_ROOT) / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__":  # pragma: no cover - tiny CLI for inspection
    for bench_file in sorted(REPO_ROOT.glob("BENCH_*.json")):
        document = json.loads(bench_file.read_text(encoding="utf-8"))
        print(f"{bench_file.name}: recorded {document.get('recorded_at')}")
        sys.stdout.write(json.dumps(document.get("environment", {}), indent=2) + "\n")
