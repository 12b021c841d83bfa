#!/usr/bin/env python
"""The mypy gate behind CI's ``static-analysis`` job.

The repository has zero runtime dependencies and the development
container does not ship mypy, so this wrapper is the portable entry
point:

- when mypy **is** importable (CI pip-installs it), run it over
  ``src/repro`` and the harness code beside it (``benchmarks/*.py``,
  ``benchmarks/soak``, ``tests/testing``) with the ``[tool.mypy]``
  configuration from ``pyproject.toml`` and propagate its exit status;
- when it is **not**, print a notice and exit 0 — the gate must never
  block local work on a missing tool, and the project lint
  (``python -m repro.check --lint``) still runs everywhere.

Run from the repository root: ``python scripts/typecheck.py``
"""

from __future__ import annotations

import glob
import importlib.util
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    if importlib.util.find_spec("mypy") is None:
        print("typecheck: mypy is not installed; skipping (CI installs it)")
        return 0
    command = [
        sys.executable,
        "-m",
        "mypy",
        "--config-file",
        os.path.join(REPO, "pyproject.toml"),
        os.path.join(REPO, "src", "repro"),
        *sorted(glob.glob(os.path.join(REPO, "benchmarks", "*.py"))),
        os.path.join(REPO, "benchmarks", "soak"),
        os.path.join(REPO, "tests", "testing"),
    ]
    print("typecheck:", " ".join(command[1:]))
    return subprocess.call(command)


if __name__ == "__main__":
    raise SystemExit(main())
