"""One source for the version: ``repro.__version__``; the packaging
metadata reads it instead of carrying a literal of its own."""

import re
import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[2]


def test_packaging_metadata_agrees_with_the_package():
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
    assert re.search(r'^dynamic\s*=\s*\["version"\]', pyproject, re.MULTILINE)
    built = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()[-1]
    assert built == repro.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
