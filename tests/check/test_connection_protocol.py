"""The DB-API connection speaks one transaction protocol to every engine.

``repro/sql/connection.py`` holds a session — the memory engine's or the
live backend's — and never asks which: it touches neither the engine's
undo journal (``_undo_log``, ``_rollback_to``) nor the backend behind the
session (``._backend``), and never compares its session with ``None``.
What differs between the engines lives in their sessions.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONNECTION = ROOT / "src" / "repro" / "sql" / "connection.py"
BACKEND_INTERNALS = {"_undo_log", "_rollback_to", "_backend"}


def _is_session(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "_session") or (
        isinstance(node, ast.Name) and node.id == "_session"
    )


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def backend_branches(path: Path = CONNECTION) -> list[str]:
    """Each place ``path`` reaches past the session protocol."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in BACKEND_INTERNALS:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_session, operands)) and any(map(_is_none, operands)):
                found.append(f"line {node.lineno}: _session compared with None")
    return found


def test_connection_never_branches_on_its_backend():
    found = backend_branches()
    assert not found, "sql/connection.py reaches past its session: " + "; ".join(found)
