"""Every module of the package has a caller in the product.

``src/repro`` is the product; the harnesses that measure it live in
``benchmarks/`` and ``tests/``.  A module that only a harness or its own
unit test imports belongs beside that harness: inside the package it is
maintained, type-checked and linted as product code that no product
path or example reaches.  Package ``__init__`` and ``__main__`` modules
are entry points and need no importer.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples")


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> set[str]:
    """Dotted names ``path`` imports, with ``from a import b`` counted as
    both ``a`` and ``a.b`` (``b`` may be a submodule).  The project uses
    absolute imports only."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def dead_modules() -> list[str]:
    imported: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            own = _module_name(path) if path.is_relative_to(PACKAGE) else None
            imported.update(name for name in _imports(path) if name != own)
    return sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if path.stem not in ("__init__", "__main__")
        and _module_name(path) not in imported
    )


def test_every_module_is_imported_outside_the_tests():
    dead = dead_modules()
    assert not dead, "no product path or example imports " + ", ".join(dead)
