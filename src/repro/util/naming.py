"""Identifier validation and quoting shared by BiDEL and the SQL generator."""

from __future__ import annotations

import functools
import re

from repro.errors import SchemaError

# BiDEL accepts slightly exotic version names such as ``Do!`` (the paper's
# phone app), so version identifiers allow a trailing bang.
_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_VERSION_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*!?$")

_SQL_KEYWORDS = frozenset(
    {
        "select", "from", "where", "insert", "update", "delete", "table",
        "view", "trigger", "into", "values", "set", "and", "or", "not",
        "null", "join", "union", "on", "as", "create", "drop", "alter",
        "group", "order", "by", "exists", "in", "is", "like", "case",
        "when", "then", "else", "end",
    }
)


def check_identifier(name: str, *, what: str = "identifier") -> str:
    """Validate a table/column identifier, returning it unchanged."""
    if not _IDENTIFIER.match(name):
        raise SchemaError(f"invalid {what}: {name!r}")
    return name


def check_version_name(name: str) -> str:
    """Validate a schema-version name (``TasKy``, ``Do!``, ``TasKy2``...)."""
    if not _VERSION_IDENTIFIER.match(name):
        raise SchemaError(f"invalid schema version name: {name!r}")
    return name


def quote_identifier(name: str) -> str:
    """Quote an identifier for SQL output when needed."""
    if _IDENTIFIER.match(name) and name.lower() not in _SQL_KEYWORDS:
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


@functools.lru_cache(maxsize=4096)
def physical_name(*parts: str) -> str:
    """Build a deterministic physical object name from name parts.

    Characters outside ``[A-Za-z0-9_]`` (e.g. the bang in ``Do!``) are
    replaced so physical names are always plain identifiers.
    """
    joined = "__".join(parts)
    return re.sub(r"[^A-Za-z0-9_]", "_", joined)
