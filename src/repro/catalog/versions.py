"""Schema versions: named, user-facing sets of table versions.

Schema versions *share* table versions when a table is untouched by the
evolution between them (the paper: "Schema versions share a table version
if the table evolves in-between them").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import AccessError

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import TableVersion


@dataclass
class SchemaVersion:
    """A user-visible schema version: ``name`` plus its table versions."""

    name: str
    tables: dict[str, "TableVersion"] = field(default_factory=dict)
    parent: str | None = None
    dropped: bool = False
    #: Memo of :func:`repro.persist.fingerprint.version_fingerprint`: the
    #: table set, columns and key columns are fixed once the version exists.
    fingerprint: str | None = field(default=None, repr=False, compare=False)

    def table_version(self, table_name: str) -> "TableVersion":
        try:
            return self.tables[table_name]
        except KeyError:
            raise AccessError(
                f"schema version {self.name!r} has no table {table_name!r}"
            ) from None

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    def describe(self) -> dict[str, tuple[str, ...]]:
        """Table name -> column names, for documentation and tests."""
        return {
            name: tv.schema.column_names for name, tv in sorted(self.tables.items())
        }
