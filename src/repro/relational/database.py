"""Databases: named tables plus system-managed sequences.

A :class:`Database` holds the *physical* side of an InVerDa installation:
data tables for materialized table versions, auxiliary tables for the
materialized side of each SMO, and the sequences backing both the global
tuple identifier ``p`` and the per-SMO identity functions ``id_T(B)`` of the
FK/condition variants of DECOMPOSE and JOIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.relational.schema import TableSchema
from repro.relational.table import Table

ROW_ID_SEQUENCE = "p"


@dataclass
class Database:
    tables: dict[str, Table] = field(default_factory=dict)
    sequences: dict[str, int] = field(default_factory=dict)

    # -- table management --------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        try:
            del self.tables[name]
        except KeyError:
            raise SchemaError(f"table {name!r} does not exist") from None

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    # -- sequences ---------------------------------------------------------

    def next_value(self, sequence: str = ROW_ID_SEQUENCE) -> int:
        value = self.sequences.get(sequence, 0) + 1
        self.sequences[sequence] = value
        return value

    # -- whole-database operations ------------------------------------------

    def clone(self) -> "Database":
        clone = Database(sequences=dict(self.sequences))
        clone.tables = {name: table.copy() for name, table in self.tables.items()}
        return clone
