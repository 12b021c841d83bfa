"""Tables: multisets of rows keyed by the InVerDa identifier ``p``.

The paper gives every table an attribute ``p``, a system-managed identifier
that (a) uniquely identifies a tuple across all schema versions and (b)
reconciles SQL multiset semantics with Datalog set semantics. We store it as
the dictionary key rather than as a visible column.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.errors import AccessError
from repro.relational.schema import TableSchema
from repro.relational.types import Value

Row = tuple
Key = int


@dataclass
class Table:
    """Mutable storage for one physical table (data or auxiliary)."""

    schema: TableSchema
    _rows: dict[Key, Row] = field(default_factory=dict)

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Key) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator[tuple[Key, Row]]:
        return iter(self._rows.items())

    def keys(self) -> Iterable[Key]:
        return self._rows.keys()

    def get(self, key: Key) -> Row | None:
        return self._rows.get(key)

    def require(self, key: Key) -> Row:
        try:
            return self._rows[key]
        except KeyError:
            raise AccessError(f"table {self.name!r} has no row with id {key}") from None

    # -- mutation ------------------------------------------------------------

    def insert(self, key: Key, row: Row) -> None:
        if key in self._rows:
            raise AccessError(f"duplicate row id {key} in table {self.name!r}")
        self._rows[key] = self.schema.row_from_sequence(row)

    def upsert(self, key: Key, row: Row) -> None:
        self._rows[key] = self.schema.row_from_sequence(row)

    def update(self, key: Key, row: Row) -> Row:
        old = self.require(key)
        self._rows[key] = self.schema.row_from_sequence(row)
        return old

    def delete(self, key: Key) -> Row:
        try:
            return self._rows.pop(key)
        except KeyError:
            raise AccessError(f"table {self.name!r} has no row with id {key}") from None

    def discard(self, key: Key) -> Row | None:
        return self._rows.pop(key, None)

    def clear(self) -> None:
        self._rows.clear()

    def replace_all(self, rows: Mapping[Key, Row]) -> None:
        self._rows = {key: self.schema.row_from_sequence(row) for key, row in rows.items()}

    # -- derived views -------------------------------------------------------

    def as_dict(self) -> dict[Key, Row]:
        return dict(self._rows)

    def rows_as_mappings(self) -> list[dict[str, Value]]:
        return [self.schema.row_to_mapping(row) for row in self._rows.values()]

    def copy(self, *, schema: TableSchema | None = None) -> "Table":
        clone = Table(schema or self.schema)
        clone._rows = dict(self._rows)
        return clone

    def data_equal(self, other: "Table") -> bool:
        """Compare contents only (schema names may differ between versions)."""
        return self._rows == other._rows
