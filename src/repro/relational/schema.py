"""Table schemas: ordered, typed column lists with structural operations.

Schemas are immutable; every evolution step (rename, project, concat...)
produces a new schema object. This mirrors how SMOs derive target table
versions from source table versions without mutating them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import SchemaError
from repro.relational.types import DataType, Value, coerce_value
from repro.util.naming import check_identifier


@dataclass(frozen=True)
class Column:
    name: str
    dtype: DataType = DataType.ANY

    def __post_init__(self) -> None:
        check_identifier(self.name, what="column name")

    def renamed(self, name: str) -> "Column":
        return Column(name, self.dtype)

    def to_sql(self) -> str:
        type_sql = self.dtype.to_sql()
        return f"{self.name} {type_sql}".strip()


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of named, typed columns belonging to table ``name``."""

    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        check_identifier(self.name, what="table name")
        positions: dict[str, int] = {}
        for index, column in enumerate(self.columns):
            if column.name in positions:
                raise SchemaError(f"duplicate column {column.name!r} in table {self.name!r}")
            positions[column.name] = index
        # Name lookups are dict probes: a statement makes several per row.
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_names", tuple(positions))

    @classmethod
    def of(cls, name: str, columns: Sequence[str | Column | tuple[str, DataType]]) -> "TableSchema":
        """Convenience constructor accepting names, (name, type) pairs, or Columns."""
        built: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                built.append(spec)
            elif isinstance(spec, tuple):
                built.append(Column(spec[0], spec[1]))
            else:
                built.append(Column(spec))
        return cls(name, tuple(built))

    # -- lookups ----------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arity(self) -> int:
        return len(self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._positions

    def index_of(self, name: str) -> int:
        index = self._positions.get(name)
        if index is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return index

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    # -- structural operations -------------------------------------------

    def with_name(self, name: str) -> "TableSchema":
        return TableSchema(name, self.columns)

    def rename_column(self, old: str, new: str) -> "TableSchema":
        index = self.index_of(old)
        if self.has_column(new):
            raise SchemaError(f"table {self.name!r} already has a column {new!r}")
        columns = list(self.columns)
        columns[index] = columns[index].renamed(new)
        return TableSchema(self.name, tuple(columns))

    def add_column(self, column: Column, position: int | None = None) -> "TableSchema":
        if self.has_column(column.name):
            raise SchemaError(f"table {self.name!r} already has a column {column.name!r}")
        columns = list(self.columns)
        if position is None:
            columns.append(column)
        else:
            columns.insert(position, column)
        return TableSchema(self.name, tuple(columns))

    def drop_column(self, name: str) -> "TableSchema":
        index = self.index_of(name)
        columns = list(self.columns)
        del columns[index]
        if not columns:
            raise SchemaError(f"cannot drop the last column of table {self.name!r}")
        return TableSchema(self.name, tuple(columns))

    def project(self, names: Sequence[str], *, table_name: str | None = None) -> "TableSchema":
        columns = tuple(self.column(name) for name in names)
        return TableSchema(table_name or self.name, columns)

    # -- row handling -------------------------------------------------------

    def row_from_mapping(self, values: Mapping[str, Value], *, strict: bool = True) -> tuple:
        """Build a storage tuple from a column->value mapping.

        Missing columns become NULL; unknown columns raise when ``strict``.
        """
        if strict:
            for key in values:
                if key not in self._positions:
                    raise SchemaError(f"table {self.name!r} has no column {key!r}")
        return tuple(
            coerce_value(values.get(column.name), column.dtype) for column in self.columns
        )

    def row_from_sequence(self, values: Sequence[Value]) -> tuple:
        if len(values) != self.arity:
            raise SchemaError(
                f"table {self.name!r} expects {self.arity} values, got {len(values)}"
            )
        return tuple(
            coerce_value(value, column.dtype) for value, column in zip(values, self.columns)
        )

    def row_to_mapping(self, row: Sequence[Value]) -> dict[str, Value]:
        return dict(zip(self._names, row))

    def null_row(self) -> tuple:
        return (None,) * self.arity

    def is_null_row(self, row: Iterable[Value]) -> bool:
        return all(value is None for value in row)
