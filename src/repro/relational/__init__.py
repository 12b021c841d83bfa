"""Pure-Python relational substrate.

The paper's InVerDa prototype sits on PostgreSQL; this package provides the
equivalent substrate for the reproduction: typed table schemas, tables whose
rows are keyed by the InVerDa-managed identifier ``p`` (unique across all
versions of a tuple), and databases with named tables and sequences.
"""

from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value, infer_type

__all__ = [
    "Database",
    "Table",
    "TableSchema",
    "Column",
    "DataType",
    "coerce_value",
    "infer_type",
]
