"""Base abstractions for SMO semantics.

Every SMO is a *symmetric lens* between its source side and its target side
(Figure 5 of the paper). A side consists of the data tables of the table
versions on that side plus the SMO's auxiliary tables living on that side:

- ``γ_tgt`` (:meth:`SmoSemantics.map_forward`) maps the full source side to
  the full target side;
- ``γ_src`` (:meth:`SmoSemantics.map_backward`) maps the full target side
  back to the full source side.

The side that is *materialized* is physically stored (data + aux); the
other side is derived on demand. Shared auxiliary tables (the ``ID`` tables
of the identifier-generating SMOs, Appendix B.3/B.4/B.6) are stored on both
sides — the paper stores generated identifiers "independently of the chosen
materialization" for repeatable reads.

Incremental write propagation (:meth:`propagate_forward` /
:meth:`propagate_backward`) transports a :class:`TableChange` across the
SMO; the default implementation signals "no fast path" and the engine falls
back to a full-state lens put, which is always correct.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.datalog.ast import RuleSet
from repro.errors import EvolutionError
from repro.expr.ast import Expression, is_true
from repro.relational.schema import TableSchema
from repro.relational.table import Key, Row

KeyedRows = dict[Key, Row]
SideState = dict[str, KeyedRows]


@dataclass
class TableChange:
    """An incremental change to one table: upserts plus deletions, and the
    row each upsert replaced (None for a new key) once the engine applies
    it to a stored table."""

    upserts: KeyedRows = field(default_factory=dict)
    deletes: set[Key] = field(default_factory=set)
    replaced: dict[Key, Row | None] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.upserts and not self.deletes

    def keys(self) -> set[Key]:
        return set(self.upserts) | self.deletes

    def merge(self, other: "TableChange") -> None:
        for key in other.deletes:
            self.upserts.pop(key, None)
            self.deletes.add(key)
        for key, row in other.upserts.items():
            self.deletes.discard(key)
            self.upserts[key] = row

    def apply_to(self, rows: KeyedRows) -> None:
        for key in self.deletes:
            rows.pop(key, None)
        rows.update(self.upserts)


class MapContext(ABC):
    """What a mapping function may ask of its environment: current table
    extents by role and fresh identifiers from the SMO's sequences."""

    @abstractmethod
    def read(self, role: str) -> KeyedRows:
        """Current extent of the table playing ``role`` for this SMO."""

    def read_keys(self, role: str, keys: set[Key]) -> KeyedRows:
        """Extent restricted to ``keys``; engines override this to avoid
        materializing whole tables during key-local write propagation."""
        extent = self.read(role)
        return {key: extent[key] for key in keys if key in extent}

    def written(self, role: str) -> dict[Key, Row | None]:
        """The rows of ``role`` the put being mapped writes, each key with
        the row it had before (None for a new one); none outside a put."""
        return {}

    @abstractmethod
    def allocate_id(self, sequence_role: str) -> Key:
        """Next value of the SMO-owned sequence (the ``id_T`` functions)."""


class FixedContext(MapContext):
    """A MapContext over a plain dictionary of extents; used by tests, the
    verifier's runtime lens checks, and migration dry runs."""

    def __init__(self, extents: Mapping[str, KeyedRows], allocator: Callable[[str], Key] | None = None):
        self._extents = dict(extents)
        self._counters: dict[str, int] = {}
        self._allocator = allocator

    def read(self, role: str) -> KeyedRows:
        return self._extents.get(role, {})

    def allocate_id(self, sequence_role: str) -> Key:
        if self._allocator is not None:
            return self._allocator(sequence_role)
        value = self._counters.get(sequence_role, 1_000_000) + 1
        self._counters[sequence_role] = value
        return value


def evaluate_condition(condition: Expression, schema: TableSchema, row: Row) -> bool:
    """SQL semantics: only a genuine TRUE satisfies the condition."""
    return is_true(condition.evaluate(schema.row_to_mapping(row)))


class SmoSemantics(ABC):
    """Semantics of one SMO instance, bound to concrete source schemas."""

    #: logical role names for the source/target table versions, in order
    source_roles: tuple[str, ...] = ()
    target_roles: tuple[str, ...] = ()

    def __init__(self, node, source_schemas: tuple[TableSchema, ...]):
        self.node = node
        self.source_schemas = source_schemas
        self.validate()

    # -- schema level -----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`EvolutionError` when the SMO does not apply to the
        given source schemas."""

    @abstractmethod
    def target_schemas(self) -> tuple[TableSchema, ...]:
        """User-visible schemas of the target table versions."""

    # -- auxiliary tables ----------------------------------------------------

    def aux_src(self) -> dict[str, TableSchema]:
        """Aux tables on the source side (stored while the SMO is virtualized)."""
        return {}

    def aux_tgt(self) -> dict[str, TableSchema]:
        """Aux tables on the target side (stored while the SMO is materialized)."""
        return {}

    def aux_shared(self) -> dict[str, TableSchema]:
        """Aux tables stored regardless of materialization (ID tables)."""
        return {}

    def sequences(self) -> tuple[str, ...]:
        """Names of identifier sequences this SMO owns."""
        return ()

    # -- state-level mappings -------------------------------------------------

    @abstractmethod
    def map_forward(self, ctx: MapContext) -> SideState:
        """``γ_tgt``: derive the full target side (data roles + aux_tgt +
        aux_shared) from the source side read through ``ctx``."""

    @abstractmethod
    def map_backward(self, ctx: MapContext) -> SideState:
        """``γ_src``: derive the full source side (data roles + aux_src +
        aux_shared) from the target side read through ``ctx``."""

    # -- incremental write propagation ---------------------------------------

    def propagate_forward(
        self, changes: dict[str, TableChange], ctx: MapContext
    ) -> dict[str, TableChange] | None:
        """Transport source-side data changes to the target side.

        Returns changes for target data roles and for aux roles, or ``None``
        when the SMO has no incremental fast path (the engine then performs
        a full lens put, which is always correct)."""
        return None

    def propagate_backward(
        self, changes: dict[str, TableChange], ctx: MapContext
    ) -> dict[str, TableChange] | None:
        """Transport target-side data changes to the source side."""
        return None

    def invalidate_caches(self) -> None:
        """Drop any internal memoization (called on migration/rollback)."""

    # -- Datalog artifacts ------------------------------------------------------

    @abstractmethod
    def gamma_tgt_rules(self) -> RuleSet:
        """Instantiated Datalog rules for ``γ_tgt``: the target side's data
        and aux roles from the source side (views, MATERIALIZE, proofs).
        Rules read the shared aux tables and derive none: an identifier
        they need is one ``ID`` records."""

    @abstractmethod
    def gamma_src_rules(self) -> RuleSet:
        """Instantiated Datalog rules for ``γ_src``, the other way round."""

    # -- misc -------------------------------------------------------------

    def describe(self) -> str:
        return self.node.unparse()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise EvolutionError(message)


def is_all_null(row: Row) -> bool:
    return all(value is None for value in row)
