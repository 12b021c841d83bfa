"""Base abstractions for SMO semantics.

Every SMO is a *symmetric lens* between its source side and its target side
(Figure 5 of the paper). A side consists of the data tables of the table
versions on that side plus the SMO's auxiliary tables living on that side.
An SMO states its semantics once, as the paper does (Section 4): the rule
sets ``γ_tgt`` (:meth:`SmoSemantics.gamma_tgt_rules`), deriving the full
target side from the source side, and ``γ_src``
(:meth:`SmoSemantics.gamma_src_rules`), the other way round.  The views,
the triggers and the proofs are compiled from them, and the memory engine
evaluates them: :meth:`SmoSemantics.map_forward` and
:meth:`SmoSemantics.map_backward` run the instance's own rule sets through
:func:`repro.datalog.evaluate.evaluate`.

The side that is *materialized* is physically stored (data + aux); the
other side is derived on demand. Shared auxiliary tables (the ``ID`` tables
of the identifier-generating SMOs, Appendix B.3/B.4/B.6) are stored on both
sides — the paper stores generated identifiers "independently of the chosen
materialization" for repeatable reads.  The rules read ``ID`` and derive
none: before a map evaluates them, :meth:`SmoSemantics.identifiers`
completes ``ID`` for the rows it is about to map.

Writes run the same rules: :meth:`SmoSemantics.put` transports the
:class:`TableChange` of the written side to the other side by evaluating
the rule set again — over the changed keys' rows alone when every body atom
carries the head's key (the rule set is key-local), over whole extents
otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from repro.datalog.ast import RuleSet, Var
from repro.datalog.evaluate import evaluate
from repro.errors import EvolutionError
from repro.expr.ast import Expression, is_true
from repro.relational.schema import TableSchema
from repro.relational.table import Key, Row

KeyedRows = dict[Key, Row]
_first = itemgetter(0)
SideState = dict[str, KeyedRows]


class _Direction:
    """One rule set as a map runs it: the roles it reads, the roles of its
    side it derives, whether it is key-local, and whether it is grounded
    (every rule reads a positive atom, so no input rows derive no rows)."""

    def __init__(self, rules: RuleSet, side: tuple[str, ...]):
        self.rules = rules
        atoms = [(rule.head.terms[0], atom) for rule in rules for atom in rule.body_atoms()]
        derived = set(rules.derived_predicates())
        self.reads = tuple(
            dict.fromkeys(atom.pred for _, atom in atoms if atom.pred not in derived)
        )
        self.writes = tuple(role for role in side if role in derived)
        self.key_local = all(
            isinstance(head, Var) and atom.terms[:1] == (head,) for head, atom in atoms
        )
        self.grounded = all(rule.body_atoms(positive=True) for rule in rules)


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

    def read_keys(self, role: str, keys: set[Key] | None) -> KeyedRows:
        """Extent restricted to ``keys`` (the whole extent for None);
        engines override this to avoid materializing whole tables for a
        keyed map."""
        extent = self.read(role)
        if keys is None:
            return extent
        return {key: extent[key] for key in keys if key in extent}

    def keep(self, state: SideState) -> None:
        """Remember the whole side a keyed map evaluated (it was not
        key-local); engines cache it for later reads of the same state."""

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
        self._built_rules: dict[bool, _Direction] | None = None
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

    @cached_property
    def aux_tables(self) -> Mapping[str, Mapping[str, TableSchema]]:
        """:meth:`aux_src`, :meth:`aux_tgt` and :meth:`aux_shared` under
        ``"source"``, ``"target"`` and ``"shared"``, read-only: built once
        per instance, where each of those builds its schemas afresh."""
        return MappingProxyType({
            side: MappingProxyType(tables())
            for side, tables in (
                ("source", self.aux_src), ("target", self.aux_tgt), ("shared", self.aux_shared)
            )
        })

    # -- state-level mappings -------------------------------------------------

    #: roles whose rules key them by a column that is not unique; their
    #: rows are numbered in row order, as the stored table keys them
    numbered_roles: tuple[str, ...] = ()

    def map_forward(self, ctx: MapContext, keys: set[Key] | None = None) -> SideState:
        """``γ_tgt``: the full target side (data roles + aux_tgt +
        aux_shared) from the source side read through ``ctx``; only the
        rows keyed by ``keys`` when given."""
        return self._map(True, ctx, keys)

    def map_backward(self, ctx: MapContext, keys: set[Key] | None = None) -> SideState:
        """``γ_src``: the full source side (data roles + aux_src +
        aux_shared) from the target side read through ``ctx``; only the
        rows keyed by ``keys`` when given."""
        return self._map(False, ctx, keys)

    def identifiers(
        self, forward: bool, inputs: dict[str, KeyedRows], ctx: MapContext
    ) -> KeyedRows | None:
        """``ID`` completed for the rows the map reads (``inputs``: the
        extents the rule set reads, by role), or None for an SMO without
        generated identifiers."""
        return None

    def keeper(self, forward: bool, ctx: MapContext, keys: set[Key] | None) -> SideState:
        """Rows a put adds to the inputs of the rule set it evaluates, by
        role, read at ``keys`` when given; none by default."""
        return {}

    def _rule_sets(self) -> dict[bool, _Direction]:
        """Both rule sets, built once per instance (keyed by ``forward``)."""
        if self._built_rules is None:
            self._built_rules = {
                True: _Direction(
                    self.gamma_tgt_rules(), (*self.target_roles, *self.aux_tgt())
                ),
                False: _Direction(
                    self.gamma_src_rules(), (*self.source_roles, *self.aux_src())
                ),
            }
        return self._built_rules

    def _map(
        self,
        forward: bool,
        ctx: MapContext,
        keys: set[Key] | None,
        given: SideState | None = None,
    ) -> SideState:
        """A key-local rule set derives a row from the input rows with its
        key alone, so it reads just those; any other reads whole extents,
        hands the whole side to :meth:`MapContext.keep` and keeps the rows
        keyed by ``keys``.  ``given`` replaces the reads of its roles."""
        direction = self._rule_sets()[forward]
        narrow = keys is not None and direction.key_local
        given = given or {}
        inputs = {
            role: given[role] if role in given else ctx.read_keys(role, keys if narrow else None)
            for role in direction.reads
        }
        ids = self.identifiers(forward, inputs, ctx)
        if ids is not None:
            inputs["ID"] = ids
        facts: dict = {}
        if not direction.grounded or any(inputs.values()):
            extensional = {
                role: [(key, *row) for key, row in rows.items()]
                for role, rows in inputs.items()
            }
            facts = evaluate(direction.rules, extensional)
        state: SideState = {}
        for role in direction.writes:
            if role in self.numbered_roles:
                numbered = sorted(facts.get(role, ()), key=lambda fact: fact[1:])
                state[role] = {number: fact[1:] for number, fact in enumerate(numbered, 1)}
            else:
                facts_by_key = sorted(facts.get(role, ()), key=_first)
                state[role] = {fact[0]: fact[1:] for fact in facts_by_key}
        if ids is not None:
            state["ID"] = ids
        if keys is not None and not narrow:
            ctx.keep(state)
            state = {
                role: {key: rows[key] for key in keys if key in rows}
                for role, rows in state.items()
            }
        return state

    # -- writes ---------------------------------------------------------------

    def put(
        self, forward: bool, changes: dict[str, TableChange], ctx: MapContext
    ) -> dict[str, TableChange]:
        """The lens put: the changes to the other side (data and aux roles)
        that ``changes`` to the written side's data roles make, forward
        from the source side or backward from the target side.  A
        key-local rule set derives a key's rows from that key's rows alone,
        so the put is keyed by the changed keys; any other is put whole."""
        keys = None
        if self._rule_sets()[forward].key_local:
            keys = set().union(*(change.keys() for change in changes.values()))
        return self._put(forward, changes, ctx, keys)

    def _put(
        self,
        forward: bool,
        changes: dict[str, TableChange],
        ctx: MapContext,
        keys: set[Key] | None,
    ) -> dict[str, TableChange]:
        """The put at ``keys``, or over whole extents when None.  It reads
        the written roles, applies ``changes`` and evaluates the rule set.
        A keyed put writes every row it derives and deletes the rest of
        ``keys``, unchanged rows too: a rewrite cascades, as the delta
        code's triggers do.  A whole put writes the difference to the
        other side as it stands."""
        given: SideState = {}
        for role, change in changes.items():
            # At the keys its change writes, a role's current rows do not matter.
            rows = dict(ctx.read_keys(role, None if keys is None else keys - change.keys()))
            change.apply_to(rows)
            given[role] = rows
        given.update(self.keeper(forward, ctx, keys))
        out: dict[str, TableChange] = {}
        for role, rows in self._map(forward, ctx, keys, given).items():
            if keys is not None:
                out[role] = TableChange(rows, keys - rows.keys())
                continue
            current = ctx.read(role)
            out[role] = TableChange(
                {key: row for key, row in rows.items() if current.get(key) != row},
                current.keys() - rows.keys(),
            )
        return out

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
