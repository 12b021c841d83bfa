"""Map contexts binding SMO semantics to the engine's storage and routing.

A context answers ``read(role)`` for one SMO instance:

- data roles resolve to the *visible extent* of the corresponding table
  version, computed recursively through the delta-code routing (with a
  per-operation cache);
- auxiliary roles resolve to their physical tables when stored, and to the
  empty extent otherwise — exactly the paper's Lemma-2 situation;
- roles on the *output side* of the running map are read non-recursively
  (stored extent or empty) because they represent the "old" state that
  identifier-reusing SMOs and a put's keeper consult (the ``T_o`` of
  Appendix B.3).

A put's context also knows the changes it carries, so that
:meth:`written` can give the row each written key held before the put.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bidel.smo.base import KeyedRows, MapContext, SideState, TableChange
from repro.relational.table import Key, Row

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import SmoInstance
    from repro.core.engine import InVerDa

ReadCache = dict[int, KeyedRows]


class EngineMapContext(MapContext):
    def __init__(
        self,
        engine: "InVerDa",
        smo: "SmoInstance",
        *,
        output_side: str,  # 'source' | 'target' — the side the map produces
        cache: ReadCache | None = None,
        changes: dict[str, TableChange] | None = None,
    ):
        self._engine = engine
        self._smo = smo
        self._output_side = output_side
        self._cache = cache if cache is not None else {}
        self._changes = changes or {}
        semantics = smo.semantics
        assert semantics is not None
        self._source_by_role = dict(zip(semantics.source_roles, smo.sources))
        self._target_by_role = dict(zip(semantics.target_roles, smo.targets))
        self._aux_roles = {role for side in semantics.aux_tables.values() for role in side}

    def read(self, role: str) -> KeyedRows:
        return self.read_keys(role, None)

    def read_keys(self, role: str, keys: set[Key] | None) -> KeyedRows:
        if keys is not None and not keys:
            return {}
        if role in self._aux_roles:
            return self._stored(self._smo.aux_table_name(role), keys)
        tv = self._source_by_role.get(role) or self._target_by_role.get(role)
        if tv is None:
            return {}
        if self._output_side_read_must_avoid_recursion(role):
            # "Old" state of the side being produced: stored extent or empty
            # (reading it through the routing would re-enter this SMO's map).
            return self._stored(tv.data_table_name, keys)
        if keys is None:
            return self._engine.read_table_version(tv, cache=self._cache)
        return self._engine.read_table_version_keys(tv, keys, cache=self._cache)

    def _stored(self, table_name: str, keys: set[Key] | None) -> KeyedRows:
        """A stored table's rows (those keyed by ``keys`` when given); none
        when the table is not stored."""
        database = self._engine.database
        if not database.has_table(table_name):
            return {}
        table = database.table(table_name)
        if keys is None:
            return table.as_dict()
        return {key: row for key in keys if (row := table.get(key)) is not None}

    def _output_side_read_must_avoid_recursion(self, role: str) -> bool:
        """Reading an output-side table version loops back through the map
        being evaluated exactly when the data for that side is routed
        through this SMO: the target side of a *virtualized* SMO and the
        source side of a *materialized* one."""
        if self._output_side == "target" and role in self._target_by_role:
            return not self._smo.materialized
        if self._output_side == "source" and role in self._source_by_role:
            return self._smo.materialized
        return False

    def keep(self, state: SideState) -> None:
        """The output side's extents are those tables' visible extents:
        a valid materialization routes every table of the side through
        this SMO."""
        side = self._target_by_role if self._output_side == "target" else self._source_by_role
        for role, rows in state.items():
            if role in side:
                self._cache[side[role].uid] = rows

    def written(self, role: str) -> dict[Key, Row | None]:
        change = self._changes.get(role)
        if change is None:
            return {}
        # A stored table holds the change already; it kept what it replaced.
        before = self.read(role)
        return {
            key: change.replaced[key] if key in change.replaced else before.get(key)
            for key in change.upserts
        }

    def allocate_id(self, sequence_role: str) -> Key:
        return self._engine.allocate_key()
