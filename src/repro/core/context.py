"""Map contexts binding SMO semantics to the engine's storage and routing.

A context answers ``read(role)`` for one SMO instance:

- data roles resolve to the *visible extent* of the corresponding table
  version, computed recursively through the delta-code routing (with a
  per-operation cache);
- auxiliary roles resolve to their physical tables when stored, and to the
  empty extent otherwise — exactly the paper's Lemma-2 situation;
- roles on the *output side* of the running map are read non-recursively
  (stored extent or empty) because they represent the "old" state that
  identifier-reusing SMOs consult (the ``T_o`` of Appendix B.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bidel.smo.base import KeyedRows, MapContext
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
        overrides: dict[str, KeyedRows] | None = None,
        written: dict[str, dict[Key, Row | None]] | None = None,
    ):
        self._engine = engine
        self._smo = smo
        self._output_side = output_side
        self._cache = cache if cache is not None else {}
        self._overrides = overrides or {}
        self._written = written or {}
        semantics = smo.semantics
        assert semantics is not None
        self._source_by_role = dict(zip(semantics.source_roles, smo.sources))
        self._target_by_role = dict(zip(semantics.target_roles, smo.targets))
        self._aux_roles = (
            set(semantics.aux_src()) | set(semantics.aux_tgt()) | set(semantics.aux_shared())
        )

    def read(self, role: str) -> KeyedRows:
        if role in self._overrides:
            return self._overrides[role]
        if role in self._aux_roles:
            return self._engine.read_aux(self._smo, role)
        tv = self._source_by_role.get(role) or self._target_by_role.get(role)
        if tv is None:
            return {}
        if self._output_side_read_must_avoid_recursion(role):
            # "Old" state of the side being produced: stored extent or empty
            # (reading it through the routing would re-enter this SMO's map).
            return self._engine.read_stored(tv)
        return self._engine.read_table_version(tv, cache=self._cache)

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

    def read_keys(self, role: str, keys: set[Key]) -> KeyedRows:
        if role in self._overrides:
            extent = self._overrides[role]
            return {k: extent[k] for k in keys if k in extent}
        if role in self._aux_roles:
            extent = self._engine.read_aux(self._smo, role)
            return {k: extent[k] for k in keys if k in extent}
        tv = self._source_by_role.get(role) or self._target_by_role.get(role)
        if tv is None:
            return {}
        if self._output_side_read_must_avoid_recursion(role):
            extent = self._engine.read_stored(tv)
            return {k: extent[k] for k in keys if k in extent}
        return self._engine.read_table_version_keys(tv, keys, cache=self._cache)

    def written(self, role: str) -> dict[Key, Row | None]:
        return self._written.get(role, {})

    def allocate_id(self, sequence_role: str) -> Key:
        return self._engine.allocate_key()
