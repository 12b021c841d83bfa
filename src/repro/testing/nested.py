"""The nested-emission backend: the third leg of the differential oracle.

The product installs one view emission — the composed one.  The nested
one-view-per-hop rendering stays the independent reference the suite
compares it against (memory ≡ composed ≡ nested), so tests need a backend
that *installs* it.
"""

from __future__ import annotations

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend


class NestedEmissionBackend(LiveSqliteBackend):
    """A live backend whose regenerated views are the nested rendering
    (rendered afresh on every install — the diff against ``sqlite_master``
    still touches only what changed).  It is another emitter than the
    product's and stamps its files so: the product regenerates them once
    on open, and a ``verified_at`` mark left here vouches for nothing
    there."""

    def _view_statements(self, scope: codegen.Scope | None = None) -> list[str]:
        return codegen.Renderer(self.engine, flatten=False).view_statements(scope)

    def _delta_key(self) -> tuple[int, int]:
        generation, stamp = super()._delta_key()
        return generation, -stamp
