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
    still touches only what changed).  The verifier's RPC109 knows the
    product's emission only, so ``verify_transitions`` is not for this
    class."""

    def _view_statements(self) -> list[str]:
        return codegen.view_statements(self.engine, flatten=False)
