"""Oplog ordering for online MATERIALIZE.

MATERIALIZE is not order-neutral in the differential oplog: it freezes
derived ``ADD COLUMN`` payloads into stored aux state, so a client write
that executes after the cutover but lands in the log *before* the move's
DDL entry replays against pre-freeze semantics and the oracle diverges.
The harness therefore appends the DDL entry from inside the engine's
``online_cutover_hook``, under the stream write lock — the move's true
serialization point.
"""

from __future__ import annotations

import pytest

from soak.harness import LogEntry, SoakConfig, SoakHarness


@pytest.fixture
def harness():
    h = SoakHarness(SoakConfig(seed=5, duration=1.0, clients=2))
    h._build()
    yield h
    h._teardown([])


class TestCutoverBarrier:
    def test_ddl_entry_lands_inside_the_cutover_window(self, harness):
        h = harness
        assert h.live.online_cutover_hook is not None
        h._online_script = "MATERIALIZE ONLINE 'v1';"
        before = len(h.oplog)
        h.live.execute("MATERIALIZE ONLINE 'v1';")
        # The hook consumed the pending script and appended exactly one
        # DDL entry at the cutover's serialization point.
        assert h._online_script is None
        entries = h.oplog[before:]
        assert [e.kind for e in entries] == ["ddl"]
        assert entries[0] == LogEntry("ddl", None, "MATERIALIZE ONLINE 'v1';", ())

    def test_freeze_semantics_make_ordering_observable(self, harness):
        """The reason ordering matters: an update to a derived column's
        input replayed before vs after MATERIALIZE yields different
        frozen payloads.  Replaying the log in harness order must match
        the live engine — this is the soak-found divergence, determinized."""
        from repro.sql.connection import connect

        h = harness
        h.live.execute(
            "CREATE SCHEMA VERSION d1 FROM v1 WITH "
            "ADD COLUMN dc AS status + status INTO Orders;"
        )
        h.oplog.append(
            LogEntry(
                "ddl",
                None,
                "CREATE SCHEMA VERSION d1 FROM v1 WITH "
                "ADD COLUMN dc AS status + status INTO Orders;",
                (),
            )
        )
        live_v1 = connect(h.live, "v1", autocommit=True, backend=h.backend)
        live_v1.execute(
            "UPDATE Orders SET status = ? WHERE order_no = ?", (9, 0)
        )
        h.log_sql("v1", "UPDATE Orders SET status = ? WHERE order_no = ?", (9, 0))
        h._online_script = "MATERIALIZE ONLINE 'd1';"
        h.live.execute("MATERIALIZE ONLINE 'd1';")
        live_d1 = connect(h.live, "d1", autocommit=True, backend=h.backend)
        frozen = live_d1.execute(
            "SELECT dc FROM Orders WHERE order_no = ?", (0,)
        ).fetchall()
        assert frozen == [(18,)]  # frozen from the updated status, 9 + 9

        # The oracle replay of the log in harness order agrees.
        h._replay()
        oracle = connect(h.mem, "d1", autocommit=True)
        assert oracle.execute(
            "SELECT dc FROM Orders WHERE order_no = ?", (0,)
        ).fetchall() == [(18,)]
        oracle.close()
        live_v1.close()
        live_d1.close()


class TestOplogDump:
    def test_divergence_dump_is_env_gated(self, harness, tmp_path, monkeypatch):
        h = harness
        h.log_sql("v1", "UPDATE Orders SET qty = ? WHERE order_no = ?", (3, 7))
        monkeypatch.delenv("REPRO_SOAK_OPLOG_DUMP", raising=False)
        h._dump_oplog(0, "detail")  # no env var: writes nothing
        path = tmp_path / "oplog.txt"
        monkeypatch.setenv("REPRO_SOAK_OPLOG_DUMP", str(path))
        h._dump_oplog(1, "visible states differ: ...")
        text = path.read_text()
        assert "# barrier #1 diverged" in text
        assert "UPDATE Orders SET qty = ? WHERE order_no = ?" in text
        assert "(3, 7)" in text
