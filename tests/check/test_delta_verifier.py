"""The delta-code verifier: clean on generator output, and every seeded
defect class flagged with its stable diagnostic code."""

from __future__ import annotations

from unittest.mock import ANY

import pytest

from repro.backend import codegen
from repro.check.delta import verify_and_record, verify_delta_code
from repro.check.diagnostics import error_count
from repro.core.engine import InVerDa
from repro.workloads.tasky import build_tasky


@pytest.fixture
def engine():
    """Two versions over one table; the second column needs quoting
    (``alter`` is a SQL keyword) so the quoting pass has a target."""
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, alter INTEGER);"
    )
    engine.execute(
        "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"
    )
    return engine


def _emission(engine):
    return codegen.view_statements(engine), codegen.trigger_statements(engine)


def _both_emissions(engine):
    """``view_statements=`` arguments selecting the installed (composed)
    emission — the verifier's default — and the nested reference."""
    return (None, codegen.view_statements(engine, flatten=False))


class TestCleanOutput:
    def test_clean_on_generator_output(self, engine):
        for views in _both_emissions(engine):
            assert verify_delta_code(engine, view_statements=views) == []

    def test_clean_on_tasky(self):
        scenario = build_tasky(50, seed=11)
        for views in _both_emissions(scenario.engine):
            findings = verify_delta_code(scenario.engine, view_statements=views)
            assert findings == [], [d.render() for d in findings]

    def test_clean_when_flattening_prunes_a_dead_join(self):
        """A DROP COLUMN downstream of a SPLIT leaves the flattened
        emission reading *fewer* base tables than the nested composition:
        the join that only contributed the dropped column is dead in the
        inlined query but still referenced through the intermediate
        views.  That is legal pruning, not a defect (regression for a
        soak-found false positive; both emissions are differentially
        identical for this catalog)."""
        from repro.workloads.orders import build_orders

        engine = build_orders(1, 1, 1, versions=3).engine
        for script in [
            "CREATE SCHEMA VERSION s2 FROM v1 WITH "
            "RENAME COLUMN qty IN Orders TO c1;",
            "CREATE SCHEMA VERSION s10 FROM v3 WITH "
            "RENAME COLUMN status IN Closed TO c9;",
            "CREATE SCHEMA VERSION s11 FROM s10 WITH "
            "DROP COLUMN total FROM Open DEFAULT 0;",
        ]:
            engine.execute(script)
        findings = verify_delta_code(engine)
        assert findings == [], [d.render() for d in findings]


class TestSeededDefects:
    """Mutate known-good delta code; each defect class must be flagged
    with the right code."""

    def test_dangling_column_rpc102(self, engine):
        views, triggers = _emission(engine)
        views = [s.replace("f1.a AS a", "f1.zz AS a") for s in views]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert [d.code for d in findings] == ["RPC102"]
        assert findings[0].severity == "error"

    def test_misspelled_column_inside_a_head_probe_rpc102(self, engine):
        """The added column reads its stored value through a scalar
        subquery in the select list; a column that subquery names must
        exist on the aux table it reads."""
        views, triggers = _emission(engine)
        probe = "SELECT n.c FROM aux__1__B n"
        assert sum(probe in s for s in views) == 1
        views = [s.replace(probe, "SELECT n.cc FROM aux__1__B n") for s in views]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert [d.code for d in findings] == ["RPC102"]
        assert "cc" in findings[0].message and "v1__R" in findings[0].render()

    def test_reference_to_dropped_table_rpc101(self, engine):
        views, triggers = _emission(engine)
        views = [s.replace("d__0__R", "d__9__GONE") for s in views]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert {d.code for d in findings} == {"RPC101"}

    def test_missing_trigger_operation_rpc104(self, engine):
        views, triggers = _emission(engine)
        triggers = [t for t in triggers if "tg__0__delete" not in t]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert [d.code for d in findings] == ["RPC104"]
        assert "DELETE" in findings[0].message

    def test_unquoted_identifier_rpc105(self, engine):
        views, triggers = _emission(engine)
        views = [s.replace('"alter"', "alter") for s in views]
        triggers = [t.replace('"alter"', "alter") for t in triggers]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert findings and {d.code for d in findings} == {"RPC105"}
        assert all(d.severity == "warning" for d in findings)
        assert error_count(findings) == 0

    def test_view_cycle_rpc103(self, engine):
        views = codegen.view_statements(engine, flatten=False)
        triggers = codegen.trigger_statements(engine)
        assert "v0__R" in views[1]  # nested emission: v1 reads v0
        views = [views[0].replace("d__0__R", "v1__R")] + views[1:]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert "RPC103" in {d.code for d in findings}

    def test_flat_reading_extra_base_table_rpc106(self, engine, monkeypatch):
        """Pruning is legal; the converse — the flattened program
        answering from a table the nested composition never reads —
        is the defect RPC106 exists for."""
        from repro.check import delta

        real = codegen.view_statements

        def spiked(eng, *, flatten=True):
            statements = list(real(eng, flatten=flatten))
            if flatten:
                statements.append(
                    "CREATE VIEW spiked AS SELECT a FROM phantom_table"
                )
            else:
                statements.append("CREATE VIEW spiked AS SELECT 1 AS a")
            return statements

        monkeypatch.setattr(codegen, "view_statements", spiked)
        flat_scans = [delta.scan_statement(s) for s in spiked(engine)]
        findings = delta._check_emission_agreement(engine, flat_scans)
        assert [d.code for d in findings] == ["RPC106"]
        assert "phantom_table" in findings[0].message

    def test_forged_union_all_rpc108(self):
        """``UNION ALL`` on branches the catalog does not prove
        key-disjoint (JOIN ON PK: "T's rows" plus "rows only L had") is
        an error; the ``UNION`` the generator emits for them is clean, and
        so is its ``UNION ALL`` where the proof holds."""
        engine = InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION j1 WITH "
            "CREATE TABLE L(x INTEGER); CREATE TABLE R(y INTEGER);"
        )
        engine.execute(
            "CREATE SCHEMA VERSION j2 FROM j1 WITH JOIN TABLE L, R INTO T ON PK;"
        )
        engine.execute(
            "CREATE SCHEMA VERSION j3 FROM j2 WITH "
            "SPLIT TABLE T INTO A WITH x % 2 = 0, B WITH x % 2 = 1;"
        )
        engine.execute("MATERIALIZE 'j2';")
        views, triggers = _emission(engine)
        assert sum("\nUNION\n" in v for v in views) == 2
        assert sum("\nUNION ALL\n" in v for v in views) == 1
        assert verify_delta_code(engine) == []
        forged = [v.replace("\nUNION\n", "\nUNION ALL\n") for v in views]
        findings = verify_delta_code(
            engine, view_statements=forged, trigger_statements=triggers
        )
        assert {d.code for d in findings} == {"RPC108"}
        assert len(findings) == 2 and error_count(findings) == 2

    def test_unknown_qualifier_rpc102(self, engine):
        """The corruption class the old trigger renderer could produce
        (``uid`` rewritten into ``uNEW.id``) resolves to an unknown
        qualifier — the verifier must flag it."""
        views, triggers = _emission(engine)
        triggers = [t.replace("NEW.a", "uNEW.a") for t in triggers]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        assert findings and {d.code for d in findings} == {"RPC102"}
        assert any("uNEW" in d.message for d in findings)


class TestRecordingSurfaces:
    def test_verify_and_record_sets_last_check(self, engine):
        report = verify_and_record(engine, scope="unit")
        assert report["errors"] == 0
        assert report["diagnostics"] == []
        assert engine.last_check["scope"] == "unit"
        # last_check stays compact: the per-finding list is not embedded.
        assert "diagnostics" not in engine.last_check

    def test_findings_counter(self, engine):
        views, triggers = _emission(engine)
        triggers = [t for t in triggers if "tg__0__delete" not in t]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        from repro.check.diagnostics import record_findings

        record_findings(engine, findings, scope="unit")
        text = engine.metrics.render_prometheus()
        assert "repro_check_findings_total" in text
        assert 'code="RPC104"' in text

    def test_snapshot_carries_last_check(self, engine):
        from repro.obs.snapshot import engine_snapshot

        verify_and_record(engine, scope="unit")
        snapshot = engine_snapshot(engine)
        assert snapshot["check"]["scope"] == "unit"


class TestRecoveryIntegration:
    def test_recovery_runs_verifier(self, tmp_path):
        import repro

        path = str(tmp_path / "checked.db")
        engine = repro.open(path)
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        engine.live_backend.close()

        recovered = repro.open(path)
        try:
            assert recovered.last_check is not None
            assert recovered.last_check["scope"] == "recovery"
            assert recovered.last_check["errors"] == 0
        finally:
            recovered.live_backend.close()


class TestInstalledAgainstCatalog:
    """RPC109: what the database holds is what the catalog renders."""

    @staticmethod
    def _hand_edit(connection, view: str, old: str, new: str) -> None:
        (sql,) = connection.execute(
            "SELECT sql FROM sqlite_master WHERE name = ?", (view,)
        ).fetchone()
        triggers = connection.execute(
            "SELECT sql FROM sqlite_master WHERE type = 'trigger' AND tbl_name = ?",
            (view,),
        ).fetchall()
        assert old in sql
        connection.execute(f"DROP VIEW {view}")  # takes its triggers along
        connection.execute(sql.replace(old, new))
        for (trigger,) in triggers:
            connection.execute(trigger)

    def test_hand_edited_view_body_rpc109(self, engine, tmp_path):
        from repro.backend.sqlite import LiveSqliteBackend
        from repro.check.__main__ import run

        path = str(tmp_path / "edited.db")
        backend = LiveSqliteBackend.attach(engine, database=path)
        assert verify_delta_code(engine, connection=backend.connection) == []
        self._hand_edit(backend.connection, "v1__R", "(f1.a + 1) END", "(f1.a + 2) END")
        backend.connection.commit()
        findings = verify_delta_code(engine, connection=backend.connection)
        assert [(d.code, d.severity, d.obj) for d in findings] == [
            ("RPC109", "error", "v1__R")
        ]
        # Without the database there is nothing to hold the render against.
        assert verify_delta_code(engine) == []
        backend.close()
        assert run(["--db", path]) == 1
        # The next install is a diff against sqlite_master, so it repairs
        # exactly the edited view (and the triggers that go with it).
        backend = LiveSqliteBackend.attach(engine, database=path)
        try:
            backend.regenerate()
            assert backend.last_install == {"created": 4, "dropped": 4, "kept": 4, "bytes": ANY}
            assert verify_delta_code(engine, connection=backend.connection) == []
        finally:
            backend.close()

    def test_missing_and_left_behind_objects_rpc109(self, engine):
        from repro.backend.sqlite import LiveSqliteBackend

        backend = LiveSqliteBackend.attach(engine)
        try:
            backend.connection.execute("DROP TRIGGER tg__1__delete")
            backend.connection.execute(
                "CREATE VIEW v7__Gone AS SELECT p FROM d__0__R"
            )
            findings = verify_delta_code(engine, connection=backend.connection)
            assert sorted((d.code, d.obj) for d in findings) == [
                ("RPC109", "tg__1__delete"), ("RPC109", "v7__Gone"),
            ]
        finally:
            backend.close()

    def test_transition_gate_reads_the_database(self, engine):
        from repro.backend.sqlite import LiveSqliteBackend

        backend = LiveSqliteBackend.attach(engine, verify_transitions=True)
        try:
            engine.execute(
                "CREATE SCHEMA VERSION v3 FROM v2 WITH RENAME COLUMN c IN R TO cc;"
            )
            assert engine.last_check["errors"] == 0
            assert backend.last_install == {"created": 4, "dropped": 0, "kept": 8, "bytes": ANY}
        finally:
            backend.close()


class TestTransitionVerification:
    def test_opt_in_hook_runs_after_ddl(self, tmp_path):
        from repro.backend.sqlite import LiveSqliteBackend

        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine, verify_transitions=True)
        try:
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a INTO T;"
            )
            assert engine.last_check["scope"] == "transition:evolution"
            engine.execute("MATERIALIZE v2;")
            assert engine.last_check["scope"] == "transition:materialize"
        finally:
            backend.close()

    def test_a_failed_gate_keeps_the_committed_transition(self, tmp_path, monkeypatch):
        """An error finding after a MATERIALIZE or a drop has committed
        fails the statement and parts neither side: the engine and the
        reopened file list the same versions under the same fingerprint."""
        import repro
        from repro.backend.sqlite import LiveSqliteBackend
        from repro.check import delta
        from repro.check.diagnostics import Diagnostic
        from repro.errors import CatalogError

        path = str(tmp_path / "gate.db")
        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a INTO T;")
        backend = LiveSqliteBackend.attach(engine, database=path, verify_transitions=True)
        forced = [Diagnostic("RPC109", "error", "v9__Forced", "forced finding")]
        try:
            with monkeypatch.context() as patch:
                patch.setattr(delta, "check_installed", lambda installed, statements: forced)
                with pytest.raises(CatalogError, match="after materialize"):
                    engine.execute("MATERIALIZE v2;")
                with pytest.raises(CatalogError, match="after drop"):
                    engine.execute("DROP SCHEMA VERSION v1;")
            assert engine.version_names() == ["v2"]
            assert [smo.materialized for smo in engine.genealogy.evolution_smos()] == [True]
            fingerprint = engine.catalog_fingerprint()
        finally:
            backend.close()
        reopened = repro.open(path)
        try:
            assert reopened.version_names() == ["v2"]
            assert reopened.catalog_fingerprint() == fingerprint
        finally:
            reopened.live_backend.close()

    def test_off_by_default(self):
        from repro.backend.sqlite import LiveSqliteBackend

        engine = InVerDa()
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        backend = LiveSqliteBackend.attach(engine)
        try:
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN b AS a INTO T;"
            )
            assert engine.last_check is None
        finally:
            backend.close()


class TestCli:
    def test_cli_db_mode(self, tmp_path, capsys):
        import repro
        from repro.check.__main__ import run

        path = str(tmp_path / "cli.db")
        engine = repro.open(path)
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        engine.live_backend.close()

        assert run(["--db", path]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_cli_db_mode_ignores_the_mark_and_leaves_the_file_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        import sqlite3

        import repro
        from repro.check import delta
        from repro.check.__main__ import run

        def file_state():
            handle = sqlite3.connect(path)
            try:
                return (
                    handle.execute("SELECT * FROM _repro_catalog_meta ORDER BY key").fetchall(),
                    handle.execute("SELECT name, sql FROM sqlite_master ORDER BY name").fetchall(),
                )
            finally:
                handle.close()

        calls = []
        real = delta.verify_delta_code
        monkeypatch.setattr(
            delta, "verify_delta_code",
            lambda *a, **kw: calls.append(kw) or real(*a, **kw),
        )
        path = str(tmp_path / "cli.db")
        engine = repro.open(path)
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);")
        engine.live_backend.close()

        unmarked = file_state()
        assert run(["--db", path]) == 0
        assert "verified-at mark: absent or stale" in capsys.readouterr().out
        assert len(calls) == 1 and file_state() == unmarked

        repro.open(path).live_backend.close()  # verifies in full, marks
        marked = file_state()
        assert marked != unmarked
        del calls[:]
        assert run(["--db", path]) == 0
        assert "verified-at mark: matches this file" in capsys.readouterr().out
        assert len(calls) == 1 and calls[0]["connection"] is not None
        assert file_state() == marked

        handle = sqlite3.connect(path)
        handle.execute("DROP TRIGGER tg__0__delete")
        handle.commit()
        handle.close()
        assert run(["--db", path]) == 1
        out = capsys.readouterr().out
        assert "RPC109" in out and "verified-at mark: absent or stale" in out

    def test_cli_db_mode_refuses_a_file_without_a_catalog(self, tmp_path):
        from repro.check.__main__ import run
        from repro.errors import CatalogError

        with pytest.raises(CatalogError, match="no persisted catalog"):
            run(["--db", str(tmp_path / "nothing.db")])
        assert not (tmp_path / "nothing.db").exists()

    def test_cli_requires_a_mode(self, capsys):
        from repro.check.__main__ import run

        assert run([]) == 2
