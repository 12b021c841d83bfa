"""Generated delta code: structure, Table 3's inputs, and row-parity on a
real SQL engine."""

import pytest

from repro.backend import codegen
from repro.backend.sqlite import LiveSqliteBackend
from repro.sqlgen.scripts import script, tasky_generated_scripts
from repro.util.codemetrics import measure_code
from tests.conftest import build_paper_tasky, keyed, rows


@pytest.fixture(scope="module")
def scenario():
    return build_paper_tasky()


class TestGeneratedScripts:
    def test_delta_code_has_view_per_derived_table(self, scenario):
        views = codegen.view_statements(scenario.engine)
        todo = scenario.engine.genealogy.schema_version("Do!").table_version("Todo")
        assert any(
            view.startswith(f"CREATE VIEW {todo.view_name} AS") for view in views
        )
        assert len(views) == len(codegen.active_table_versions(scenario.engine))

    def test_delta_code_has_triggers(self, scenario):
        triggers = codegen.trigger_statements(scenario.engine)
        assert all(
            trigger.startswith("CREATE TRIGGER") and "INSTEAD OF" in trigger
            for trigger in triggers
        )
        assert len(triggers) == 3 * len(codegen.active_table_versions(scenario.engine))

    def test_table3_evolution_is_the_installed_delta_code(self, scenario):
        """Table 3 sizes the code that runs: its "evolution" SQL is, byte
        for byte, the ``sql`` of every view and trigger ``sqlite_master``
        holds for a TasKy backend."""
        backend = LiveSqliteBackend.attach(scenario.engine)
        try:
            installed = [
                sql
                for (sql,) in backend.connection.execute(
                    "SELECT sql FROM sqlite_master "
                    "WHERE type IN ('view', 'trigger') ORDER BY rowid"
                )
            ]
        finally:
            backend.close()
        evolution = tasky_generated_scripts().sql_evolution
        assert evolution == script(installed)
        size = measure_code(evolution)
        assert (size.statements, size.characters) == (64, 6100)

    def test_tasky_scripts_table3_direction(self):
        scripts = tasky_generated_scripts()
        bidel = measure_code(scripts.bidel_evolution)
        sql = measure_code(scripts.sql_evolution)
        assert sql.lines > bidel.lines
        assert sql.statements > bidel.statements
        assert sql.characters > bidel.characters

    def test_migration_script_nonempty(self):
        scripts = tasky_generated_scripts()
        assert "INSERT INTO" in scripts.sql_migration
        assert measure_code(scripts.bidel_migration).lines == 1


class TestSqliteParity:
    """The generated views return exactly the engine's rows on SQLite.
    Attach hands the rows to SQLite, so the memory engine's keyed extent
    is always read *before* attaching."""

    @pytest.mark.parametrize(
        "version,table",
        [("TasKy", "Task"), ("Do!", "Todo"), ("TasKy2", "Task"), ("TasKy2", "Author")],
    )
    def test_initial_materialization(self, version, table):
        engine = build_paper_tasky().engine
        expected = keyed(engine, version, table)
        backend = LiveSqliteBackend.attach(engine)
        try:
            sqlite_rows = backend.select_keyed(version, table)
            assert sqlite_rows == expected
        finally:
            backend.close()

    @pytest.mark.parametrize("materialize", ["Do!", "TasKy2"])
    def test_other_materializations(self, materialize):
        scenario = build_paper_tasky()
        scenario.materialize(materialize)
        tables = [("TasKy", "Task"), ("Do!", "Todo"), ("TasKy2", "Task")]
        expected = {
            (version, table): keyed(scenario.engine, version, table)
            for version, table in tables
        }
        backend = LiveSqliteBackend.attach(scenario.engine)
        try:
            for version, table in tables:
                sqlite_rows = backend.select_keyed(version, table)
                assert sqlite_rows == expected[version, table], (
                    f"{version}.{table} under {materialize}"
                )
        finally:
            backend.close()

    def test_two_smo_chain_parity(self):
        from repro.workloads.micro import build_two_smo_scenario

        engine = build_two_smo_scenario("split", "add_column", rows=60)
        expected = keyed(engine, "v3", "R")
        backend = LiveSqliteBackend.attach(engine)
        try:
            sqlite_rows = backend.select_keyed("v3", "R")
            assert sqlite_rows == expected
        finally:
            backend.close()


class TestHandwrittenBaseline:
    def test_matches_engine_reads(self):
        from repro.sqlgen.handwritten import handwritten_tasky
        from repro.workloads.tasky import build_tasky

        scenario = build_tasky(50)
        baseline = handwritten_tasky(50, materialization="initial")
        engine_tasks = sorted(
            (r["author"], r["task"], r["prio"])
            for r in rows(scenario.engine, "TasKy", "SELECT * FROM Task")
        )
        assert sorted(baseline.read_tasky()) == engine_tasks
        engine_do = sorted(
            (r["author"], r["task"]) for r in rows(scenario.engine, "Do!", "SELECT * FROM Todo")
        )
        assert sorted(baseline.read_do()) == engine_do

    def test_migration_preserves_reads(self):
        from repro.sqlgen.handwritten import handwritten_tasky

        baseline = handwritten_tasky(30, materialization="initial")
        before = sorted(baseline.read_tasky())
        baseline.migrate_to_evolved()
        assert sorted(baseline.read_tasky()) == before
        baseline.migrate_to_initial()
        assert sorted(baseline.read_tasky()) == before
