"""Integration tests: the full TasKy lifecycle of Section 2 / Figure 1."""

import pytest

from repro.errors import (
    CatalogError,
    EvolutionError,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from tests.conftest import PAPER_ROWS, keyed, rows


def tasks_in(scenario, version, table="Task"):
    return sorted(r["task"] for r in rows(scenario.engine, version, f"SELECT task FROM {table}"))


def columns(scenario, version, table):
    description = scenario.connect(version).execute(f"SELECT * FROM {table}").description
    return tuple(column[0] for column in description)


class TestEvolution:
    def test_versions_exist(self, paper_tasky):
        # Creation order (TasKy first, then Do! and TasKy2 derived from
        # it) — version_names() is genealogy-ordered, not name-sorted.
        assert paper_tasky.engine.version_names() == ["TasKy", "Do!", "TasKy2"]

    def test_do_schema(self, paper_tasky):
        assert columns(paper_tasky, "Do!", "Todo") == ("author", "task")

    def test_tasky2_schema(self, paper_tasky):
        assert columns(paper_tasky, "TasKy2", "Task") == ("task", "prio", "author")
        assert columns(paper_tasky, "TasKy2", "Author") == ("id", "name")

    def test_figure1_do_contents(self, paper_tasky):
        found = rows(paper_tasky.engine, "Do!", "SELECT * FROM Todo ORDER BY task")
        assert [(r["author"], r["task"]) for r in found] == [
            ("Ben", "Clean room"),
            ("Ann", "Write paper"),
        ]

    def test_figure1_tasky2_contents(self, paper_tasky):
        engine = paper_tasky.engine
        authors = rows(engine, "TasKy2", "SELECT * FROM Author ORDER BY name")
        assert [a["name"] for a in authors] == ["Ann", "Ben"]
        tasks = rows(engine, "TasKy2", "SELECT * FROM Task ORDER BY task")
        by_name = {a["id"]: a["name"] for a in authors}
        assert [(t["task"], by_name[t["author"]]) for t in tasks] == [
            ("Clean room", "Ben"),
            ("Learn for exam", "Ben"),
            ("Organize party", "Ann"),
            ("Write paper", "Ann"),
        ]

    def test_unknown_source_version(self, paper_tasky):
        with pytest.raises(CatalogError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION X FROM Nope WITH DROP TABLE Task;"
            )

    def test_unknown_source_table(self, paper_tasky):
        with pytest.raises(EvolutionError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION X FROM TasKy WITH DROP TABLE Nope;"
            )

    def test_duplicate_version_name(self, paper_tasky):
        with pytest.raises(CatalogError):
            paper_tasky.engine.execute(
                "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE T(a);"
            )


class TestCoExistingWrites:
    """Writes in any version are visible in all other versions."""

    def test_insert_via_tasky_everywhere(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy").execute(
            "INSERT INTO Task(author, task, prio) VALUES ('Cara', 'New urgent', 1)"
        )
        assert "New urgent" in tasks_in(scenario, "TasKy")
        assert "New urgent" in tasks_in(scenario, "Do!", "Todo")
        assert "New urgent" in tasks_in(scenario, "TasKy2")

    def test_insert_via_do_defaults_prio(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("Do!").execute(
            "INSERT INTO Todo(author, task) VALUES ('Ann', 'Via phone')"
        )
        row = rows(scenario.engine, "TasKy", "SELECT * FROM Task WHERE task = 'Via phone'")[0]
        assert row["prio"] == 1  # DROP COLUMN ... DEFAULT 1

    def test_insert_via_do_reuses_author(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("Do!").execute(
            "INSERT INTO Todo(author, task) VALUES ('Ann', 'Via phone')"
        )
        assert scenario.connect("TasKy2").execute("SELECT * FROM Author").rowcount == 2

    def test_insert_via_tasky2(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        tasky2 = scenario.connect("TasKy2")
        ann = rows(scenario.engine, "TasKy2", "SELECT * FROM Author WHERE name = 'Ann'")[0]
        tasky2.execute(
            "INSERT INTO Task(task, prio, author) VALUES ('From v2', 1, ?)", (ann["id"],)
        )
        row = rows(scenario.engine, "TasKy", "SELECT * FROM Task WHERE task = 'From v2'")[0]
        assert row["author"] == "Ann"
        assert "From v2" in tasks_in(scenario, "Do!", "Todo")

    def test_update_via_tasky2_prio_moves_into_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        changed = scenario.connect("TasKy2").execute(
            "UPDATE Task SET prio = 1 WHERE task = 'Learn for exam'"
        ).rowcount
        assert changed == 1
        assert "Learn for exam" in tasks_in(scenario, "Do!", "Todo")

    def test_update_via_tasky_prio_leaves_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy").execute("UPDATE Task SET prio = 3 WHERE task = 'Clean room'")
        assert "Clean room" not in tasks_in(scenario, "Do!", "Todo")

    def test_delete_via_do(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        deleted = scenario.connect("Do!").execute("DELETE FROM Todo WHERE task = 'Write paper'")
        assert deleted.rowcount == 1
        assert "Write paper" not in tasks_in(scenario, "TasKy")
        assert "Write paper" not in tasks_in(scenario, "TasKy2")

    def test_delete_all_tasks_of_author_removes_author(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy").execute("DELETE FROM Task WHERE author = 'Ben'")
        names = [a["name"] for a in rows(scenario.engine, "TasKy2", "SELECT name FROM Author")]
        assert names == ["Ann"]

    def test_rename_column_view(self, materialized_paper_tasky):
        scenario = materialized_paper_tasky
        scenario.connect("TasKy2").execute("UPDATE Author SET name = 'Annette' WHERE name = 'Ann'")
        authors = rows(scenario.engine, "TasKy", "SELECT author FROM Task")
        assert "Annette" in {r["author"] for r in authors}


class TestMigration:
    def test_all_versions_stable_across_all_materializations(self, paper_tasky):
        scenario = paper_tasky
        tables = [("TasKy", "Task"), ("Do!", "Todo"), ("TasKy2", "Task"), ("TasKy2", "Author")]
        before = {table: keyed(scenario.engine, *table) for table in tables}
        for target in ["TasKy2", "Do!", "TasKy", "TasKy2", "TasKy"]:
            scenario.materialize(target)
            for table in tables:
                assert keyed(scenario.engine, *table) == before[table], target

    def test_physical_tables_change(self, paper_tasky):
        scenario = paper_tasky
        initial = set(scenario.engine.physical_tables())
        scenario.materialize("TasKy2")
        evolved = set(scenario.engine.physical_tables())
        assert initial != evolved

    def test_materialize_single_table_versions(self, paper_tasky):
        scenario = paper_tasky
        scenario.engine.execute("MATERIALIZE 'TasKy2.Task', 'TasKy2.Author';")
        kinds = {
            smo.smo_type for smo in scenario.engine.current_materialization()
        }
        assert kinds == {"Decompose", "RenameColumn"}

    def test_invalid_materialization_rejected(self, paper_tasky):
        from repro.errors import MaterializationError

        with pytest.raises(MaterializationError):
            paper_tasky.engine.execute("MATERIALIZE 'Do!', 'TasKy2';")


class TestDropSchemaVersion:
    def test_dropped_version_unreachable(self, paper_tasky):
        paper_tasky.engine.execute("DROP SCHEMA VERSION Do!;")
        with pytest.raises(InterfaceError):
            paper_tasky.connect("Do!")

    def test_data_survives_for_other_versions(self, paper_tasky):
        paper_tasky.engine.execute("DROP SCHEMA VERSION Do!;")
        assert paper_tasky.connect("TasKy").execute("SELECT * FROM Task").rowcount == len(PAPER_ROWS)
        assert paper_tasky.connect("TasKy2").execute("SELECT * FROM Task").rowcount == len(PAPER_ROWS)


class TestAccessApi:
    def test_select_projection_and_order(self, paper_tasky):
        found = rows(paper_tasky.engine, "TasKy", "SELECT task FROM Task ORDER BY task")
        assert found[0] == {"task": "Clean room"}

    def test_select_with_string_predicate(self, paper_tasky):
        assert paper_tasky.connect("TasKy").execute("SELECT * FROM Task WHERE prio = 1").rowcount == 2

    def test_unknown_table(self, paper_tasky):
        with pytest.raises(ProgrammingError):
            paper_tasky.connect("TasKy").execute("SELECT * FROM Nope")

    def test_id_column_not_updatable(self, paper_tasky):
        with pytest.raises(OperationalError):
            paper_tasky.connect("TasKy2").execute("UPDATE Author SET id = 99")

    def test_update_by_key_missing(self, paper_tasky):
        before = keyed(paper_tasky.engine, "TasKy", "Task")
        missing = paper_tasky.connect("TasKy").execute(
            "UPDATE Task SET prio = 1 WHERE rowid = 424242"
        )
        assert missing.rowcount == 0
        assert keyed(paper_tasky.engine, "TasKy", "Task") == before

    def test_insert_returns_key(self, paper_tasky):
        key = paper_tasky.connect("TasKy").execute(
            "INSERT INTO Task(author, task, prio) VALUES ('X', 't', 5)"
        ).lastrowid
        assert key in keyed(paper_tasky.engine, "TasKy", "Task")

    def test_transaction_rollback(self, paper_tasky):
        scenario = paper_tasky
        before = keyed(scenario.engine, "TasKy", "Task")
        tasky = scenario.connect("TasKy")
        with pytest.raises(RuntimeError):
            with tasky:
                tasky.execute("INSERT INTO Task(author, task, prio) VALUES ('X', 'tmp', 1)")
                raise RuntimeError("abort")
        assert keyed(scenario.engine, "TasKy", "Task") == before

    def test_transaction_commit(self, paper_tasky):
        scenario = paper_tasky
        tasky = scenario.connect("TasKy")
        with tasky:
            tasky.execute("INSERT INTO Task(author, task, prio) VALUES ('X', 'kept', 1)")
        assert tasky.execute("SELECT * FROM Task WHERE task = 'kept'").rowcount == 1
