import pytest

from repro.errors import CatalogError
from tests.conftest import build_paper_tasky


@pytest.fixture
def genealogy():
    return build_paper_tasky().engine.genealogy


class TestStructure:
    def test_table_versions_linked(self, genealogy):
        task0 = genealogy.schema_version("TasKy").table_version("Task")
        assert task0.incoming is not None and task0.incoming.is_initial
        outgoing_types = sorted(smo.smo_type for smo in task0.outgoing)
        assert outgoing_types == ["Decompose", "Split"]

    def test_shared_table_versions(self, genealogy):
        """Untouched tables are shared between versions (paper, Sec. 3)."""
        engine = build_paper_tasky().engine
        engine.execute(
            "CREATE SCHEMA VERSION Extra FROM TasKy WITH CREATE TABLE Note(text TEXT);"
        )
        tasky_task = engine.genealogy.schema_version("TasKy").table_version("Task")
        extra_task = engine.genealogy.schema_version("Extra").table_version("Task")
        assert tasky_task is extra_task

    def test_every_target_has_one_incoming(self, genealogy):
        for tv in genealogy.table_versions.values():
            assert tv.incoming is not None

    def test_evolution_smos_excludes_create_table(self, genealogy):
        kinds = {smo.smo_type for smo in genealogy.evolution_smos()}
        assert "CreateTable" not in kinds
        assert len(genealogy.evolution_smos()) == 4  # split, dropcol, decompose, rename

    def test_acyclic_check_passes(self, genealogy):
        genealogy.check_acyclic()

    def test_aux_table_names_deterministic(self, genealogy):
        smo = genealogy.evolution_smos()[0]
        assert smo.aux_table_name("X") == smo.aux_table_name("X")

    def test_unknown_version(self, genealogy):
        with pytest.raises(CatalogError):
            genealogy.schema_version("nope")

    def test_describe_schema_version(self, genealogy):
        description = genealogy.schema_version("TasKy2").describe()
        assert description["Task"] == ("task", "prio", "author")
        assert description["Author"] == ("id", "name")


class TestUtilHelpers:
    def test_stopwatch_accumulates(self):
        from repro.obs import Stopwatch

        watch = Stopwatch()
        with watch:
            pass
        with watch:
            pass
        assert len(watch.laps) == 2
        assert watch.elapsed >= 0
        watch.reset()
        assert watch.elapsed == 0 and not watch.laps

    def test_physical_name_sanitizes(self):
        from repro.util.naming import physical_name

        assert physical_name("d", "1", "Do!") == "d__1__Do_"

    def test_quote_identifier(self):
        from repro.util.naming import quote_identifier

        assert quote_identifier("plain") == "plain"
        assert quote_identifier("select") == '"select"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_check_version_name(self):
        from repro.errors import SchemaError
        from repro.util.naming import check_version_name

        assert check_version_name("Do!") == "Do!"
        with pytest.raises(SchemaError):
            check_version_name("!bad")
