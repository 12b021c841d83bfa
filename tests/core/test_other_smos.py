"""Engine-level coverage of SMO families outside the TasKy scenario."""

import pytest

import repro
from repro.core.engine import InVerDa
from tests.conftest import keyed, rows


def engine_with(script: str) -> InVerDa:
    engine = InVerDa()
    engine.execute(script)
    return engine


def sql(engine, version, statement, params=()):
    return repro.connect(engine, version, autocommit=True).execute(statement, params)


def count(engine, version, table, where="TRUE"):
    return sql(engine, version, f"SELECT * FROM {table} WHERE {where}").rowcount


class TestMergeVersions:
    @pytest.fixture
    def engine(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH "
            "CREATE TABLE Urgent(title TEXT, prio INTEGER); "
            "CREATE TABLE Later(title TEXT, prio INTEGER);"
        )
        sql(engine, "v1", "INSERT INTO Urgent(title, prio) VALUES ('now', 1)")
        sql(engine, "v1", "INSERT INTO Later(title, prio) VALUES ('someday', 9)")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "MERGE TABLE Urgent (prio <= 3), Later (prio > 3) INTO All_;"
        )
        return engine

    def test_merge_unions_rows(self, engine):
        titles = sorted(r["title"] for r in rows(engine, "v2", "SELECT title FROM All_"))
        assert titles == ["now", "someday"]

    def test_insert_into_merged_routes_by_condition(self, engine):
        sql(engine, "v2", "INSERT INTO All_(title, prio) VALUES ('fresh', 2)")
        assert count(engine, "v1", "Urgent", "title = 'fresh'") == 1
        assert count(engine, "v1", "Later", "title = 'fresh'") == 0

    def test_insert_matching_neither_condition_survives(self, engine):
        sql(engine, "v2", "INSERT INTO All_(title, prio) VALUES ('nullprio', NULL)")
        # Visible in v2 (stored in the source-side Uprime aux), invisible in v1.
        assert count(engine, "v2", "All_", "title = 'nullprio'") == 1
        assert count(engine, "v1", "Urgent", "title = 'nullprio'") == 0
        assert count(engine, "v1", "Later", "title = 'nullprio'") == 0

    def test_materialize_merged_version(self, engine):
        before = keyed(engine, "v2", "All_")
        engine.execute("MATERIALIZE 'v2';")
        assert keyed(engine, "v2", "All_") == before
        assert count(engine, "v1", "Urgent") == 1


class TestJoinPkVersions:
    @pytest.fixture
    def engine(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH "
            "CREATE TABLE Person(name TEXT); CREATE TABLE Address(city TEXT);"
        )
        key = sql(engine, "v1", "INSERT INTO Person(name) VALUES ('Ann')").lastrowid
        from repro.bidel.smo.base import TableChange

        tv = engine.genealogy.schema_version("v1").table_version("Address")
        engine.apply_change(
            tv, TableChange(upserts={key: tv.schema.row_from_mapping({"city": "Dresden"})})
        )
        # no address partner
        sql(engine, "v1", "INSERT INTO Person(name) VALUES ('Solo')")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH JOIN TABLE Person, Address INTO Resident ON PK;"
        )
        return engine

    def test_inner_join_rows(self, engine):
        found = rows(engine, "v2", "SELECT * FROM Resident")
        assert found == [{"name": "Ann", "city": "Dresden"}]

    def test_unmatched_row_survives_migration(self, engine):
        engine.execute("MATERIALIZE 'v2';")
        names = sorted(r["name"] for r in rows(engine, "v1", "SELECT name FROM Person"))
        assert names == ["Ann", "Solo"]

    def test_write_through_join(self, engine):
        engine.execute("MATERIALIZE 'v2';")
        sql(engine, "v2", "INSERT INTO Resident(name, city) VALUES ('Ben', 'Bonn')")
        assert count(engine, "v1", "Person", "name = 'Ben'") == 1
        assert count(engine, "v1", "Address", "city = 'Bonn'") == 1


class TestDecomposeOuterJoinPk:
    def test_round_trip_through_versions(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Wide(a TEXT, b TEXT);"
        )
        sql(engine, "v1", "INSERT INTO Wide(a, b) VALUES ('x', 'y')")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Wide INTO L(a), R(b) ON PK;"
        )
        engine.execute(
            "CREATE SCHEMA VERSION v3 FROM v2 WITH OUTER JOIN TABLE L, R INTO Wide2 ON PK;"
        )
        assert rows(engine, "v3", "SELECT * FROM Wide2") == [{"a": "x", "b": "y"}]

    def test_partial_row_outer_join_null_fill(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Wide(a TEXT, b TEXT);"
        )
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Wide INTO L(a), R(b) ON PK;"
        )
        sql(engine, "v2", "INSERT INTO L(a) VALUES ('only-left')")
        found = rows(engine, "v1", "SELECT * FROM Wide WHERE a = 'only-left'")
        assert found == [{"a": "only-left", "b": None}]


class TestDropTable:
    def test_dropped_table_invisible_in_new_version(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Keep(a TEXT); CREATE TABLE Gone(b TEXT);"
        )
        sql(engine, "v1", "INSERT INTO Gone(b) VALUES ('precious')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE Gone;")
        assert repro.connect(engine, "v2").table_names() == ["Keep"]
        assert count(engine, "v1", "Gone") == 1

    def test_data_survives_materializing_the_dropping_version(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Keep(a TEXT); CREATE TABLE Gone(b TEXT);"
        )
        sql(engine, "v1", "INSERT INTO Gone(b) VALUES ('precious')")
        sql(engine, "v1", "INSERT INTO Keep(a) VALUES ('also')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE Gone;")
        engine.execute("MATERIALIZE 'v2';")
        # The retired rows moved into the DROP TABLE aux; v1 still sees them.
        assert rows(engine, "v1", "SELECT * FROM Gone") == [{"b": "precious"}]
        sql(engine, "v1", "INSERT INTO Gone(b) VALUES ('more')")
        assert count(engine, "v1", "Gone") == 2


class TestConditionalSmos:
    def test_decompose_on_condition(self):
        engine = engine_with(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Pair(x INTEGER, y INTEGER);"
        )
        sql(engine, "v1", "INSERT INTO Pair(x, y) VALUES (1, 1)")
        sql(engine, "v1", "INSERT INTO Pair(x, y) VALUES (2, 2)")
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE Pair INTO Xs(x), Ys(y) ON x = y;"
        )
        assert sorted(r["x"] for r in rows(engine, "v2", "SELECT x FROM Xs")) == [1, 2]
        assert sorted(r["y"] for r in rows(engine, "v2", "SELECT y FROM Ys")) == [1, 2]
        # Generated ids are exposed and stable across reads.
        first = rows(engine, "v2", "SELECT * FROM Xs ORDER BY id")
        second = rows(engine, "v2", "SELECT * FROM Xs ORDER BY id")
        assert first == second

    def test_rename_table_version(self):
        engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE Old(a TEXT);")
        sql(engine, "v1", "INSERT INTO Old(a) VALUES ('kept')")
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE Old INTO New;")
        assert rows(engine, "v2", "SELECT * FROM New") == [{"a": "kept"}]
        sql(engine, "v2", "INSERT INTO New(a) VALUES ('back')")
        assert count(engine, "v1", "Old") == 2


class TestLongChains:
    def test_five_add_columns(self):
        engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(base INTEGER);")
        sql(engine, "v1", "INSERT INTO T(base) VALUES (10)")
        for index in range(5):
            engine.execute(
                f"CREATE SCHEMA VERSION v{index + 2} FROM v{index + 1} WITH "
                f"ADD COLUMN c{index} AS base + {index} INTO T;"
            )
        row = rows(engine, "v6", "SELECT * FROM T")[0]
        assert row == {"base": 10, "c0": 10, "c1": 11, "c2": 12, "c3": 13, "c4": 14}
        # Write at the far end; read at the origin.
        sql(engine, "v6", "INSERT INTO T(base, c0, c1, c2, c3, c4) VALUES (1, 0, 0, 0, 0, 0)")
        assert count(engine, "v1", "T") == 2
        # Materialize the middle and re-check both ends.
        engine.execute("MATERIALIZE 'v4';")
        assert count(engine, "v1", "T") == 2
        assert count(engine, "v6", "T") == 2


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_refused_script_registers_none_of_its_smos(backend):
    """A multi-SMO script whose second SMO does not apply is refused before
    its first is registered: no SMO, table version, aux table or uid is
    spent, and a later evolve of the same name lists no orphan."""
    from repro.backend.sqlite import LiveSqliteBackend
    from repro.errors import EvolutionError

    engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    live = LiveSqliteBackend.attach(engine) if backend == "sqlite" else None
    genealogy = engine.genealogy
    counters = (genealogy._next_table_uid, genealogy._next_smo_uid)
    fingerprint = engine.catalog_fingerprint()
    try:
        with pytest.raises(EvolutionError, match="NOPE"):
            engine.execute(
                "CREATE SCHEMA VERSION v2 FROM v1 WITH "
                "SPLIT TABLE R INTO P WITH a = 0, Q WITH a = 1; "
                "ADD COLUMN c AS zz + 1 INTO NOPE;"
            )
        assert len(genealogy.smo_instances) == 1
        assert len(genealogy.table_versions) == 1
        assert (genealogy._next_table_uid, genealogy._next_smo_uid) == counters
        assert engine.catalog_fingerprint() == fingerprint
        tables = list(engine.database.tables)
        if live is not None:
            tables += [
                name for (name,) in live.connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ]
        assert not [name for name in tables if name.startswith("aux__1__")]
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME TABLE R INTO R2;")
        assert [smo.smo_type for smo in genealogy.evolution_smos()] == ["RenameTable"]
    finally:
        if live is not None:
            live.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "script",
    [
        "CREATE SCHEMA VERSION w WITH CREATE TABLE X(p INTEGER, b TEXT);",
        "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN P AS a + 1 INTO R;",
        "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN b IN R TO p;",
        "CREATE SCHEMA VERSION v2 FROM v1 WITH DECOMPOSE TABLE R INTO S(a), T(b) ON FK p;",
        "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO P; "
        "DECOMPOSE TABLE R INTO S(P), T(b) ON PK;",
    ],
    ids=["create-table", "add-column", "rename-column", "fk-column", "decompose-list"],
)
def test_a_column_named_p_is_refused(backend, script):
    """``p`` is the hidden row identifier of every generated view, so no
    table may have a column of that name in any letter case: the SMO is
    refused as pre-flight's RPC201 and registers nothing, on either
    engine."""
    from repro.backend.sqlite import LiveSqliteBackend
    from repro.check.preflight import preflight_script
    from repro.errors import SchemaError

    engine = engine_with("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);")
    live = LiveSqliteBackend.attach(engine) if backend == "sqlite" else None
    counters = (engine.genealogy._next_table_uid, engine.genealogy._next_smo_uid)
    fingerprint = engine.catalog_fingerprint()
    try:
        assert "RPC201" in [finding.code for finding in preflight_script(engine, script)]
        with pytest.raises(SchemaError, match="hidden row identifier p"):
            engine.execute(script)
        assert engine.version_names() == ["v1"]
        assert (engine.genealogy._next_table_uid, engine.genealogy._next_smo_uid) == counters
        assert engine.catalog_fingerprint() == fingerprint
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;")
        sql(engine, "v2", "INSERT INTO R(a, b) VALUES (1, 2)")
        assert list(keyed(engine, "v1", "R").values()) == [(1, 2)]
    finally:
        if live is not None:
            live.close()
