import pytest

from repro.errors import AccessError, SchemaError
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType, coerce_value, infer_type


@pytest.fixture
def table():
    t = Table(TableSchema.of("T", ["a", "b"]))
    t.insert(1, ("x", 1))
    t.insert(2, ("y", 2))
    return t


class TestTable:
    def test_insert_and_get(self, table):
        assert table.get(1) == ("x", 1)

    def test_duplicate_insert_rejected(self, table):
        with pytest.raises(AccessError):
            table.insert(1, ("z", 3))

    def test_upsert_overwrites(self, table):
        table.upsert(1, ("z", 3))
        assert table.get(1) == ("z", 3)

    def test_update_returns_old(self, table):
        assert table.update(1, ("z", 9)) == ("x", 1)

    def test_update_missing_raises(self, table):
        with pytest.raises(AccessError):
            table.update(99, ("z", 9))

    def test_delete(self, table):
        assert table.delete(2) == ("y", 2)
        assert 2 not in table

    def test_discard_missing_is_noop(self, table):
        assert table.discard(99) is None

    def test_copy_is_independent(self, table):
        clone = table.copy()
        clone.delete(1)
        assert 1 in table

    def test_data_equal_ignores_schema_name(self, table):
        other = table.copy(schema=table.schema.with_name("Other"))
        assert table.data_equal(other)

    def test_rows_as_mappings(self, table):
        assert {"a": "x", "b": 1} in table.rows_as_mappings()

    def test_type_enforcement_via_schema(self):
        t = Table(TableSchema.of("T", [("n", DataType.INTEGER)]))
        with pytest.raises(SchemaError):
            t.insert(1, ("not a number",))


class TestDatabase:
    def test_create_and_drop(self):
        db = Database()
        db.create_table(TableSchema.of("T", ["a"]))
        assert db.has_table("T")
        db.drop_table("T")
        assert not db.has_table("T")

    def test_create_duplicate_rejected(self):
        db = Database()
        db.create_table(TableSchema.of("T", ["a"]))
        with pytest.raises(SchemaError):
            db.create_table(TableSchema.of("T", ["a"]))

    def test_sequences_monotonic(self):
        db = Database()
        values = [db.next_value() for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_named_sequences_independent(self):
        db = Database()
        db.next_value("x")
        assert db.next_value("y") == 1

    def test_clone_deep_copies_tables(self):
        db = Database()
        db.create_table(TableSchema.of("T", ["a"])).insert(1, ("x",))
        clone = db.clone()
        clone.table("T").delete(1)
        assert 1 in db.table("T")


class TestTypes:
    @pytest.mark.parametrize(
        "value,dtype,expected",
        [
            (1, DataType.INTEGER, 1),
            (True, DataType.INTEGER, 1),
            (2.0, DataType.INTEGER, 2),
            (3, DataType.REAL, 3.0),
            ("x", DataType.TEXT, "x"),
            (1, DataType.BOOLEAN, True),
            (None, DataType.INTEGER, None),
            ("anything", DataType.ANY, "anything"),
        ],
    )
    def test_coercion(self, value, dtype, expected):
        assert coerce_value(value, dtype) == expected

    @pytest.mark.parametrize(
        "value,dtype",
        [(2.5, DataType.INTEGER), ("x", DataType.REAL), (1.5, DataType.BOOLEAN), (3, DataType.TEXT)],
    )
    def test_rejections(self, value, dtype):
        with pytest.raises(SchemaError):
            coerce_value(value, dtype)

    def test_infer(self):
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(3) is DataType.INTEGER
        assert infer_type(3.5) is DataType.REAL
        assert infer_type("s") is DataType.TEXT
        assert infer_type(None) is DataType.ANY

    def test_parse_aliases(self):
        assert DataType.parse("varchar") is DataType.TEXT
        assert DataType.parse("int") is DataType.INTEGER
        with pytest.raises(SchemaError):
            DataType.parse("blob9")
