"""BiDEL pre-flight analysis: every RPC2xx diagnostic has a triggering
script, and sound chains pass clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bidel.parser import parse_script
from repro.check.diagnostics import error_count
from repro.check.preflight import preflight_script, simulate
from repro.core.engine import InVerDa
from repro.errors import ReproError
from repro.workloads.tasky import DO_SCRIPT, TASKY2_SCRIPT, TASKY_INITIAL_SCRIPT
from tests.backend.test_differential import CHAINS
from tests.backend.test_sargable import CHAIN as SARGABLE_CHAIN

#: The paper's TasKy genealogy plus a follow-up that renames the
#: identifier column the FK decomposition generated.
TASKY_SCRIPTS = (
    TASKY_INITIAL_SCRIPT,
    DO_SCRIPT,
    TASKY2_SCRIPT,
    "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH RENAME COLUMN id IN Author TO aid;",
)


@pytest.fixture
def engine():
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
    )
    return engine


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestParseFailure:
    def test_rpc200(self, engine):
        findings = preflight_script(engine, "CREATE SCHEMA VERSION !!!")
        assert codes(findings) == ["RPC200"]
        assert findings[0].severity == "error"


class TestCollisions:
    def test_version_collision_rpc201(self, engine):
        findings = preflight_script(
            engine, "CREATE SCHEMA VERSION v1 WITH CREATE TABLE X(a INTEGER);"
        )
        assert "RPC201" in codes(findings)

    def test_dropped_version_name_stays_taken_rpc201(self, engine):
        """The engine never reuses a version name, not even a dropped one."""
        engine.execute("CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE R;")
        engine.execute("DROP SCHEMA VERSION v2;")
        findings = preflight_script(
            engine, "CREATE SCHEMA VERSION v2 WITH CREATE TABLE X(a INTEGER);"
        )
        assert codes(findings) == ["RPC201"]

    def test_table_collision_rpc201(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH CREATE TABLE R(x INTEGER);",
        )
        assert "RPC201" in codes(findings)

    def test_column_collision_rpc201(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN a AS b INTO R;",
        )
        assert "RPC201" in codes(findings)


class TestDanglingReferences:
    def test_unknown_source_version_rpc202(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM nope WITH CREATE TABLE X(a INTEGER);",
        )
        assert "RPC202" in codes(findings)

    def test_dropped_version_rpc202(self, engine):
        findings = preflight_script(
            engine,
            "DROP SCHEMA VERSION v1;\n"
            "CREATE SCHEMA VERSION v2 FROM v1 WITH CREATE TABLE X(a INTEGER);",
        )
        assert "RPC202" in codes(findings)

    def test_dropped_table_rpc202(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DROP TABLE R; RENAME COLUMN a IN R TO z;",
        )
        assert "RPC202" in codes(findings)

    def test_unknown_column_rpc203(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS zz + 1 INTO R;",
        )
        assert "RPC203" in codes(findings)

    def test_materialize_unknown_version_rpc202(self, engine):
        findings = preflight_script(engine, "MATERIALIZE nope;")
        assert codes(findings) == ["RPC202"]


class TestInformationLoss:
    def test_drop_table_rpc204(self, engine):
        findings = preflight_script(
            engine, "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP TABLE R;"
        )
        assert "RPC204" in codes(findings)
        assert all(d.severity == "warning" for d in findings)

    def test_drop_column_rpc204(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH DROP COLUMN b FROM R DEFAULT 0;",
        )
        assert "RPC204" in codes(findings)

    def test_inner_join_rpc204(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DECOMPOSE TABLE R INTO S(a), T(b) ON PK;\n"
            "CREATE SCHEMA VERSION v3 FROM v2 WITH "
            "JOIN TABLE S, T INTO U ON PK;",
        )
        assert "RPC204" in codes(findings)

    def test_single_target_split_rpc204(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE R INTO Hot WITH a = 1;",
        )
        assert "RPC204" in codes(findings)


class TestPartitionAnalysis:
    def test_overlap_rpc205(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "SPLIT TABLE R INTO S1 WITH a >= 1, S2 WITH a <= 1;",
        )
        assert "RPC205" in codes(findings)

    def test_gap_rpc206(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "SPLIT TABLE R INTO S1 WITH a > 1, S2 WITH a < 1;",
        )
        assert "RPC206" in codes(findings)

    def test_clean_partition(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "SPLIT TABLE R INTO S1 WITH a >= 1, S2 WITH a < 1;",
        )
        assert "RPC205" not in codes(findings)
        assert "RPC206" not in codes(findings)

    def test_sql_modulo_gap_is_caught(self, engine):
        """``a % 2 = 0 / = 1`` looks total but gaps at negative values
        under SQL remainder semantics (sign of the dividend) — exactly
        the class of subtle partition bug the sample grid probes for."""
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "SPLIT TABLE R INTO S1 WITH a % 2 = 0, S2 WITH a % 2 = 1;",
        )
        assert "RPC206" in codes(findings)

    def test_merge_gap_is_not_loss(self, engine):
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "DROP TABLE R; "
            "CREATE TABLE A(x INTEGER); CREATE TABLE B(x INTEGER);\n"
            "CREATE SCHEMA VERSION v3 FROM v2 WITH "
            "MERGE TABLE A (x > 1), B (x < 1) INTO C;",
        )
        gap = [d for d in findings if d.code == "RPC206"]
        assert gap and "lost" not in gap[0].message


@pytest.fixture
def tasky():
    engine = InVerDa()
    engine.execute("".join(TASKY_SCRIPTS[:3]))
    return engine


class TestMaterialize:
    @pytest.mark.parametrize("script, expected", [
        # Both versions compete for TasKy's Task (condition 56).
        ("MATERIALIZE 'Do!', 'TasKy2';", ["RPC207"]),
        ("MATERIALIZE 'Do!';", []),
        ("MATERIALIZE 'TasKy2';", []),
        ("MATERIALIZE 'TasKy2.Author';", []),
        ("MATERIALIZE nope;", ["RPC202"]),
        ("MATERIALIZE 'TasKy2.Nope';", ["RPC202"]),
        ("DROP SCHEMA VERSION Do!; MATERIALIZE 'Do!';", ["RPC202"]),
        # A version the script creates is checked by name only.
        ("CREATE SCHEMA VERSION T3 FROM TasKy2 WITH DROP TABLE Author;\n"
         "MATERIALIZE 'T3', 'Do!';", ["RPC204"]),
    ])
    def test_targets(self, tasky, script, expected):
        assert codes(preflight_script(tasky, script)) == expected


class TestCleanChains:
    def test_tasky_like_chain_is_quiet(self):
        findings = preflight_script(None, "".join(TASKY_SCRIPTS))
        assert error_count(findings) == 0, findings

    def test_committed_tasky_script_is_the_workload(self):
        """CI runs ``python -m repro.check --preflight`` over this file."""
        path = Path(__file__).parents[2] / "examples" / "tasky.bidel"
        assert parse_script(path.read_text()) == parse_script("".join(TASKY_SCRIPTS))

    def test_no_engine_means_empty_catalog(self):
        findings = preflight_script(
            None, "CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER);"
        )
        assert findings == []

    def test_best_effort_continues_after_error(self, engine):
        """A broken statement must not drown later, independent problems."""
        findings = preflight_script(
            engine,
            "CREATE SCHEMA VERSION v2 FROM nope WITH CREATE TABLE X(a INTEGER);\n"
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE Y(a INTEGER);",
        )
        assert {"RPC202", "RPC201"} <= set(codes(findings))


# ---------------------------------------------------------------------------
# Pre-flight ≡ engine: the same tables and columns, the same refusals
# ---------------------------------------------------------------------------

_R = "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER, c INTEGER);"
_ST = ("CREATE SCHEMA VERSION w1 WITH "
       "CREATE TABLE S(a INTEGER, d INTEGER); CREATE TABLE T(e INTEGER, f INTEGER);")


def _evolve(source: str, target: str, smos: str) -> str:
    return f"CREATE SCHEMA VERSION {target} FROM {source} WITH {smos};"


#: One script per SMO form, the last statement holding the form's SMO (also
#: the forms tests/bidel/test_rules_oracle.py holds against the oracle).
SINGLE_SMO_FORMS = {
    "decompose_pk": [_R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON PK")],
    "decompose_fk": [_R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON FK fk")],
    "decompose_cond": [_R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON a = c")],
    "join_pk": [
        _R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON PK"),
        _evolve("v2", "v3", "JOIN TABLE R1, R2 INTO R ON PK"),
    ],
    "outer_join_pk": [
        _R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON PK"),
        _evolve("v2", "v3", "OUTER JOIN TABLE R1, R2 INTO R ON PK"),
    ],
    "outer_join_fk": [
        "CREATE SCHEMA VERSION w1 WITH "
        "CREATE TABLE A(x INTEGER, fk INTEGER); CREATE TABLE B(id INTEGER, y INTEGER);",
        _evolve("w1", "w2", "OUTER JOIN TABLE A, B INTO AB ON FK fk"),
    ],
    "join_cond_after_decompose": [
        _R, _evolve("v1", "v2", "DECOMPOSE TABLE R INTO R1(a, b), R2(c) ON a = c"),
        _evolve("v2", "v3", "JOIN TABLE R1, R2 INTO R ON a = c"),
    ],
    "join_cond_without_id": [_ST, _evolve("w1", "w2", "JOIN TABLE S, T INTO ST ON a = e")],
    "split": [_R, _evolve("v1", "v2", "SPLIT TABLE R INTO P WITH a > 0, N WITH a <= 0")],
    "merge_incompatible": [_ST, _evolve("w1", "w2", "MERGE TABLE S (a > 0), T (e > 0) INTO U")],
    "add_column": [_R, _evolve("v1", "v2", "ADD COLUMN d AS a + b INTO R")],
    "drop_column": [_R, _evolve("v1", "v2", "DROP COLUMN c FROM R DEFAULT 0")],
    "rename_column": [_R, _evolve("v1", "v2", "RENAME COLUMN a IN R TO z")],
    "rename_table": [_R, _evolve("v1", "v2", "RENAME TABLE R INTO Q")],
    "drop_table": [_R, _evolve("v1", "v2", "DROP TABLE R")],
}


def _oracle_cases():
    yield from (pytest.param(scripts, id=name) for name, scripts in SINGLE_SMO_FORMS.items())
    for name, (create, _load, evolutions) in sorted(CHAINS.items()):
        scripts = [f"CREATE SCHEMA VERSION v1 WITH {create};"]
        for step, evolution in enumerate(evolutions, start=2):
            evolution, source = (
                evolution if isinstance(evolution, tuple) else (evolution, f"v{step - 1}")
            )
            scripts.append(_evolve(source, f"v{step}", evolution))
        yield pytest.param(scripts, id=f"chain-{name}")
    yield pytest.param(list(SARGABLE_CHAIN), id="sargable-S0-S8")
    yield pytest.param(list(TASKY_SCRIPTS), id="tasky")


def _tables(tables) -> dict[str, tuple[str, ...]]:
    return {name: tuple(schema.column_names) for name, schema in tables.items()}


@pytest.mark.parametrize("scripts", _oracle_cases())
def test_preflight_agrees_with_the_engine(scripts):
    """After every ``CREATE SCHEMA VERSION``, pre-flight's tables and
    columns are the engine's, and it reports an error exactly when the
    engine refuses the statement."""
    engine = InVerDa()
    for script in scripts:
        for statement in parse_script(script):
            findings: list = []
            versions = simulate(engine, [statement], findings)
            try:
                engine.execute_statement(statement)
            except ReproError as exc:
                assert error_count(findings) > 0, (script, exc)
                continue
            assert error_count(findings) == 0, (script, findings)
            engine_tables = {
                name: tv.schema
                for name, tv in engine.genealogy.schema_version(statement.name).tables.items()
            }
            assert _tables(versions[statement.name]) == _tables(engine_tables), script
