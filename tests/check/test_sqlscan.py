"""Unit tests for the delta-code SQL scanner (repro.check.sqlscan)."""

from __future__ import annotations

import re

import pytest

import repro
from repro.backend import codegen
from repro.check.sqlscan import (
    SUBQUERY,
    SqlToken,
    scan_statement,
    tokenize_sql,
    unquoted_occurrence,
)
from tests.backend.test_differential import CHAINS
from tests.backend.test_sargable import CHAIN

_OLD_TOKEN = re.compile(
    r"""
      '(?:[^']|'')*'             # string literal ('' escapes)
    | "(?:[^"]|"")*"             # quoted identifier ("" escapes)
    | [A-Za-z_][A-Za-z0-9_]*     # bare identifier or keyword
    | \d+(?:\.\d+)?              # number
    | <=|>=|!=|<>|\|\|           # two-char operators
    | .                          # any other single character
    """,
    re.VERBOSE,
)


def old_tokenize_sql(sql: str) -> list[SqlToken]:
    """The tokenizer as it was before the one-pass rewrite: match, then
    classify every token by looking at its text again.  The reference the
    named-group tokenizer must agree with, token for token."""
    tokens: list[SqlToken] = []
    for match in _OLD_TOKEN.finditer(sql):
        text = match.group(0)
        if text.isspace():
            continue
        if text.startswith("'"):
            kind = "string"
        elif text.startswith('"'):
            kind = "qident"
        elif re.match(r"[A-Za-z_]", text):
            kind = "ident"
        elif text[0].isdigit():
            kind = "number"
        else:
            kind = "punct"
        tokens.append(SqlToken(text, kind))
    return tokens


def _chain_scripts() -> dict[str, list[str]]:
    scripts = {"benchmark": list(CHAIN)}
    for name, (create, _load, evolutions) in CHAINS.items():
        scripts[name] = [f"CREATE SCHEMA VERSION v1 WITH {create};"]
        for step, evolution in enumerate(evolutions, start=2):
            source = f"v{step - 1}"
            if isinstance(evolution, tuple):
                evolution, source = evolution
            scripts[name].append(
                f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};"
            )
    return scripts


class TestTokenizer:
    def test_kinds(self):
        tokens = tokenize_sql("SELECT a, \"or der\" FROM t WHERE x = 'it''s' + 1.5")
        kinds = [t.kind for t in tokens]
        assert "string" in kinds and "qident" in kinds and "number" in kinds

    def test_quoted_identifier_unquotes(self):
        (token,) = tokenize_sql('"a""b"')
        assert token.kind == "qident"
        assert token.name == 'a"b'
        assert token.upper == ""  # quoted identifiers are never keywords


    @pytest.mark.parametrize("chain", sorted(_chain_scripts()))
    def test_token_stream_equals_the_two_pass_classifier(self, chain):
        engine = repro.InVerDa()
        for script in _chain_scripts()[chain]:
            engine.execute(script)
        statements = (
            codegen.view_statements(engine)
            + codegen.trigger_statements(engine)
            + codegen.view_statements(engine, flatten=False)
        )
        assert statements
        for statement in statements:
            assert tokenize_sql(statement) == old_tokenize_sql(statement), statement

    def test_oddities_classify_as_before(self):
        for text in ("a<=b<>c||d!=e", "x = 'it''s' -- 1.5e3", "  \n\t ", '"q""i" . 7.25.1'):
            assert tokenize_sql(text) == old_tokenize_sql(text), text


class TestViewScan:
    def test_simple_view(self):
        scan = scan_statement(
            'CREATE VIEW "v0__R" AS\nSELECT p, a FROM "d__0__R"'
        )
        assert scan.kind == "view"
        assert scan.name == "v0__R"
        assert scan.table_refs == ["d__0__R"]

    def test_aliases_and_column_refs(self):
        scan = scan_statement(
            "CREATE VIEW v AS SELECT f0.p AS p, f1.b AS b "
            "FROM t0 f0, t1 f1 WHERE f1.p = f0.p"
        )
        assert scan.aliases == {"f0": {"t0"}, "f1": {"t1"}}
        assert ("f1", "b") in scan.column_refs

    def test_union_branches_reuse_aliases(self):
        scan = scan_statement(
            "CREATE VIEW v AS SELECT t0.a FROM x t0 "
            "UNION SELECT t0.a FROM y t0"
        )
        assert scan.aliases["t0"] == {"x", "y"}

    def test_union_all_is_the_top_level_compound_keyword(self):
        plain = "CREATE VIEW v AS SELECT t0.a FROM x t0 UNION SELECT t0.a FROM y t0"
        assert not scan_statement(plain).union_all
        scan = scan_statement(plain.replace("UNION", "UNION ALL"))
        assert scan.union_all
        assert scan.aliases["t0"] == {"x", "y"}  # ALL is structure, not a name
        nested = (
            "CREATE VIEW v AS SELECT d.a FROM "
            "(SELECT a FROM x UNION ALL SELECT a FROM y) d UNION SELECT z.a FROM z"
        )
        assert not scan_statement(nested).union_all

    def test_subquery_alias_is_opaque(self):
        scan = scan_statement(
            "CREATE VIEW v AS SELECT d.a FROM (SELECT NULL AS a WHERE 0) d"
        )
        assert SUBQUERY in scan.aliases["d"]

    def test_subquery_tables_still_collected(self):
        scan = scan_statement(
            "CREATE VIEW v AS SELECT 1 FROM t WHERE EXISTS "
            "(SELECT 1 FROM inner_t n WHERE n.p = t.p)"
        )
        assert "inner_t" in scan.table_refs


class TestTriggerScan:
    def test_header_and_body(self):
        scan = scan_statement(
            'CREATE TRIGGER "tg__0__insert" INSTEAD OF INSERT ON "v0__R"\n'
            "BEGIN\n"
            '  INSERT OR REPLACE INTO "d__0__R" (p, a) VALUES (NEW.p, NEW.a);\n'
            "END"
        )
        assert scan.kind == "trigger"
        assert scan.name == "tg__0__insert"
        assert scan.on_view == "v0__R"
        assert scan.operation == "INSERT"
        assert "d__0__R" in scan.table_refs
        assert ("NEW", "a") in scan.column_refs


class TestDdlScan:
    def test_create_table_columns(self):
        scan = scan_statement(
            'CREATE TABLE IF NOT EXISTS "aux__1__B" '
            "(p INTEGER PRIMARY KEY, a INTEGER)"
        )
        assert scan.kind == "table"
        assert scan.name == "aux__1__B"
        assert scan.columns_defined == ("p", "a")

    def test_create_index(self):
        scan = scan_statement(
            'CREATE INDEX IF NOT EXISTS "ix__1__B__a" ON "aux__1__B" (a)'
        )
        assert scan.kind == "index"
        assert scan.table_refs == ["aux__1__B"]
        assert ("aux__1__B", "a") in scan.column_refs


class TestUnquotedOccurrence:
    def test_bare_hit(self):
        assert unquoted_occurrence("SELECT alter FROM t", "alter")

    def test_quoted_miss(self):
        assert not unquoted_occurrence('SELECT "alter" FROM t', "alter")

    def test_string_literal_miss(self):
        assert not unquoted_occurrence("SELECT 'alter' FROM t", "alter")

    def test_substring_never_matches(self):
        assert not unquoted_occurrence("SELECT alteration FROM t", "alter")

    def test_case_insensitive(self):
        assert unquoted_occurrence("SELECT ALTER FROM t", "alter")
