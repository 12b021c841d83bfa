"""Regression: condition rendering for trigger bodies must rewrite column
references token-wise, never by raw substring replacement.

A ``str.replace`` pass over rendered SQL corrupts conditions two ways: a
column name inside a longer identifier (``id`` in ``uid`` → ``uNEW.id``),
and a column name inside a string literal.  The backend's renderer
(:func:`repro.backend.emit.render_expression`) renames on the expression
AST, which rules both out; these cases pin that.  The verifier's RPC102
pass is the safety net that would catch corrupted output
(tests/check/test_delta_verifier.py::test_unknown_qualifier_rpc102).
"""

from __future__ import annotations

from repro.backend.emit import new_refs, render_expression
from repro.backend.handlers import cond_not_true
from repro.expr.parser import parse_expression


def render(expression: str, columns: list[str], row_var: str = "NEW") -> str:
    return render_expression(
        parse_expression(expression), new_refs(columns, row=row_var)
    )


class TestTokenWiseRewrite:
    def test_substring_column_not_corrupted(self):
        # The original defect: replacing `id` first turned `uid` into
        # `uNEW.id`.
        assert render("uid > id", ["id", "uid"]) == "(NEW.uid > NEW.id)"

    def test_order_of_columns_is_irrelevant(self):
        assert render("uid > id", ["uid", "id"]) == "(NEW.uid > NEW.id)"

    def test_prefix_column_pair(self):
        assert render("a + ab", ["a", "ab"], "OLD") == "(OLD.a + OLD.ab)"

    def test_string_literal_untouched(self):
        assert render("name = 'id'", ["name", "id"]) == "(NEW.name = 'id')"

    def test_negated_condition(self):
        # Three-valued: the negated guard also holds for NULL outcomes.
        assert (
            cond_not_true(parse_expression("v >= 10"), new_refs(["v"]))
            == "((NEW.v >= 10)) IS NOT TRUE"
        )

    def test_no_columns(self):
        assert render("1 = 1", []) == "(1 = 1)"

    def test_column_used_twice(self):
        assert render("a = a", ["a"]) == "(NEW.a = NEW.a)"


class TestViewRendering:
    """The same hazard in the rule → view renderer, end to end: a string
    literal that spells a column name must reach SQLite untouched."""

    def test_literals_naming_columns_survive_in_views(self):
        from tests.testing import DualSystem

        ds = DualSystem()
        ds.execute_ddl(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(name TEXT, id INTEGER);"
        )
        ds.attach()
        ds.execute_ddl(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH "
            "SPLIT TABLE R INTO X WITH name = 'id';"
        )
        ds.execute_ddl(
            "CREATE SCHEMA VERSION v3 FROM v2 WITH "
            "ADD COLUMN tag AS name || ':name' INTO X;"
        )
        try:
            ds.runmany(
                "v1", "INSERT INTO R(name, id) VALUES (?, ?)", [("id", 1), ("x", 2)]
            )
            ds.check("literal-naming-a-column")
            _mem, sq = ds.run("v3", "SELECT name, id, tag FROM X")
            assert sq.fetchall() == [("id", 1, "id:name")]
        finally:
            ds.close()
