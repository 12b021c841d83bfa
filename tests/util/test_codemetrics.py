from codemetrics import (
    count_characters,
    count_lines,
    count_statements,
    measure_code,
)


class TestLines:
    def test_counts_nonempty(self):
        assert count_lines("a\n\nb\n") == 2

    def test_skips_comments(self):
        assert count_lines("-- header\nSELECT 1;\n") == 1


class TestStatements:
    def test_semicolon_separated(self):
        assert count_statements("SELECT 1; SELECT 2;") == 2

    def test_trailing_unterminated(self):
        assert count_statements("SELECT 1; SELECT 2") == 2

    def test_semicolon_in_string(self):
        assert count_statements("SELECT 'a;b';") == 1

    def test_escaped_quote_in_string(self):
        assert count_statements("SELECT 'it''s; fine';") == 1

    def test_comment_semicolon_ignored(self):
        assert count_statements("SELECT 1 -- trailing;\n;") == 1

    def test_empty(self):
        assert count_statements("") == 0

    def test_whitespace_only_between_semicolons(self):
        assert count_statements("a; ; b;") == 2


class TestCharacters:
    def test_collapses_whitespace_runs(self):
        # "a  b" -> "a b"
        assert count_characters("a    b") == 3

    def test_strips_comment_lines(self):
        assert count_characters("-- x\nab") == 2


class TestRatios:
    def test_table3_style_ratio(self):
        bidel = measure_code("CREATE SCHEMA VERSION x FROM y WITH\nSPLIT TABLE a INTO b WITH c=1;")
        sql = measure_code("x;\n" * 100)
        ratio = sql.ratio_to(bidel)
        assert ratio.lines == 50.0
        assert ratio.statements == 100.0
