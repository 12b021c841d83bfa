"""Recursive-descent parser for BiDEL scripts (grammar of Figure 2).

The parser shares the tokenizer with the expression language; embedded
conditions and value functions are parsed by handing the token stream to
:class:`~repro.expr.parser.ExpressionParser` at the right positions.

Accepted statements::

    CREATE SCHEMA VERSION v2 [FROM v1] WITH smo; smo; ... ;
    DROP SCHEMA VERSION v1;
    MATERIALIZE 'v2' | 'v2.table' [, ...];

plus the ten SMO forms of Figure 2. ``ON FK`` may also be written
``ON FOREIGN KEY`` as in the paper's TasKy example.
"""

from __future__ import annotations

from repro.bidel.ast import (
    AddColumn,
    ColumnDef,
    CreateSchemaVersion,
    CreateTable,
    Decompose,
    DropColumn,
    DropSchemaVersion,
    DropTable,
    Join,
    JoinKind,
    Materialize,
    Merge,
    RenameColumn,
    RenameTable,
    SmoNode,
    Split,
    Statement,
)
from repro.errors import ParseError
from repro.expr import lexer
from repro.expr.ast import Expression
from repro.expr.lexer import TokenCursor, tokenize
from repro.expr.parser import ExpressionParser
from repro.relational.types import DataType

_STATEMENT_STARTERS = ("CREATE", "DROP", "MATERIALIZE")
_SMO_STARTERS = (
    "CREATE",
    "DROP",
    "RENAME",
    "ADD",
    "DECOMPOSE",
    "JOIN",
    "OUTER",
    "SPLIT",
    "MERGE",
)


class BidelParser(TokenCursor):
    def _expression(self) -> Expression:
        inner = ExpressionParser(self._tokens, self._position)
        expression = inner.parse()
        self._position = inner.position
        return expression

    # -- statements ----------------------------------------------------------

    def parse_script(self) -> list[Statement]:
        statements: list[Statement] = []
        while self._peek().kind != lexer.EOF:
            statements.append(self._statement())
        return statements

    def _statement(self) -> Statement:
        token = self._peek()
        if token.matches_keyword("CREATE") and self._peek(1).matches_keyword("SCHEMA"):
            return self._create_schema_version()
        if token.matches_keyword("DROP") and self._peek(1).matches_keyword("SCHEMA"):
            return self._drop_schema_version()
        if token.matches_keyword("MATERIALIZE"):
            return self._materialize()
        raise self._error(
            "expected CREATE SCHEMA VERSION, DROP SCHEMA VERSION, or MATERIALIZE"
        )

    def _create_schema_version(self) -> CreateSchemaVersion:
        self._expect_keyword("CREATE")
        self._expect_keyword("SCHEMA")
        self._expect_keyword("VERSION")
        name = self._identifier("schema version name")
        source: str | None = None
        if self._accept_keyword("FROM"):
            source = self._identifier("source schema version name")
        self._expect_keyword("WITH")
        smos: list[SmoNode] = [self.parse_smo()]
        while True:
            if self._peek().kind == lexer.SEMICOLON:
                self._next()
            if self._peek().kind == lexer.EOF:
                break
            if self._starts_new_statement():
                break
            smos.append(self.parse_smo())
        return CreateSchemaVersion(name, source, tuple(smos))

    def _starts_new_statement(self) -> bool:
        token = self._peek()
        if token.matches_keyword("MATERIALIZE"):
            return True
        if token.matches_keyword("CREATE") and self._peek(1).matches_keyword("SCHEMA"):
            return True
        if token.matches_keyword("DROP") and self._peek(1).matches_keyword("SCHEMA"):
            return True
        return False

    def _drop_schema_version(self) -> DropSchemaVersion:
        self._expect_keyword("DROP")
        self._expect_keyword("SCHEMA")
        self._expect_keyword("VERSION")
        name = self._identifier("schema version name")
        if self._peek().kind == lexer.SEMICOLON:
            self._next()
        return DropSchemaVersion(name)

    def _materialize(self) -> Materialize:
        self._expect_keyword("MATERIALIZE")
        online = False
        # ONLINE is only the modifier when a target still follows; a bare
        # version actually named ONLINE keeps parsing as a target.
        if self._peek().matches_keyword("ONLINE") and self._peek(1).kind in (
            lexer.STRING,
            lexer.IDENT,
        ):
            self._next()
            online = True
        targets = [self._materialize_target()]
        while self._peek().kind == lexer.COMMA:
            self._next()
            targets.append(self._materialize_target())
        if self._peek().kind == lexer.SEMICOLON:
            self._next()
        return Materialize(tuple(targets), online=online)

    def _materialize_target(self) -> str:
        token = self._next()
        if token.kind == lexer.STRING:
            return token.value
        if token.kind == lexer.IDENT:
            # Unquoted form: version or version.table
            name = token.value
            if self._peek().kind == lexer.DOT:
                self._next()
                name += "." + self._identifier("table name")
            return name
        raise ParseError(
            f"expected materialization target, found {token.value!r}",
            token.line,
            token.column,
        )

    # -- SMOs ------------------------------------------------------------

    def parse_smo(self) -> SmoNode:
        token = self._peek()
        if token.matches_keyword("CREATE"):
            return self._create_table()
        if token.matches_keyword("DROP") and self._peek(1).matches_keyword("TABLE"):
            return self._drop_table()
        if token.matches_keyword("DROP") and self._peek(1).matches_keyword("COLUMN"):
            return self._drop_column()
        if token.matches_keyword("RENAME") and self._peek(1).matches_keyword("TABLE"):
            return self._rename_table()
        if token.matches_keyword("RENAME") and self._peek(1).matches_keyword("COLUMN"):
            return self._rename_column()
        if token.matches_keyword("ADD"):
            return self._add_column()
        if token.matches_keyword("DECOMPOSE"):
            return self._decompose()
        if token.matches_keyword("JOIN") or token.matches_keyword("OUTER"):
            return self._join()
        if token.matches_keyword("SPLIT"):
            return self._split()
        if token.matches_keyword("MERGE"):
            return self._merge()
        raise self._error(f"expected an SMO, found {token.value!r}")

    def _create_table(self) -> CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect(lexer.LPAREN, "'('")
        columns = [self._column_def()]
        while self._peek().kind == lexer.COMMA:
            self._next()
            columns.append(self._column_def())
        self._expect(lexer.RPAREN, "')'")
        return CreateTable(table, tuple(columns))

    def _column_def(self) -> ColumnDef:
        name = self._identifier("column name")
        if self._peek().kind == lexer.IDENT and not self._peek().matches_keyword("ON"):
            type_token = self._next()
            return ColumnDef(name, DataType.parse(type_token.value))
        return ColumnDef(name)

    def _drop_table(self) -> DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        return DropTable(self._identifier("table name"))

    def _rename_table(self) -> RenameTable:
        self._expect_keyword("RENAME")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect_keyword("INTO")
        return RenameTable(table, self._identifier("new table name"))

    def _rename_column(self) -> RenameColumn:
        self._expect_keyword("RENAME")
        self._expect_keyword("COLUMN")
        column = self._identifier("column name")
        self._expect_keyword("IN")
        table = self._identifier("table name")
        self._expect_keyword("TO")
        return RenameColumn(table, column, self._identifier("new column name"))

    def _add_column(self) -> AddColumn:
        self._expect_keyword("ADD")
        self._expect_keyword("COLUMN")
        column = self._identifier("column name")
        dtype = DataType.ANY
        if self._peek().kind == lexer.IDENT and not self._peek().matches_keyword("AS"):
            dtype = DataType.parse(self._next().value)
        self._expect_keyword("AS")
        function = self._expression()
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        return AddColumn(table, column, function, dtype)

    def _drop_column(self) -> DropColumn:
        self._expect_keyword("DROP")
        self._expect_keyword("COLUMN")
        column = self._identifier("column name")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        self._expect_keyword("DEFAULT")
        default = self._expression()
        return DropColumn(table, column, default)

    def _column_list(self) -> tuple[str, ...]:
        self._expect(lexer.LPAREN, "'('")
        names = [self._identifier("column name")]
        while self._peek().kind == lexer.COMMA:
            self._next()
            names.append(self._identifier("column name"))
        self._expect(lexer.RPAREN, "')'")
        return tuple(names)

    def _join_kind(self) -> JoinKind:
        if self._accept_keyword("PK"):
            return JoinKind("PK")
        if self._accept_keyword("FK"):
            return JoinKind("FK", fk_column=self._identifier("foreign key column"))
        if self._accept_keyword("FOREIGN"):
            self._expect_keyword("KEY")
            return JoinKind("FK", fk_column=self._identifier("foreign key column"))
        return JoinKind("COND", condition=self._expression())

    def _decompose(self) -> Decompose:
        self._expect_keyword("DECOMPOSE")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect_keyword("INTO")
        first_table = self._identifier("table name")
        first_columns = self._column_list()
        second_table: str | None = None
        second_columns: tuple[str, ...] = ()
        kind = JoinKind("PK")
        if self._peek().kind == lexer.COMMA:
            self._next()
            second_table = self._identifier("table name")
            second_columns = self._column_list()
            self._expect_keyword("ON")
            kind = self._join_kind()
        return Decompose(table, first_table, first_columns, second_table, second_columns, kind)

    def _join(self) -> Join:
        outer = self._accept_keyword("OUTER")
        self._expect_keyword("JOIN")
        self._expect_keyword("TABLE")
        first = self._identifier("table name")
        self._expect(lexer.COMMA, "','")
        second = self._identifier("table name")
        self._expect_keyword("INTO")
        target = self._identifier("table name")
        self._expect_keyword("ON")
        return Join(first, second, target, self._join_kind(), outer)

    def _split(self) -> Split:
        self._expect_keyword("SPLIT")
        self._expect_keyword("TABLE")
        table = self._identifier("table name")
        self._expect_keyword("INTO")
        first = self._identifier("table name")
        self._expect_keyword("WITH")
        first_condition = self._expression()
        second: str | None = None
        second_condition: Expression | None = None
        if self._peek().kind == lexer.COMMA:
            self._next()
            second = self._identifier("table name")
            self._expect_keyword("WITH")
            second_condition = self._expression()
        return Split(table, first, first_condition, second, second_condition)

    def _merge(self) -> Merge:
        self._expect_keyword("MERGE")
        self._expect_keyword("TABLE")
        first = self._identifier("table name")
        self._expect(lexer.LPAREN, "'('")
        first_condition = self._expression()
        self._expect(lexer.RPAREN, "')'")
        self._expect(lexer.COMMA, "','")
        second = self._identifier("table name")
        self._expect(lexer.LPAREN, "'('")
        second_condition = self._expression()
        self._expect(lexer.RPAREN, "')'")
        self._expect_keyword("INTO")
        target = self._identifier("table name")
        return Merge(first, first_condition, second, second_condition, target)


def parse_script(text: str) -> list[Statement]:
    """Parse a full BiDEL script into statements."""
    return BidelParser(tokenize(text)).parse_script()


def parse_smo(text: str) -> SmoNode:
    """Parse a single SMO (convenience for tests and examples)."""
    parser = BidelParser(tokenize(text))
    smo = parser.parse_smo()
    if parser._peek().kind == lexer.SEMICOLON:
        parser._next()
    parser._expect_end()
    return smo
