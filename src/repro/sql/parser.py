"""Parser for the SQL dialect of the DB-API layer.

Reuses the shared tokenizer (:mod:`repro.expr.lexer`) and embeds the
expression parser, extended to accept ``?`` parameter placeholders.
Grammar (keywords case-insensitive)::

    statement := select | insert | update | delete | bidel_script
    select    := SELECT ('*' | item (',' item)*) FROM table
                 [WHERE expr]
                 [ORDER BY expr [ASC|DESC] (',' expr [ASC|DESC])*]
                 [LIMIT expr [OFFSET expr]]
    item      := expr [AS name]
    insert    := INSERT INTO table ['(' name (',' name)* ')']
                 VALUES tuple (',' tuple)*
    tuple     := '(' expr (',' expr)* ')'
    update    := UPDATE table SET name '=' expr (',' name '=' expr)*
                 [WHERE expr]
    delete    := DELETE FROM table [WHERE expr]

A script starting with ``CREATE SCHEMA VERSION``, ``DROP SCHEMA VERSION``,
or ``MATERIALIZE`` is recognized as BiDEL DDL and returned as a
:class:`~repro.sql.ast.BidelStatement` for verbatim pass-through to the
engine (those scripts may contain multiple ``;``-separated statements).
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ParseError, ProgrammingError
from repro.expr import lexer
from repro.expr.ast import Expression
from repro.expr.lexer import Token, TokenCursor, tokenize
from repro.expr.parser import ExpressionParser
from repro.sql.ast import (
    BidelStatement,
    Check,
    Delete,
    Explain,
    Insert,
    OrderItem,
    Parameter,
    Select,
    SelectItem,
    SqlStatement,
    Update,
)

_CLAUSE_KEYWORDS = {
    "FROM", "WHERE", "ORDER", "BY", "LIMIT", "OFFSET", "AS", "ASC", "DESC",
    "SET", "VALUES", "INTO", "SELECT", "INSERT", "UPDATE", "DELETE",
}


class _ParamCounter:
    """Assigns consecutive indexes to ``?`` placeholders across all the
    expression slots of one statement."""

    def __init__(self) -> None:
        self.count = 0

    def next_index(self) -> int:
        index = self.count
        self.count += 1
        return index


class SqlExpressionParser(ExpressionParser):
    """The shared expression parser plus ``?`` placeholders.

    Clause keywords (FROM, LIMIT, ...) are not treated as column names, so
    a missing WHERE operand fails with a clear error instead of silently
    consuming the next clause's keyword.
    """

    def __init__(self, tokens: list[Token], position: int, counter: _ParamCounter):
        super().__init__(tokens, position)
        self._counter = counter

    def _primary(self) -> Expression:
        token = self._peek()
        if token.kind == lexer.PARAM:
            self._next()
            return Parameter(self._counter.next_index())
        if token.kind == lexer.IDENT and token.value.upper() in _CLAUSE_KEYWORDS:
            raise self._error(f"unexpected keyword {token.value!r} in expression")
        return super()._primary()


class SqlParser(TokenCursor):
    def __init__(self, text: str):
        super().__init__(tokenize(text))
        self._text = text
        self._params = _ParamCounter()

    def _expression(self) -> Expression:
        parser = SqlExpressionParser(self._tokens, self._position, self._params)
        expression = parser.parse()
        self._position = parser.position
        return expression

    def _end_of_statement(self) -> None:
        while self._peek().kind == lexer.SEMICOLON:
            self._next()
        self._expect_end()

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> SqlStatement:
        token = self._peek()
        if token.kind != lexer.IDENT:
            raise self._error("empty or malformed statement")
        if self._is_bidel_script():
            return BidelStatement(self._text)
        if token.value.upper() == "CHECK":
            self._next()
            if not self._is_bidel_script():
                raise self._error(
                    "CHECK applies to BiDEL DDL (CREATE/DROP SCHEMA "
                    "VERSION, MATERIALIZE)"
                )
            return Check(script=self._script_tail())
        if token.value.upper() == "EXPLAIN":
            self._next()
            if self._is_bidel_script():
                raise self._error(
                    "EXPLAIN applies to SELECT, INSERT, UPDATE, or DELETE, "
                    "not to BiDEL DDL"
                )
            return Explain(statement=self._dml_statement())
        return self._dml_statement()

    def _dml_statement(self) -> SqlStatement:
        token = self._peek()
        head = token.value.upper() if token.kind == lexer.IDENT else ""
        if head == "SELECT":
            return self._select()
        if head == "INSERT":
            return self._insert()
        if head == "UPDATE":
            return self._update()
        if head == "DELETE":
            return self._delete()
        raise self._error(
            f"unsupported statement {token.value!r}; expected SELECT, INSERT, "
            "UPDATE, DELETE, EXPLAIN, or BiDEL DDL"
        )

    def _script_tail(self) -> str:
        """The source text from the current token onward — the BiDEL
        script wrapped by a CHECK prefix, passed through verbatim."""
        token = self._peek()
        lines = self._text.splitlines(keepends=True)
        offset = sum(len(line) for line in lines[:token.line - 1])
        return self._text[offset + token.column - 1:]

    def _is_bidel_script(self) -> bool:
        first, second, third = self._peek(0), self._peek(1), self._peek(2)
        if first.matches_keyword("MATERIALIZE"):
            return True
        return (
            (first.matches_keyword("CREATE") or first.matches_keyword("DROP"))
            and second.matches_keyword("SCHEMA")
            and third.matches_keyword("VERSION")
        )

    def _select(self) -> Select:
        self._expect_keyword("SELECT")
        items: tuple[SelectItem, ...] | None
        token = self._peek()
        if token.kind == lexer.OP and token.value == "*":
            self._next()
            items = None
        else:
            collected = [self._select_item()]
            while self._peek().kind == lexer.COMMA:
                self._next()
                collected.append(self._select_item())
            items = tuple(collected)
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = self._where_clause()
        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._peek().kind == lexer.COMMA:
                self._next()
                order_by.append(self._order_item())
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._expression()
            if self._accept_keyword("OFFSET"):
                offset = self._expression()
        self._end_of_statement()
        return Select(
            table=table,
            items=items,
            where=where,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            param_count=self._params.count,
        )

    def _select_item(self) -> SelectItem:
        expression = self._expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._identifier("alias")
        return SelectItem(expression, alias)

    def _order_item(self) -> OrderItem:
        expression = self._expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderItem(expression, descending)

    def _where_clause(self) -> Expression | None:
        if self._accept_keyword("WHERE"):
            return self._expression()
        return None

    def _insert(self) -> Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: tuple[str, ...] | None = None
        if self._peek().kind == lexer.LPAREN:
            self._next()
            names = [self._identifier("column name")]
            while self._peek().kind == lexer.COMMA:
                self._next()
                names.append(self._identifier("column name"))
            self._expect(lexer.RPAREN, "')'")
            columns = tuple(names)
        self._expect_keyword("VALUES")
        rows = [self._value_tuple()]
        while self._peek().kind == lexer.COMMA:
            self._next()
            rows.append(self._value_tuple())
        self._end_of_statement()
        return Insert(
            table=table,
            columns=columns,
            rows=tuple(rows),
            param_count=self._params.count,
        )

    def _value_tuple(self) -> tuple[Expression, ...]:
        self._expect(lexer.LPAREN, "'('")
        values = [self._expression()]
        while self._peek().kind == lexer.COMMA:
            self._next()
            values.append(self._expression())
        self._expect(lexer.RPAREN, "')'")
        return tuple(values)

    def _update(self) -> Update:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._peek().kind == lexer.COMMA:
            self._next()
            assignments.append(self._assignment())
        where = self._where_clause()
        self._end_of_statement()
        return Update(
            table=table,
            assignments=tuple(assignments),
            where=where,
            param_count=self._params.count,
        )

    def _assignment(self) -> tuple[str, Expression]:
        name = self._identifier("column name")
        token = self._peek()
        if token.kind != lexer.OP or token.value != "=":
            raise self._error(f"expected '=', found {token.value!r}")
        self._next()
        return name, self._expression()

    def _delete(self) -> Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = self._where_clause()
        self._end_of_statement()
        return Delete(table=table, where=where, param_count=self._params.count)


#: Counter hook: how often the execution layer asked for a parse
#: (``requests``) and how often a parse actually ran (``parses``, i.e.
#: text-cache misses).  The plan cache's regression tests assert on these
#: — a cached plan must not even *request* a parse.
parse_counters = {"requests": 0, "parses": 0}


def reset_parse_counters() -> None:
    parse_counters["requests"] = 0
    parse_counters["parses"] = 0


@lru_cache(maxsize=512)
def _parse_statement_cached(text: str) -> SqlStatement:
    parse_counters["parses"] += 1
    try:
        return SqlParser(text).parse_statement()
    except ParseError as exc:
        raise ProgrammingError(str(exc)) from exc


def parse_statement(text: str) -> SqlStatement:
    """Parse one SQL statement (or a BiDEL DDL script) into its AST.

    Results are cached: statements are immutable, so repeated execution of
    the same text (the common case for parameterized workloads) skips the
    parse entirely.
    """
    parse_counters["requests"] += 1
    return _parse_statement_cached(text)
