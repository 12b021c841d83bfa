"""Recursive-descent parser for the expression language.

Grammar (classic SQL precedence, loosest binding first)::

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive ( cmp additive
                            | IS [NOT] NULL
                            | [NOT] IN '(' expr (',' expr)* ')'
                            | [NOT] LIKE additive )?
    additive    := multiplicative (('+'|'-'|'||') multiplicative)*
    multiplicative := unary (('*'|'/'|'%') unary)*
    unary       := ('-'|'+') unary | primary
    primary     := NUMBER | STRING | TRUE | FALSE | NULL
                 | IDENT '(' [expr (',' expr)*] ')'   -- function call
                 | IDENT                              -- column reference
                 | '(' expr ')'
"""

from __future__ import annotations

from repro.expr import lexer
from repro.expr.ast import (
    Binary,
    BoolOp,
    Column,
    Comparison,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Unary,
)
from repro.expr.lexer import TokenCursor

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}
_RESERVED_WORDS = {"AND", "OR", "NOT", "NULL", "TRUE", "FALSE", "IS", "IN", "LIKE"}


class ExpressionParser(TokenCursor):
    """Parses a token stream from ``position``; usable standalone or
    embedded in BiDEL and SQL, which read :attr:`position` back."""

    def parse(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        items = [self._and_expr()]
        while self._accept_keyword("OR"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return BoolOp("OR", tuple(items))

    def _and_expr(self) -> Expression:
        items = [self._not_expr()]
        while self._accept_keyword("AND"):
            items.append(self._not_expr())
        if len(items) == 1:
            return items[0]
        return BoolOp("AND", tuple(items))

    def _not_expr(self) -> Expression:
        if self._accept_keyword("NOT"):
            return Unary("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.kind == lexer.OP and token.value in _COMPARISON_OPS:
            self._next()
            right = self._additive()
            return Comparison(token.value, left, right)
        if token.matches_keyword("IS"):
            self._next()
            negated = self._accept_keyword("NOT")
            if not self._accept_keyword("NULL"):
                raise self._error("expected NULL after IS [NOT]")
            return IsNull(left, negated)
        negated = False
        if token.matches_keyword("NOT"):
            following = self._peek(1)
            if following.matches_keyword("IN") or following.matches_keyword("LIKE"):
                self._next()
                negated = True
                token = self._peek()
        if token.matches_keyword("IN"):
            self._next()
            self._expect(lexer.LPAREN, "'('")
            items = [self.parse()]
            while self._peek().kind == lexer.COMMA:
                self._next()
                items.append(self.parse())
            self._expect(lexer.RPAREN, "')'")
            return InList(left, tuple(items), negated)
        if token.matches_keyword("LIKE"):
            self._next()
            return Like(left, self._additive(), negated)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind == lexer.OP and token.value in ("+", "-", "||"):
                self._next()
                left = Binary(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind == lexer.OP and token.value in ("*", "/", "%"):
                self._next()
                left = Binary(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> Expression:
        token = self._peek()
        if token.kind == lexer.OP and token.value in ("-", "+"):
            self._next()
            return Unary(token.value, self._unary())
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.kind == lexer.NUMBER:
            self._next()
            if "." in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind == lexer.STRING:
            self._next()
            return Literal(token.value)
        if token.kind == lexer.LPAREN:
            self._next()
            inner = self.parse()
            self._expect(lexer.RPAREN, "')'")
            return inner
        if token.kind == lexer.IDENT:
            upper = token.value.upper()
            if upper == "NULL":
                self._next()
                return Literal(None)
            if upper == "TRUE":
                self._next()
                return Literal(True)
            if upper == "FALSE":
                self._next()
                return Literal(False)
            if upper in _RESERVED_WORDS:
                raise self._error(f"unexpected keyword {token.value!r}")
            self._next()
            if self._peek().kind == lexer.LPAREN:
                self._next()
                args: list[Expression] = []
                if self._peek().kind != lexer.RPAREN:
                    args.append(self.parse())
                    while self._peek().kind == lexer.COMMA:
                        self._next()
                        args.append(self.parse())
                self._expect(lexer.RPAREN, "')'")
                return FuncCall(token.value.lower(), tuple(args))
            return Column(token.value)
        raise self._error(f"unexpected token {token.value!r}")


def parse_expression(text: str) -> Expression:
    """Parse a standalone expression string; the whole input must be consumed."""
    parser = ExpressionParser(lexer.tokenize(text))
    expression = parser.parse()
    parser._expect_end()
    return expression
