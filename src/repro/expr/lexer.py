"""Tokenizer and token cursor shared by the expression, BiDEL and SQL
parsers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError

# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
COMMA = "COMMA"
SEMICOLON = "SEMICOLON"
DOT = "DOT"
PARAM = "PARAM"  # a '?' placeholder (qmark-style parameter binding)
EOF = "EOF"

_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", "||")
_ONE_CHAR_OPS = "+-*/%<>="


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int

    def matches_keyword(self, word: str) -> bool:
        return self.kind == IDENT and self.value.upper() == word.upper()


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an ``EOF`` token.

    Identifiers may end in ``!`` (schema version names like ``Do!``).
    Comments run from ``--`` to end of line.
    """
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    length = len(text)

    def advance(n: int) -> None:
        nonlocal i, line, column
        for _ in range(n):
            if i < length and text[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < length:
        ch = text[i]
        if ch.isspace():
            advance(1)
            continue
        if text[i : i + 2] == "--":
            while i < length and text[i] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if ch == "'":
            advance(1)
            chars: list[str] = []
            closed = False
            while i < length:
                if text[i] == "'":
                    if text[i + 1 : i + 2] == "'":
                        chars.append("'")
                        advance(2)
                        continue
                    advance(1)
                    closed = True
                    break
                chars.append(text[i])
                advance(1)
            if not closed:
                raise ParseError("unterminated string literal", start_line, start_column)
            tokens.append(Token(STRING, "".join(chars), start_line, start_column))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and text[i + 1].isdigit()):
            j = i
            saw_dot = False
            while j < length and (text[j].isdigit() or (text[j] == "." and not saw_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is a separator, not a decimal point.
                    if j + 1 >= length or not text[j + 1].isdigit():
                        break
                    saw_dot = True
                j += 1
            value = text[i:j]
            advance(j - i)
            tokens.append(Token(NUMBER, value, start_line, start_column))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < length and text[j] == "!":
                j += 1
            value = text[i:j]
            advance(j - i)
            tokens.append(Token(IDENT, value, start_line, start_column))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            advance(2)
            normalized = "!=" if two == "<>" else two
            tokens.append(Token(OP, normalized, start_line, start_column))
            continue
        if ch in _ONE_CHAR_OPS:
            advance(1)
            tokens.append(Token(OP, ch, start_line, start_column))
            continue
        if ch == "(":
            advance(1)
            tokens.append(Token(LPAREN, ch, start_line, start_column))
            continue
        if ch == ")":
            advance(1)
            tokens.append(Token(RPAREN, ch, start_line, start_column))
            continue
        if ch == ",":
            advance(1)
            tokens.append(Token(COMMA, ch, start_line, start_column))
            continue
        if ch == ";":
            advance(1)
            tokens.append(Token(SEMICOLON, ch, start_line, start_column))
            continue
        if ch == ".":
            advance(1)
            tokens.append(Token(DOT, ch, start_line, start_column))
            continue
        if ch == "?":
            advance(1)
            tokens.append(Token(PARAM, ch, start_line, start_column))
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_column)

    tokens.append(Token(EOF, "", line, column))
    return tokens


class TokenCursor:
    """A position in a token list ending with ``EOF`` (it never moves past
    that token), and the helpers of every recursive-descent parser here:
    look ahead, consume, accept or expect a keyword or a token kind, and
    raise a :class:`ParseError` at the current token."""

    def __init__(self, tokens: list[Token], position: int = 0):
        self._tokens = tokens
        self._position = position

    @property
    def position(self) -> int:
        return self._position

    def _peek(self, offset: int = 0) -> Token:
        try:
            return self._tokens[self._position + offset]
        except IndexError:  # a lookahead past the end reads EOF
            return self._tokens[-1]

    def _next(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != EOF:
            self._position += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().matches_keyword(word):
            self._next()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}, found {self._peek().value!r}")

    def _expect(self, kind: str, what: str) -> Token:
        if self._peek().kind != kind:
            raise self._error(f"expected {what}, found {self._peek().value!r}")
        return self._next()

    def _identifier(self, what: str = "identifier") -> str:
        return self._expect(IDENT, what).value

    def _expect_end(self) -> None:
        """Raise unless every token but ``EOF`` has been consumed."""
        if self._peek().kind != EOF:
            raise self._error(f"unexpected trailing input {self._peek().value!r}")
