"""A reference scanner for the generated delta-code SQL.

The verifier needs to know, for every generated ``CREATE VIEW`` /
``CREATE TRIGGER`` / ``CREATE TABLE`` statement, *which tables, views,
aliases, and columns the statement mentions* — without executing it and
without a full SQL grammar.  The generated dialect is narrow (the
emitters in :mod:`repro.backend.emit` produce it), so a tokenizer plus a
small state machine over FROM/INTO/UPDATE/JOIN positions is exact enough
to resolve every reference while staying robust to statements the
composer rewrote.

Nested views reuse branch aliases (``t0``, ``n``) across UNION branches,
so the alias map is a **multimap**: an ``alias.column`` reference
resolves if *any* candidate table bound to that alias provides the
column.  That trades a few false negatives for zero false positives —
the right trade for a gate that recovery and CI refuse on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Words the emitters produce as SQL structure.  A bare identifier in
#: alias position that matches one of these is structure, not an alias;
#: and an identifier *named* like one of these cannot be distinguished
#: from structure by the unquoted-identifier scan, so RPC105 skips them.
STRUCTURAL_KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "NULL", "IS", "IN",
    "AS", "ON", "JOIN", "UNION", "EXISTS", "INSERT", "UPDATE", "DELETE",
    "INTO", "VALUES", "SET", "CREATE", "VIEW", "TRIGGER", "TABLE",
    "INDEX", "INSTEAD", "OF", "BEGIN", "END", "IF", "RAISE", "ABORT",
    "REPLACE", "TEMP", "PRIMARY", "KEY", "INTEGER", "TEXT", "LIKE",
    "CASE", "WHEN", "THEN", "ELSE", "BY", "GROUP", "ORDER", "DISTINCT",
    "ALL", "LEFT", "OUTER", "INNER", "CROSS", "COALESCE", "CAST",
    "BETWEEN", "ASC", "DESC", "LIMIT", "OFFSET", "OLD", "NEW",
})

#: Sentinel bound as the "table" of an alias over a derived-table
#: subquery: the scanner cannot know its output columns, so the
#: reference resolver skips qualifiers that may point at one.
SUBQUERY = "(subquery)"

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<string>'(?:[^']|'')*')           # string literal ('' escapes)
    | (?P<qident>"(?:[^"]|"")*")           # quoted identifier ("" escapes)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)    # bare identifier or keyword
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<punct><=|>=|!=|<>|\|\||.)         # two-char operators, any other character
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SqlToken:
    text: str
    kind: str  # ident | qident | string | number | punct

    @property
    def upper(self) -> str:
        return self.text.upper() if self.kind == "ident" else ""

    @property
    def name(self) -> str:
        """The identifier this token denotes (unquoting ``"..."``)."""
        if self.kind == "qident":
            return self.text[1:-1].replace('""', '"')
        return self.text


def tokenize_sql(sql: str) -> list[SqlToken]:
    return [
        SqlToken(match.group(), match.lastgroup)
        for match in _TOKEN.finditer(sql)
        if match.lastgroup != "ws"
    ]


@dataclass
class StatementScan:
    """Everything the verifier needs to know about one statement."""

    kind: str = "other"  # view | trigger | table | index | other
    name: str | None = None
    on_view: str | None = None  # trigger: the view it fires on
    operation: str | None = None  # trigger: INSERT | UPDATE | DELETE
    table_refs: list[str] = field(default_factory=list)
    #: alias -> every table/view the alias is bound to anywhere in the
    #: statement (UNION branches legitimately reuse alias names).
    aliases: dict[str, set[str]] = field(default_factory=dict)
    column_refs: list[tuple[str, str]] = field(default_factory=list)
    columns_defined: tuple[str, ...] = ()  # CREATE TABLE column list
    union_all: bool = False  # view: its branches are joined by UNION ALL


def _is_name(token: SqlToken) -> bool:
    if token.kind == "qident":
        return True
    return token.kind == "ident" and token.upper not in STRUCTURAL_KEYWORDS


def _matching_paren(tokens: list[SqlToken], start: int) -> int:
    """Index of the ``)`` closing the ``(`` at ``start``."""
    depth = 0
    for i in range(start, len(tokens)):
        if tokens[i].text == "(":
            depth += 1
        elif tokens[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens) - 1


def _joined_by_union_all(tokens: list[SqlToken]) -> bool:
    """Does a ``UNION ALL`` join the top-level branches of this body (as
    opposed to one inside a parenthesized subquery)?"""
    depth = 0
    for token, following in zip(tokens, tokens[1:]):
        if token.text == "(":
            depth += 1
        elif token.text == ")":
            depth -= 1
        elif depth == 0 and token.upper == "UNION" and following.upper == "ALL":
            return True
    return False


class _BodyScanner:
    """Collects table refs, aliases, and qualified column refs from the
    token stream of one statement body."""

    def __init__(self, scan: StatementScan):
        self.scan = scan

    def run(self, tokens: list[SqlToken]) -> None:
        i = 0
        while i < len(tokens):
            token = tokens[i]
            if token.upper in ("FROM", "JOIN"):
                i = self._from_list(tokens, i + 1)
                continue
            if token.upper == "INTO":
                i = self._single_ref(tokens, i + 1)
                continue
            if token.upper == "UPDATE":
                i = self._single_ref(tokens, i + 1)
                continue
            if _is_name(token) or token.upper in ("NEW", "OLD"):
                nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                after = tokens[i + 2] if i + 2 < len(tokens) else None
                if (nxt is not None and nxt.text == "."
                        and after is not None
                        and (after.kind in ("ident", "qident"))):
                    self.scan.column_refs.append((token.name, after.name))
                    i += 3
                    continue
            i += 1

    def _bind_alias(self, alias: str, table: str) -> None:
        self.scan.aliases.setdefault(alias, set()).add(table)

    def _single_ref(self, tokens: list[SqlToken], i: int) -> int:
        """One table name after INTO / UPDATE (never aliased, never a
        subquery in the generated dialect)."""
        if i < len(tokens) and _is_name(tokens[i]):
            self.scan.table_refs.append(tokens[i].name)
            return i + 1
        return i

    def _from_list(self, tokens: list[SqlToken], i: int) -> int:
        """A comma-separated FROM list: each entry is a table name or a
        parenthesized subquery, optionally followed by an alias."""
        while i < len(tokens):
            token = tokens[i]
            if token.text == "(":
                close = _matching_paren(tokens, i)
                # Recurse: the subquery may itself read tables.
                _BodyScanner(self.scan).run(tokens[i + 1:close])
                i = close + 1
                if i < len(tokens) and _is_name(tokens[i]):
                    # Alias over a derived table: its columns are opaque
                    # to the scanner, so bind the sentinel that makes the
                    # resolver skip (never flag) references through it.
                    self._bind_alias(tokens[i].name, SUBQUERY)
                    i += 1
            elif _is_name(token):
                table = token.name
                self.scan.table_refs.append(table)
                i += 1
                if i < len(tokens) and _is_name(tokens[i]):
                    nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                    if nxt is None or nxt.text != ".":
                        self._bind_alias(tokens[i].name, table)
                        i += 1
            else:
                break
            if i < len(tokens) and tokens[i].text == ",":
                i += 1
                continue
            break
        return i


def scan_statement(sql: str) -> StatementScan:
    """Classify one generated statement and collect its references."""
    tokens = tokenize_sql(sql)
    scan = StatementScan()
    uppers = [t.upper for t in tokens[:8]]

    def name_at(index: int) -> str | None:
        if index < len(tokens) and tokens[index].kind in ("ident", "qident"):
            return tokens[index].name
        return None

    if uppers[:2] == ["CREATE", "VIEW"]:
        scan.kind = "view"
        scan.name = name_at(2)
        # Body: everything after the AS keyword.
        for i, token in enumerate(tokens):
            if token.upper == "AS":
                _BodyScanner(scan).run(tokens[i + 1:])
                scan.union_all = _joined_by_union_all(tokens[i + 1:])
                break
        return scan
    if uppers[:2] == ["CREATE", "TRIGGER"]:
        scan.kind = "trigger"
        scan.name = name_at(2)
        body_start = 0
        for i, token in enumerate(tokens):
            if token.upper == "ON":
                scan.on_view = name_at(i + 1)
            elif token.upper in ("INSERT", "UPDATE", "DELETE") and scan.operation is None:
                scan.operation = token.upper
            elif token.upper == "BEGIN":
                body_start = i + 1
                break
        _BodyScanner(scan).run(tokens[body_start:])
        return scan
    if "TABLE" in uppers[:3] and uppers[0] == "CREATE":
        scan.kind = "table"
        # CREATE [TEMP] TABLE [IF NOT EXISTS] <name> ( p ..., col, ... )
        i = uppers.index("TABLE") + 1
        while i < len(tokens) and tokens[i].upper in ("IF", "NOT", "EXISTS"):
            i += 1
        scan.name = name_at(i)
        if i + 1 < len(tokens) and tokens[i + 1].text == "(":
            close = _matching_paren(tokens, i + 1)
            columns: list[str] = []
            expect_name = True
            for token in tokens[i + 2:close]:
                if token.text == ",":
                    expect_name = True
                elif expect_name and token.kind in ("ident", "qident"):
                    columns.append(token.name)
                    expect_name = False
            scan.columns_defined = tuple(columns)
        return scan
    if uppers[:2] == ["CREATE", "INDEX"] or uppers[:3] == ["CREATE", "UNIQUE", "INDEX"]:
        scan.kind = "index"
        i = uppers.index("INDEX") + 1
        while i < len(tokens) and tokens[i].upper in ("IF", "NOT", "EXISTS"):
            i += 1
        scan.name = name_at(i)
        for j in range(i, len(tokens)):
            if tokens[j].upper == "ON":
                table = name_at(j + 1)
                if table is not None:
                    scan.table_refs.append(table)
                    if j + 2 < len(tokens) and tokens[j + 2].text == "(":
                        close = _matching_paren(tokens, j + 2)
                        for token in tokens[j + 3:close]:
                            if token.kind in ("ident", "qident"):
                                scan.column_refs.append((table, token.name))
                break
        return scan
    _BodyScanner(scan).run(tokens)
    return scan


def unquoted_occurrence(sql: str, name: str) -> bool:
    """Does ``name`` appear in ``sql`` as a *bare* word — outside string
    literals and outside double-quoted identifiers?  Used by the RPC105
    pass for names :func:`~repro.util.naming.quote_identifier` would
    quote."""
    if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
        # A name with odd characters cannot appear as a bare identifier
        # token at all; nothing to scan for.
        return False
    pattern = re.compile(rf"\b{re.escape(name)}\b", re.IGNORECASE)
    i = 0
    length = len(sql)
    segment_start = 0
    while i < length:
        ch = sql[i]
        if ch in ("'", '"'):
            if pattern.search(sql, segment_start, i):
                return True
            quote = ch
            i += 1
            while i < length:
                if sql[i] == quote:
                    if i + 1 < length and sql[i + 1] == quote:
                        i += 2
                        continue
                    break
                i += 1
            segment_start = i + 1
        i += 1
    return bool(pattern.search(sql, segment_start, length))
