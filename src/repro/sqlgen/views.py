"""Figure 7: translating Datalog rules into view definitions.

A derived table version is defined by several rules; the generated view is
the UNION of one subquery per rule, except that a rule pair which only
says "the stored value if there is one, else the computed one" (ADD
COLUMN's widening rules) is one subquery. Within a subquery:

- positive relational literals become FROM entries with join conditions on
  shared variables;
- condition literals become WHERE conjuncts;
- negative literals become ``NOT EXISTS`` subselects;
- function bindings become computed select expressions (a paired one is
  a ``CASE`` over a probe of the stored value, see :func:`_stored_or_computed`);
- tuple comparisons expand column-wise;
- a predicate the rules derive but no table holds (a helper such as "S
  has a condition partner", whose negation covers a join) is inlined as
  a subquery.

A lone branch that may yield an identifier twice is ``SELECT DISTINCT``
(:func:`compound_sql`).

Every table and view carries the InVerDa tuple identifier as an explicit
leading column ``p``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.datalog.ast import (
    Assign, Atom, Compare, CondLit, Const, Rule, RuleSet, Term, Var, is_wildcard,
)
from repro.errors import BackendError
from repro.util.naming import quote_identifier


@dataclass(frozen=True)
class ViewBranch:
    """One UNION branch of a rule-rendered view, kept structured so the
    backend's view composer (:mod:`repro.backend.compose`) can inline and
    merge branches along the SMO chain instead of nesting views.

    ``head`` pairs each output column (including the leading tuple id
    ``p``) with its SQL expression; ``froms`` lists ``(alias, table
    reference)`` entries (table references may be physical tables, other
    view names, or inline subqueries); ``where`` is a conjunction.

    The last three fields are what the rule knows about the tuple
    identifier (Lemma 5) and :func:`key_disjoint` decides on: the branch
    yields a row with identifier ``p`` only if every relation in
    ``requires`` holds a row with that ``p`` and no relation in
    ``forbids`` does; ``key_preserving`` says the head's ``p`` comes from
    one FROM entry and every other entry is equi-joined to it on ``p``
    (so the branch yields each ``p`` at most once over key-unique
    entries).  The defaults claim nothing.
    """

    head: tuple[tuple[str, str], ...]
    froms: tuple[tuple[str, str], ...]
    where: tuple[str, ...]
    requires: frozenset[str] = frozenset()
    forbids: frozenset[str] = frozenset()
    key_preserving: bool = False

    def sql(self, distinct: bool = False) -> str:
        select_items = ", ".join(
            f"{expr} AS {quote_identifier(column)}" for column, expr in self.head
        )
        sql = ("SELECT DISTINCT " if distinct else "SELECT ") + select_items
        sql += " FROM " + ", ".join(f"{table} {alias}" for alias, table in self.froms)
        if self.where:
            sql += " WHERE " + " AND ".join(self.where)
        return sql


def alias_pattern(alias: str) -> str:
    """Regex matching ``alias.`` as a column qualifier (not as the tail
    of a longer or quoted name)."""
    return rf"(?<![\w\"]){re.escape(alias)}\."


def _keyed_conditions(branch: ViewBranch) -> set[str]:
    """The WHERE conjuncts with each FROM alias spelled as its relation.
    In a key-preserving branch every entry holds *the* row identified by
    ``p``, so two branches' conjuncts that agree in this spelling test
    the same row."""
    conditions = set()
    for cond in branch.where:
        for alias, table in branch.froms:
            cond = re.sub(alias_pattern(alias), lambda _m: f"{table}.", cond)
        conditions.add(cond)
    return conditions


def _key_exclusive(left: ViewBranch, right: ViewBranch) -> bool:
    """No ``p`` can come out of both branches: one requires a row the
    other forbids, or they carry complementary ``c`` / ``(c) IS NOT TRUE``
    conditions over the same keyed rows."""
    if left.requires & right.forbids or right.requires & left.forbids:
        return True
    ours, theirs = _keyed_conditions(left), _keyed_conditions(right)
    return any(f"({c}) IS NOT TRUE" in theirs for c in ours) or any(
        f"({c}) IS NOT TRUE" in ours for c in theirs
    )


def key_disjoint(branches: Sequence[ViewBranch]) -> bool:
    """Is ``UNION ALL`` of ``branches`` the same relation as ``UNION``?

    Yes when (K) every branch is key-preserving and (X) every pair is
    key-exclusive: each ``p`` then occurs at most once in the compound,
    so there is nothing to de-duplicate.  This is the one place the
    compound keyword is decided — the composer emits by it and the
    verifier (RPC108) re-checks installed text against it."""
    return all(branch.key_preserving for branch in branches) and all(
        _key_exclusive(left, right)
        for left, right in itertools.combinations(branches, 2)
    )


def compound_sql(branches: Sequence[ViewBranch], disjoint: bool) -> str:
    """``branches`` as one relation: joined by ``UNION ALL`` where
    ``disjoint`` (:func:`key_disjoint`), else by ``UNION`` — and a lone
    branch that is not disjoint, which may yield one identifier many
    times (a projection onto a generated identifier), as ``SELECT
    DISTINCT``."""
    if len(branches) == 1:
        return branches[0].sql(distinct=not disjoint)
    keyword = "UNION ALL" if disjoint else "UNION"
    return f"\n{keyword}\n".join(branch.sql() for branch in branches)


def _sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


class _Subquery:
    """Assembles one rule's subquery."""

    def __init__(
        self,
        rule: Rule,
        table_names: Mapping[str, str],
        table_columns: Mapping[str, tuple[str, ...]],
        head_columns: tuple[str, ...],
        stored: Atom | None = None,
        probe_names: Mapping[str, str] | None = None,
        prefix: str = "t",
    ):
        self.rule = rule
        #: ``X(k, b…)`` of a merged pair: each ``b`` bound by a function
        #: binding reads X's value at ``k`` where X holds one.
        self.stored = stored
        self.prefix = prefix
        self.table_names = table_names
        self.probe_names = probe_names or {}
        self.table_columns = table_columns
        self.head_columns = head_columns
        self.aliases: list[tuple[str, str]] = []  # (alias, table)
        self.var_sources: dict[str, str] = {}  # var -> "alias.column"
        self.where: list[str] = []
        self.computed: dict[str, str] = {}  # var -> SQL expression

    def _term_sql(self, term: Term) -> str:
        if isinstance(term, Const):
            return _sql_literal(term.value)
        if term.name in self.var_sources:
            return self.var_sources[term.name]
        if term.name in self.computed:
            return self.computed[term.name]
        raise BackendError(f"unbound variable {term.name!r} in rule {self.rule}")

    def _bind_atom(self, atom: Atom, alias: str) -> list[str]:
        columns = ("p", *self.table_columns[atom.pred])
        constraints: list[str] = []
        for term, column in zip(atom.terms, columns):
            reference = f"{alias}.{quote_identifier(column)}"
            if isinstance(term, Const):
                if term.value is None:
                    constraints.append(f"{reference} IS NULL")
                else:
                    constraints.append(f"{reference} = {_sql_literal(term.value)}")
            elif term.name in self.var_sources:
                constraints.append(f"{reference} = {self.var_sources[term.name]}")
            else:
                self.var_sources[term.name] = reference
        return constraints

    def branch(self) -> ViewBranch:
        positives = [lit for lit in self.rule.body if isinstance(lit, Atom) and lit.positive]
        negatives = [lit for lit in self.rule.body if isinstance(lit, Atom) and not lit.positive]
        conditions = [lit for lit in self.rule.body if isinstance(lit, CondLit)]
        compares = [lit for lit in self.rule.body if isinstance(lit, Compare)]
        assigns = [lit for lit in self.rule.body if isinstance(lit, Assign)]

        for index, atom in enumerate(positives):
            alias = f"{self.prefix}{index}"
            self.aliases.append((alias, self.table_names[atom.pred]))
            self.where.extend(self._bind_atom(atom, alias))

        for assign in assigns:
            if assign.expression is None:
                raise BackendError(
                    f"function binding {assign} has no SQL form; identifier "
                    "generation is handled by the engine, not by views"
                )
            # Column references are rebound on the expression AST, never by
            # text replacement over rendered SQL: that would also rewrite a
            # string literal spelling a column name, or an earlier binding.
            sources = {}
            for column in assign.expression.columns():
                source = self.var_sources.get(self._column_var(column))
                if source is None:
                    raise BackendError(f"no source for column {column!r} in {assign}")
                sources[column] = source
            computed = assign.expression.rename(sources).to_sql()
            if self.stored is not None and assign.target in self.stored.terms[1:]:
                computed = self._probe(assign.target, computed)
            self.computed[assign.target.name] = computed

        for cond in conditions:
            rendered = cond.expression.rename(
                {column: self._term_sql(term) for column, term in cond.columns}
            ).to_sql()
            # The engine's is_true() treats NULL as not-satisfied, so the
            # negated literal must hold for NULL conditions: IS NOT TRUE.
            self.where.append(rendered if cond.positive else f"({rendered}) IS NOT TRUE")

        for compare in compares:
            pairs = [
                f"{self._term_sql(left)} IS NOT {self._term_sql(right)}"
                for left, right in zip(compare.left, compare.right)
            ]
            if compare.op == "!=":
                self.where.append("(" + " OR ".join(pairs) + ")")
            else:
                equal_pairs = [
                    f"{self._term_sql(left)} IS {self._term_sql(right)}"
                    for left, right in zip(compare.left, compare.right)
                ]
                self.where.append("(" + " AND ".join(equal_pairs) + ")")

        # Lemma 5: positive atoms keyed on the head's identifier are
        # required at that p, negated payload-don't-care atoms forbidden.
        key = self.rule.head.terms[0]
        requires = frozenset(
            self.table_names[atom.pred] for atom in positives if atom.terms[0] == key
        )
        forbids = set()
        for negative in negatives:
            alias = "n"
            columns = ("p", *self.table_columns[negative.pred])
            constraints = []
            for term, column in zip(negative.terms, columns):
                reference = f"{alias}.{quote_identifier(column)}"
                if isinstance(term, Const):
                    if term.value is None:
                        constraints.append(f"{reference} IS NULL")
                    else:
                        constraints.append(f"{reference} = {_sql_literal(term.value)}")
                elif term.name in self.var_sources or term.name in self.computed:
                    constraints.append(f"{reference} = {self._term_sql(term)}")
                # otherwise: don't-care position
            body = f"SELECT 1 FROM {self._probed(negative.pred)} {alias}"
            if constraints:
                body += " WHERE " + " AND ".join(constraints)
            self.where.append(f"NOT EXISTS ({body})")
            if negative.terms[0] == key and len(constraints) == 1:
                forbids |= {self.table_names[negative.pred], self._probed(negative.pred)}

        head = tuple(
            (column, self._term_sql(term))
            for term, column in zip(self.rule.head.terms, ("p", *self.head_columns))
        )
        return ViewBranch(
            head=head,
            froms=tuple(self.aliases),
            where=tuple(self.where),
            requires=requires,
            forbids=frozenset(forbids),
            key_preserving=bool(positives)
            and all(atom.terms[0] == key for atom in positives),
        )

    def _probe(self, target: Var, computed: str) -> str:
        """``target``'s stored value where the stored relation holds a row
        at its key ``k``, else ``computed``.  ``CASE WHEN EXISTS``, not
        ``COALESCE``: a stored NULL reads back as NULL — unless ``computed``
        is NULL, when the scalar probe alone is the value."""
        stored = self.stored
        column = self.table_columns[stored.pred][stored.terms.index(target) - 1]
        match = (
            f"FROM {self._probed(stored.pred)} n "
            f"WHERE n.p = {self._term_sql(stored.terms[0])}"
        )
        if computed == "NULL":
            return f"(SELECT n.{quote_identifier(column)} {match})"
        return (
            f"CASE WHEN EXISTS (SELECT 1 {match}) "
            f"THEN (SELECT n.{quote_identifier(column)} {match}) "
            f"ELSE {computed} END"
        )

    def _probed(self, pred: str) -> str:
        """The relation a ``NOT EXISTS`` or stored-value probe of ``pred``
        reads: its probe name where one is given, else its table name."""
        return self.probe_names.get(pred, self.table_names[pred])

    def _column_var(self, column: str) -> str:
        # Assign expressions refer to source columns by name; the SMO rule
        # builders name variables x0..xn in column order, so map through
        # the first positive atom's binding.
        for atom in self.rule.body_atoms(positive=True):
            columns = ("p", *self.table_columns[atom.pred])
            for term, col in zip(atom.terms, columns):
                if col == column and isinstance(term, Var):
                    return term.name
        raise BackendError(f"column {column!r} not bound by any positive literal")


def _stored_or_computed(stored: Rule, computed: Rule) -> tuple[Rule, Atom] | None:
    """``(merged rule, X)`` when the two rules are one value read two ways:

        H ← S, X(k, b…)              H ← S, b… = f(…), ¬X(k, _…)

    with the same head and the same rest ``S``, whose positive atoms are
    all keyed on the head's ``p``, ``k`` the head's ``p`` or a variable
    of ``S`` (an FK), and ``b…`` occurring nowhere in ``S``.  X is keyed
    like every relation here, so each row of ``S`` yields exactly one of
    the two heads: the merged rule is the second without ``¬X``, its
    bindings reading X's value at ``k`` where X holds one."""
    if stored.head != computed.head:
        return None
    key = stored.head.terms[0]
    for probe in stored.body_atoms(positive=True):
        at = probe.terms[0]
        payload = [term.name for term in probe.terms[1:] if not is_wildcard(term)]
        rest = [lit for lit in stored.body if lit is not probe]

        def absent(lit) -> bool:
            return (
                isinstance(lit, Atom)
                and (lit.pred, lit.terms[0], lit.positive) == (probe.pred, at, False)
                and all(is_wildcard(term) for term in lit.terms[1:])
            )

        def binding(lit) -> bool:
            return isinstance(lit, Assign) and lit.target.name in payload

        bindings = [lit.target.name for lit in computed.body if binding(lit)]
        positives = [lit for lit in rest if isinstance(lit, Atom) and lit.positive]
        if (
            (at == key or any(at in lit.terms for lit in positives))
            and all(isinstance(term, Var) for term in probe.terms[1:])
            and len(payload) == len(bindings) > 0
            and set(bindings) == set(payload)
            and sum(map(absent, computed.body)) == 1
            and not any(lit.variables() & set(payload) for lit in rest)
            and all(lit.terms[0] == key for lit in positives)
            and [lit for lit in computed.body if not (absent(lit) or binding(lit))] == rest
        ):
            merged = tuple(lit for lit in computed.body if not absent(lit))
            return Rule(computed.head, merged), probe
    return None


def select_sql_for_rules(
    head_pred: str,
    rules: RuleSet,
    *,
    table_names: Mapping[str, str],
    table_columns: Mapping[str, tuple[str, ...]],
    head_columns: tuple[str, ...],
    probe_names: Mapping[str, str] | None = None,
) -> str:
    """A bare ``SELECT`` (UNION of the branches of :func:`branches_for_rules`)
    deriving ``head_pred``: the nested view emission and MATERIALIZE's aux
    derivations."""
    branches = branches_for_rules(
        head_pred,
        rules,
        table_names=table_names,
        table_columns=table_columns,
        head_columns=head_columns,
        probe_names=probe_names,
    )
    return compound_sql(branches, len(branches) == 1 and key_disjoint(branches))


def branches_for_rules(
    head_pred: str,
    rules: RuleSet,
    *,
    table_names: Mapping[str, str],
    table_columns: Mapping[str, tuple[str, ...]],
    head_columns: tuple[str, ...],
    probe_names: Mapping[str, str] | None = None,
) -> list[ViewBranch]:
    """The structured UNION branches deriving ``head_pred``: one per rule,
    and one per stored-or-computed pair (:func:`_stored_or_computed`),
    which reads the stored value through a probe instead of scanning the
    rest of the body twice.  The backend's view composer flattens these
    along the SMO chain.

    ``probe_names`` maps a predicate to the relation its key probes read
    instead of its table name (one holding the same rows: a physical
    table version's data table for its pass-through view); a ``forbids``
    fact names both."""
    pending = list(rules.rules_for(head_pred))
    # A helper reads relations only to test for rows, so through their
    # probe names; its own columns are numbered.
    helper_names = {**table_names, **(probe_names or {})}
    table_names, table_columns = dict(table_names), dict(table_columns)
    for pred in {atom.pred for rule in pending for atom in rule.body_atoms()}:
        helper = rules.rules_for(pred)
        if helper and pred not in table_names:
            table_columns[pred] = tuple(f"c{i}" for i in range(1, len(helper[0].head.terms)))
            table_names[pred] = "(" + " UNION ALL ".join(
                _Subquery(rule, helper_names, table_columns, table_columns[pred], prefix="h")
                .branch().sql()
                for rule in helper
            ) + ")"
    branches = []
    while pending:
        rule, stored = pending.pop(0), None
        for other in pending:
            pair = _stored_or_computed(rule, other) or _stored_or_computed(other, rule)
            if pair is not None:
                pending.remove(other)
                rule, stored = pair
                break
        branches.append(
            _Subquery(
                rule, table_names, table_columns, head_columns, stored, probe_names
            ).branch()
        )
    if not branches:
        raise BackendError(f"no rules derive {head_pred!r}")
    return branches
