"""Lemma 1 (Deduction) and round-trip composition of mapping rule sets.

The bidirectionality proofs of Section 5 / Appendix A work as follows: take
the rule set applied first (say ``γ_tgt`` reading from the stored source
data ``T_D``), simplify it under Lemma 2 (the other side's auxiliary tables
are empty), then *unfold* its derived predicates into the second rule set
(``γ_src``) using Lemma 1. The result expresses the round trip directly over
the stored data tables and is then reduced with Lemmas 2–5.

Lemma 1's negative case relies on the unique key ``p``: because every
predicate has at most one fact per key, ``¬∃X body(p, X)`` distributes into
the per-literal alternatives ``t(K)`` the paper defines (footnote 1).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from repro.datalog.ast import Assign, Atom, Compare, Literal, Rule, Term, Var
from repro.datalog.simplify import drop_empty_predicates, normalize_rule
from repro.datalog.symbolic import find_renaming, rename_apart, without
from repro.errors import DatalogError


def _rename_for_literal(defining: Rule, literal: Atom, taken: set[str]) -> Rule | None:
    """Rename ``defining`` so its head lines up with ``literal``'s terms.

    Head variables are substituted by the literal's terms; head *constants*
    must instead bind the literal's variables, which is performed on the
    caller's rule, so we return the defining rule plus that extra binding
    encoded as trailing ``=`` literals.
    """
    renamed = rename_apart(defining, taken | literal.variables())
    subst: dict[str, Term] = {}
    bindings: list[Literal] = []
    for head_term, lit_term in zip(renamed.head.terms, literal.terms):
        if isinstance(head_term, Var):
            existing = subst.setdefault(head_term.name, lit_term)
            if existing != lit_term:
                bindings.append(Compare("=", (existing,), (lit_term,)))
        elif isinstance(lit_term, Var):
            # Head constant (e.g. ω): the literal's term must equal it.
            bindings.append(Compare("=", (lit_term,), (head_term,)))
        elif lit_term != head_term:
            return None  # constant clash: this defining rule cannot apply
    aligned = renamed.substitute(subst)
    return Rule(aligned.head, aligned.body + tuple(bindings))


def _negative_alternatives(defining_body: Sequence[Literal]) -> list[list[Literal]]:
    """The paper's ``t(K)`` options for negating one defining-rule body."""
    alternatives: list[list[Literal]] = []
    atoms = [lit for lit in defining_body if isinstance(lit, Atom) and lit.positive]
    for literal in defining_body:
        if isinstance(literal, Assign):
            raise DatalogError(
                "cannot negate a rule body containing a function binding "
                f"({literal}); use the runtime lens checks instead"
            )
        if isinstance(literal, Atom):
            # ¬q for a positive atom (its local variables become "don't
            # care"), and the positive atom for ¬(¬q).
            alternatives.append([literal.negated()])
        else:
            support = [atom for atom in atoms if atom.variables() & literal.variables()]
            alternatives.append([*support, literal.negated()])
    return alternatives


def unfold_literal(rule: Rule, literal: Atom, definitions: list[Rule]) -> list[Rule]:
    """Lemma 1: replace ``literal`` in ``rule`` by its definitions."""
    rest = without(rule, literal)
    taken = rule.variables()
    if literal.positive:
        return [
            Rule(rule.head, rest + aligned.body)
            for defining in definitions
            if (aligned := _rename_for_literal(defining, literal, taken)) is not None
        ]

    # Negative literal: all defining rules must fail simultaneously, so take
    # the cross product of each rule's per-literal alternatives. Defining
    # rules are renamed apart from each other so their local variables do
    # not collide inside one combination.
    alternative_sets: list[list[list[Literal]]] = []
    for defining in definitions:
        aligned = _rename_for_literal(defining, literal, taken)
        if aligned is None:
            continue  # cannot produce a matching head: trivially fails
        taken |= aligned.variables()
        alternative_sets.append(_negative_alternatives(aligned.body))
    if not alternative_sets:
        return [Rule(rule.head, rest)]
    return [
        Rule(rule.head, rest + tuple(lit for option in combination for lit in option))
        for combination in product(*alternative_sets)
    ]


def unfold_all(
    rules: Iterable[Rule],
    definitions: Iterable[Rule],
    *,
    max_rounds: int = 20,
) -> list[Rule]:
    """Unfold every literal referring to a predicate defined in
    ``definitions`` until only extensional predicates remain."""
    definition_list = list(definitions)
    defined = {rule.head.pred for rule in definition_list}
    current = list(rules)
    for _ in range(max_rounds):
        progressed = False
        next_rules: list[Rule] = []
        for rule in current:
            target = next(
                (lit for lit in rule.body if isinstance(lit, Atom) and lit.pred in defined),
                None,
            )
            if target is None:
                next_rules.append(rule)
                continue
            progressed = True
            own = [d for d in definition_list if d.head.pred == target.pred]
            for expansion in unfold_literal(rule, target, own):
                normalized = normalize_rule(expansion)
                if normalized is not None:
                    next_rules.append(normalized)
        current = next_rules
        if not progressed:
            return current
    raise DatalogError("unfolding did not terminate; rules may be recursive")


def compose_round_trip(
    first: Iterable[Rule],
    second: Iterable[Rule],
    *,
    rename_base: dict[str, str],
    empty_predicates: set[str],
) -> list[Rule]:
    """Build the composed rule set ``second ∘ first`` over stored data.

    ``rename_base`` maps the predicates that are materialized at the start
    of the round trip to their data-table names (e.g. ``{"T": "T_D"}``), and
    ``empty_predicates`` lists the predicates known to be absent on the
    unmaterialized side (Lemma 2).
    """
    prepared_first = [
        Rule(
            rule.head,
            tuple(
                Atom(rename_base[lit.pred], lit.terms, lit.positive)
                if isinstance(lit, Atom) and lit.pred in rename_base
                else lit
                for lit in rule.body
            ),
        )
        for rule in first
    ]
    prepared_first = drop_empty_predicates(prepared_first, empty_predicates)
    prepared_first = [r for r in map(normalize_rule, prepared_first) if r is not None]
    return unfold_all(second, prepared_first)


def identity_rules(pairs: Sequence[tuple[str, str, int]]) -> list[Rule]:
    """The expected post-simplification shape: one identity rule per data
    table, ``pred(p, A...) ← stored(p, A...)``."""
    rules = []
    for pred, stored, arity in pairs:
        terms = (Var("p"), *(Var(f"x{i}") for i in range(arity)))
        rules.append(Rule(Atom(pred, terms), (Atom(stored, terms),)))
    return rules


def is_identity(
    simplified: Iterable[Rule], expected: Sequence[tuple[str, str, int]]
) -> tuple[bool, list[str]]:
    """Check whether the data-table rules of ``simplified`` are exactly the
    identity mapping. Auxiliary-table rules are ignored (the paper's
    ``γ^data`` projection); anything else is reported."""
    problems: list[str] = []
    expected_rules = identity_rules(expected)
    expected_preds = {pred for pred, _, _ in expected}
    relevant = [rule for rule in simplified if rule.head.pred in expected_preds]
    for expectation in expected_rules:
        matches = [rule for rule in relevant if find_renaming(expectation, rule, exact=True)]
        if len(matches) != 1:
            problems.append(
                f"expected exactly one identity rule like '{expectation}', "
                f"found {len(matches)}"
            )
    for rule in relevant:
        if not any(find_renaming(expectation, rule, exact=True) for expectation in expected_rules):
            problems.append(f"unexpected residual rule: {rule}")
    return (not problems, problems)
