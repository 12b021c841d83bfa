"""Matching Datalog rules modulo variable renaming, for the proofs.

The prover (:mod:`repro.datalog.simplify`, :mod:`repro.datalog.compose`)
works on the same :mod:`repro.datalog.ast` rules the SMOs compile into
views and triggers. It treats every literal as a *shape* plus a tuple of
terms (:func:`literal_shape`, :func:`literal_terms`): a condition is an
opaque literal keyed by its expression, an ``Assign`` one keyed by its
function, and ``Const(None)`` is the paper's null filler ``ω``.

The central primitive is :func:`find_renaming`, used by the tautology
lemma, rule deduplication, case analysis and subsumption.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.datalog.ast import (
    Assign,
    Atom,
    Compare,
    CondLit,
    Const,
    Literal,
    Rule,
    Subst,
    Term,
    Var,
)

OMEGA = Const(None)

_fresh_counter = itertools.count()


def fresh_var(stem: str = "v") -> Var:
    return Var(f"{stem}#{next(_fresh_counter)}")


def complement(literal: Literal) -> Optional[Literal]:
    return None if isinstance(literal, Assign) else literal.negated()


def literal_shape(literal: Literal) -> tuple:
    """Everything about ``literal`` except its terms."""
    if isinstance(literal, Atom):
        return ("atom", literal.pred, literal.positive, len(literal.terms))
    if isinstance(literal, CondLit):
        names = tuple(name for name, _ in literal.columns)
        return ("cond", literal.expression, names, literal.positive)
    if isinstance(literal, Compare):
        return ("cmp", literal.op, len(literal.left))
    key = literal.expression if literal.expression is not None else literal.label
    return ("assign", key, len(literal.args))


def literal_terms(literal: Literal) -> tuple[Term, ...]:
    if isinstance(literal, Compare):
        return literal.left + literal.right
    if isinstance(literal, Assign):
        return (literal.target, *literal.args)
    return literal.terms


def rename_apart(rule: Rule, taken: set[str]) -> Rule:
    """Rename every variable of ``rule`` clashing with ``taken`` to a fresh one."""
    subst = {name: fresh_var("r") for name in rule.variables() if name in taken}
    return rule.substitute(subst) if subst else rule


def without(rule: Rule, literal: Literal) -> tuple[Literal, ...]:
    """``rule``'s body less one occurrence of ``literal``."""
    body = list(rule.body)
    body.remove(literal)
    return tuple(body)


# ---------------------------------------------------------------------------
# Matching modulo renaming
# ---------------------------------------------------------------------------


def _match_terms(
    pattern: tuple[Term, ...],
    target: tuple[Term, ...],
    subst: dict[str, Term],
    used: set[str],
    *,
    bijective: bool,
) -> Optional[dict[str, Term]]:
    """Extend ``subst`` so pattern terms map onto target terms."""
    if len(pattern) != len(target):
        return None
    extended = dict(subst)
    extended_used = set(used)
    for p_term, t_term in zip(pattern, target):
        if isinstance(p_term, Const):
            if p_term != t_term:
                return None
            continue
        bound = extended.get(p_term.name)
        if bound is None:
            if bijective and isinstance(t_term, Var) and t_term.name in extended_used:
                return None
            extended[p_term.name] = t_term
            if isinstance(t_term, Var):
                extended_used.add(t_term.name)
        elif bound != t_term:
            return None
    used.clear()
    used.update(extended_used)
    subst.clear()
    subst.update(extended)
    return subst


def _match_literal(
    pattern: Literal,
    target: Literal,
    subst: dict[str, Term],
    used: set[str],
    *,
    bijective: bool,
) -> Optional[dict[str, Term]]:
    if literal_shape(pattern) != literal_shape(target):
        return None
    candidate_orders = [literal_terms(target)]
    if isinstance(target, Compare):
        # comparisons are symmetric; try the swapped orientation too.
        candidate_orders.append(target.right + target.left)
    for t_terms in candidate_orders:
        trial_subst = dict(subst)
        trial_used = set(used)
        if _match_terms(
            literal_terms(pattern), t_terms, trial_subst, trial_used, bijective=bijective
        ) is not None:
            subst.clear()
            subst.update(trial_subst)
            used.clear()
            used.update(trial_used)
            return subst
    return None


def match_body(
    pattern_body: Iterable[Literal],
    target_body: Iterable[Literal],
    subst: dict[str, Term],
    used: set[str],
    *,
    exact: bool,
    bijective: bool,
) -> Optional[dict[str, Term]]:
    """Match the pattern literals onto (a subset of) the target literals.

    ``exact`` requires a perfect pairing (both multisets fully consumed);
    otherwise a subset embedding suffices (used for subsumption checks).
    Backtracking search — bodies are small (≤ ~8 literals) by construction.
    """
    pattern = list(pattern_body)
    target = list(target_body)
    if exact and len(pattern) != len(target):
        return None

    def backtrack(
        remaining: list[Literal],
        available: list[Literal],
        current: dict[str, Term],
        current_used: set[str],
    ) -> Optional[dict[str, Term]]:
        if not remaining:
            if exact and available:
                return None
            return current
        literal = remaining[0]
        for index, candidate in enumerate(available):
            trial = dict(current)
            trial_used = set(current_used)
            if _match_literal(literal, candidate, trial, trial_used, bijective=bijective) is None:
                continue
            result = backtrack(
                remaining[1:], available[:index] + available[index + 1 :], trial, trial_used
            )
            if result is not None:
                return result
        return None

    result = backtrack(pattern, target, dict(subst), set(used))
    if result is not None:
        subst.clear()
        subst.update(result)
    return result


def find_renaming(pattern: Rule, target: Rule, *, exact: bool = True) -> Optional[Subst]:
    """Find a variable renaming mapping ``pattern`` onto ``target``.

    With ``exact=True`` the bodies must correspond one-to-one (rule equality
    modulo renaming); with ``exact=False`` the pattern body only needs to
    embed into the target body (``pattern`` subsumes ``target``).
    """
    subst: dict[str, Term] = {}
    used: set[str] = set()
    if _match_literal(pattern.head, target.head, subst, used, bijective=exact) is None:
        return None
    return match_body(pattern.body, target.body, subst, used, exact=exact, bijective=exact)
