"""The paper's simplification Lemmas 1–5 as rule-set transformations.

Section 5 proves bidirectionality by composing the two mapping rule sets of
an SMO and simplifying the composition to the identity rule set. The lemmas
implemented here are exactly the paper's tool kit:

- **Lemma 1 (Deduction)** — unfolding a derived literal by its defining
  rules (positive and negative case) lives in :mod:`repro.datalog.compose`.
- **Lemma 2 (Empty predicate)** — :func:`drop_empty_predicates`.
- **Lemma 3 (Tautology)** — :func:`tautology_merge_pass`, including the
  equality variant the paper uses to rewrite Rule 118 into Rule 121.
- **Lemma 4 (Contradiction)** — :func:`normalize_rule` returns ``None``.
- **Lemma 5 (Unique key)** — first-argument unification inside
  :func:`normalize_rule`.

Additionally `:func:`subsumption_pass`` removes rules implied by more
general ones (used implicitly in Appendix A, e.g. Rules 107/109 subsumed by
Rule 108) and :func:`case_merge_pass` performs the closing case analysis
over ``ω``-comparisons under :func:`omega_completeness_axiom` (the paper's
implicit assumption that a stored row is never entirely ``ω``).

The rules are :mod:`repro.datalog.ast` rules — the ones the SMOs compile
into views and triggers — and ``ω`` is ``Const(None)``.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from itertools import product

from repro.datalog.ast import Assign, Atom, Compare, CondLit, Const, Literal, Rule, Term, Var
from repro.datalog.symbolic import (
    OMEGA,
    complement,
    find_renaming,
    fresh_var,
    literal_shape,
    literal_terms,
    without,
)

Trace = list[str]


def _note(trace: Trace | None, message: str) -> None:
    if trace is not None:
        trace.append(message)


# ---------------------------------------------------------------------------
# Per-rule normalization (Lemmas 4 and 5, ground comparisons, dedup)
# ---------------------------------------------------------------------------


def _is_anon_name(name: str) -> bool:
    return name.startswith("_") or "#" in name


def _variable_counts(head_terms: Sequence[Term], body: Sequence[Literal]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for term in (*head_terms, *(t for literal in body for t in literal_terms(literal))):
        if isinstance(term, Var):
            counts[term.name] = counts.get(term.name, 0) + 1
    return counts


def _oriented(left: Term, right: Term) -> tuple[Term, Term]:
    """One side of a comparison: a constant goes right, variables in name order."""
    if isinstance(left, Const) or (isinstance(right, Var) and left.name > right.name):
        return right, left
    return left, right


def _compare(op: str, pairs: Iterable[tuple[Term, Term]]) -> Compare:
    """The comparison of ``pairs`` in normal form (oriented, sorted, no repeats)."""
    ordered = sorted({_oriented(*pair) for pair in pairs}, key=str)
    return Compare(op, tuple(l for l, _ in ordered), tuple(r for _, r in ordered))


def _pairs(compare: Compare) -> list[tuple[Term, Term]]:
    return list(zip(compare.left, compare.right))


def _literal_key(literal: Literal, counts: dict[str, int]) -> tuple:
    """Canonical key treating variables occurring only once in the rule as
    interchangeable — ``¬R(p, _)`` and ``¬R(p, X)`` with local ``X`` denote
    the same NOT-EXISTS check."""

    def canon(term: Term) -> object:
        if isinstance(term, Var) and counts.get(term.name, 0) <= 1:
            return "•"
        return term

    return (literal_shape(literal), tuple(canon(t) for t in literal_terms(literal)))


def _dedup_body(head_terms: Sequence[Term], body: Sequence[Literal]) -> tuple[Literal, ...]:
    counts = _variable_counts(head_terms, body)
    seen_keys: set[tuple] = set()
    kept: list[Literal] = []
    for literal in body:
        if isinstance(literal, Compare):
            literal = _compare(literal.op, _pairs(literal))
        key = _literal_key(literal, counts)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        kept.append(literal)
    return tuple(kept)


def _unify_unique_keys(rule: Rule) -> Rule | None:
    """Lemma 5: positive atoms of one predicate sharing their key term have
    all remaining terms pairwise equal; unify them by substitution."""
    changed = True
    while changed:
        changed = False
        atoms = [lit for lit in rule.body if isinstance(lit, Atom) and lit.positive]
        for i, first in enumerate(atoms):
            for second in atoms[i + 1 :]:
                if first.pred != second.pred or not first.terms or not second.terms:
                    continue
                if first.terms[0] != second.terms[0]:
                    continue
                for t1, t2 in zip(first.terms[1:], second.terms[1:]):
                    if t1 == t2:
                        continue
                    # Prefer replacing anonymous variables by named ones so
                    # rule heads keep their readable variable names.
                    if isinstance(t2, Var) and isinstance(t1, Var) and _is_anon_name(t1.name):
                        rule = rule.substitute({t1.name: t2})
                    elif isinstance(t2, Var):
                        rule = rule.substitute({t2.name: t1})
                    elif isinstance(t1, Var):
                        rule = rule.substitute({t1.name: t2})
                    else:
                        return None  # two different constants: contradiction
                    changed = True
                    break
                if changed:
                    break
            if changed:
                break
    return rule


def _binding(literal: Literal) -> tuple[Var, Const] | None:
    """``(x, c)`` when ``literal`` is the normalized scalar equality ``x = c``."""
    if isinstance(literal, Compare) and literal.op == "=" and len(literal.left) == 1:
        left, right = literal.left[0], literal.right[0]
        if isinstance(left, Var) and isinstance(right, Const):
            return left, right
    return None


def _bound_var(literal: Literal) -> Var | None:
    """The variable a binding fixes: ``x`` of ``x = c`` or of ``x = f(…)``."""
    if isinstance(literal, Assign):
        return literal.target
    binding = _binding(literal)
    return binding[0] if binding else None


def _is_contradictory(body: Sequence[Literal]) -> bool:
    """Lemma 4, including the wildcard-aware atom case: a positive atom
    witnesses existence, so a negative atom whose terms each equal the
    positive atom's term (or are free local variables) contradicts it."""
    positives = [l for l in body if isinstance(l, Atom) and l.positive]
    negatives = [l for l in body if isinstance(l, Atom) and not l.positive]
    bound: set[str] = set()
    for literal in positives:
        bound |= literal.variables()
    for negative in negatives:
        for positive in positives:
            if negative.pred != positive.pred or len(negative.terms) != len(positive.terms):
                continue
            if all(
                n_term == p_term
                or (isinstance(n_term, Var) and n_term.name not in bound)
                for n_term, p_term in zip(negative.terms, positive.terms)
            ):
                return True
    if any(l.negated() in body for l in body if isinstance(l, CondLit)):
        return True
    # A tuple ``≠`` is false when every one of its components is equal.
    equal = {
        _oriented(*pair)
        for l in body
        if isinstance(l, Compare) and l.op == "=" and len(l.left) == 1
        for pair in _pairs(l)
    }
    return any(
        isinstance(l, Compare) and l.op == "!=" and all(_oriented(*pair) in equal for pair in _pairs(l))
        for l in body
    )


def normalize_rule(rule: Rule) -> Rule | None:
    """Normalize one rule; ``None`` means the rule can never fire (Lemma 4)."""
    while True:
        before = rule
        # A tuple ``=`` splits into scalar equalities; variable-to-variable
        # ones are substituted (one per round), ``var = constant`` stays a
        # literal for the closing case merge. Equal components of a ``≠``
        # are dropped.
        body: list[Literal] = []
        substitution: tuple[str, Term] | None = None
        for literal in rule.body:
            if not isinstance(literal, Compare):
                body.append(literal)
                continue
            pairs = [_oriented(l, r) for l, r in _pairs(literal) if l != r]
            ground_differs = any(isinstance(l, Const) for l, _ in pairs)
            if literal.op == "!=":
                if ground_differs:
                    continue  # trivially true
                if not pairs:
                    return None
                body.append(_compare("!=", pairs))
                continue
            if ground_differs:
                return None
            for left, right in pairs:
                if isinstance(right, Var) and substitution is None:
                    substitution = (right.name, left)
                else:
                    body.append(_compare("=", [(left, right)]))
        # A binding of a variable that occurs nowhere else is trivially
        # satisfiable: ``x = c``, or ``x = f(…)`` as ``f`` is total.
        counts = _variable_counts(rule.head.terms, body)
        rule = Rule(
            rule.head,
            tuple(
                literal
                for literal in body
                if (var := _bound_var(literal)) is None or counts.get(var.name, 0) > 1
            ),
        )
        if substitution is not None:
            rule = rule.substitute({substitution[0]: substitution[1]})
        unified = _unify_unique_keys(rule)
        if unified is None:
            return None
        rule = Rule(unified.head, _dedup_body(unified.head.terms, unified.body))
        if _is_contradictory(rule.body):
            return None
        if rule == before:
            return rule


# ---------------------------------------------------------------------------
# Lemma 2
# ---------------------------------------------------------------------------


def drop_empty_predicates(
    rules: Iterable[Rule], empty: set[str], trace: Trace | None = None
) -> list[Rule]:
    """Lemma 2: rules with a positive literal on an empty predicate vanish;
    negative literals on empty predicates are trivially true."""
    result: list[Rule] = []
    for rule in rules:
        body: list[Literal] = []
        dead = False
        for literal in rule.body:
            if isinstance(literal, Atom) and literal.pred in empty:
                if literal.positive:
                    dead = True
                    break
                continue
            body.append(literal)
        if dead:
            _note(trace, f"Lemma 2: removed (empty predicate): {rule}")
            continue
        if len(body) != len(rule.body):
            _note(trace, f"Lemma 2: pruned empty-predicate negations in: {rule}")
        if body:
            result.append(Rule(rule.head, tuple(body)))
        else:
            result.append(rule)
    return result


# ---------------------------------------------------------------------------
# Lemma 3 (tautology), incl. the equality variant, and subsumption
# ---------------------------------------------------------------------------


def _exact_complements(
    mapped: Literal,
    partner: Literal,
    *,
    local_pattern: set[str],
    local_target: set[str],
) -> bool:
    """True when ``mapped`` is exactly the complement literal ``partner``,
    allowing renaming only between variables local to their rules.

    This strictness matters for soundness: ``R(p, A)`` with ``A`` bound
    elsewhere is *stronger* than ``∃x R(p, x)`` and must not be treated as
    the complement of ``¬R(p, _)``.
    """
    if literal_shape(mapped) != literal_shape(partner):
        return False
    pairing: dict[str, str] = {}
    for m_term, p_term in zip(literal_terms(mapped), literal_terms(partner)):
        if m_term == p_term:
            continue
        if (
            isinstance(m_term, Var)
            and isinstance(p_term, Var)
            and m_term.name in local_pattern
            and p_term.name in local_target
        ):
            bound = pairing.setdefault(m_term.name, p_term.name)
            if bound != p_term.name:
                return False
            continue
        return False
    return True


def _try_tautology_merge(first: Rule, second: Rule) -> Rule | None:
    """If the rules agree on all but one complementary literal pair, return
    the merged rule with that literal dropped (Lemma 3)."""
    if len(first.body) != len(second.body) or len(first.body) < 2:
        return None
    for literal in first.body:
        partner = complement(literal)
        if partner is None:
            continue
        reduced_first = Rule(first.head, without(first, literal))
        shared_first = reduced_first.variables()
        local_target = literal.variables() - shared_first
        for candidate in second.body:
            if complement(candidate) is None:
                continue
            reduced_second = Rule(second.head, without(second, candidate))
            theta = find_renaming(reduced_second, reduced_first, exact=True)
            if theta is None:
                continue
            local_pattern = candidate.variables() - reduced_second.variables()
            if _exact_complements(
                candidate.substitute(theta),
                partner,
                local_pattern=local_pattern,
                local_target=local_target,
            ):
                return normalize_rule(reduced_first)
    return None


def _try_equality_merge(general: Rule, special: Rule) -> Rule | None:
    """The paper's Rule-118→121 move: ``H ← B, X≠Y`` merges with the rule
    obtained from ``H ← B`` by unifying ``X`` and ``Y`` component-wise;
    the result is ``H ← B`` with ``X`` and ``Y`` independent."""
    if len(general.body) != len(special.body) + 1:
        return None
    for literal in general.body:
        if not isinstance(literal, Compare) or literal.op != "!=":
            continue
        if not all(isinstance(term, Var) for term in literal_terms(literal)):
            continue
        candidate = Rule(general.head, without(general, literal))
        unified = normalize_rule(
            candidate.substitute({r.name: l for l, r in _pairs(literal)})
        )
        if unified is None:
            continue
        if find_renaming(unified, special, exact=True) is not None:
            return normalize_rule(candidate)
    return None


def tautology_merge_pass(rules: list[Rule], trace: Trace | None = None) -> list[Rule]:
    changed = True
    while changed:
        changed = False
        for i, first in enumerate(rules):
            for j, second in enumerate(rules):
                if i >= j or first.head.pred != second.head.pred:
                    continue
                merged = _try_tautology_merge(first, second)
                if merged is None:
                    merged = _try_equality_merge(first, second)
                if merged is None:
                    merged = _try_equality_merge(second, first)
                if merged is not None:
                    _note(trace, f"Lemma 3: merged\n    {first}\n    {second}\n  into {merged}")
                    rules = [r for k, r in enumerate(rules) if k not in (i, j)]
                    rules.append(merged)
                    changed = True
                    break
            if changed:
                break
    return rules


def subsumption_pass(rules: list[Rule], trace: Trace | None = None) -> list[Rule]:
    """Remove rules whose body is a superset of a more general same-head rule
    (e.g. Appendix A Rules 107 and 109 subsumed by Rule 108), and duplicate
    rules modulo renaming."""
    kept: list[Rule] = []
    for rule in rules:
        subsumed = False
        for other in rules:
            if other is rule or other.head.pred != rule.head.pred:
                continue
            if len(other.body) > len(rule.body):
                continue
            if len(other.body) == len(rule.body):
                # duplicates: keep only the first occurrence
                if rules.index(other) < rules.index(rule) and find_renaming(
                    other, rule, exact=True
                ):
                    subsumed = True
                    break
                continue
            if find_renaming(other, rule, exact=False) is not None:
                subsumed = True
                break
        if subsumed:
            _note(trace, f"Subsumption: removed {rule}")
        else:
            kept.append(rule)
    return kept


# ---------------------------------------------------------------------------
# Closing case analysis over ω-comparisons
# ---------------------------------------------------------------------------

CaseAtom = tuple[Term, Const]


def omega_completeness_axiom(rule: Rule, stored: Collection[str]) -> list[frozenset[CaseAtom]]:
    """Domain axiom: no stored data row has *all* payload parts equal ``ω``.

    This is the paper's implicit assumption behind the outer-join null
    fillers: a tuple that is entirely null filler would not exist. Returns,
    per stored atom of ``rule``, the case atoms that cannot all hold.
    """
    return [
        frozenset((term, OMEGA) for term in literal.terms[1:])
        for literal in rule.body
        if isinstance(literal, Atom)
        and literal.positive
        and literal.pred in stored
        and len(literal.terms) > 1
    ]


def _split_case_literals(rule: Rule) -> tuple[Rule, list[Compare]]:
    """``rule`` less its ``terms (=|≠) constants`` literals, and those literals."""
    base_body: list[Literal] = []
    cases: list[Compare] = []
    for literal in rule.body:
        if isinstance(literal, Compare) and all(isinstance(t, Const) for t in literal.right):
            cases.append(literal)
        else:
            base_body.append(literal)
    return Rule(rule.head, tuple(base_body)), cases


def _holds(case: Compare, truth: dict[CaseAtom, bool]) -> bool:
    return all(truth[atom] for atom in _pairs(case)) == (case.op == "=")


def generalize_head_constants(rule: Rule) -> Rule:
    """Replace each constant in the head by a variable the body binds to it,
    so case analysis can line the rule up with its constant-free siblings.

    Of several such variables the one in the same position of a body atom
    is taken (``R(p, a, ω, ω) ← R_D(p, a, b0, b1), b0 = ω, b1 = ω`` becomes
    ``R(p, a, b0, b1) ← …``); without one, a fresh variable is bound."""
    bound = [binding for binding in map(_binding, rule.body) if binding]
    atoms = [lit for lit in rule.body if isinstance(lit, Atom) and lit.positive]
    new_terms: list[Term] = []
    extra: list[Literal] = []
    for position, term in enumerate(rule.head.terms):
        if isinstance(term, Const):
            in_place = {atom.terms[position] for atom in atoms if position < len(atom.terms)}
            options = sorted(
                (var for var, const in bound if const == term), key=lambda var: var not in in_place
            )
            if options:
                term = options[0]
            else:
                var = fresh_var("h")
                extra.append(Compare("=", (var,), (term,)))
                term = var
        new_terms.append(term)
    return Rule(Atom(rule.head.pred, tuple(new_terms)), rule.body + tuple(extra))


def case_merge_pass(
    rules: list[Rule],
    stored: Collection[str] = (),
    trace: Trace | None = None,
) -> list[Rule]:
    """Merge a group of rules that differ only in ``term (=|≠) const``
    literals when together they cover every case the ω completeness axiom
    over the ``stored`` predicates allows."""
    prepared = [normalize_rule(generalize_head_constants(rule)) for rule in rules]
    work = [rule for rule in prepared if rule is not None]
    result: list[Rule] = []
    consumed: set[int] = set()
    for i, rule in enumerate(work):
        if i in consumed:
            continue
        base, cases = _split_case_literals(rule)
        if not cases:
            result.append(rule)
            continue
        group: list[tuple[int, list[Compare]]] = [(i, cases)]
        for j in range(i + 1, len(work)):
            if j in consumed:
                continue
            other_base, other_cases = _split_case_literals(work[j])
            theta = find_renaming(other_base, base, exact=True)
            if theta is None:
                continue
            group.append((j, [case.substitute(theta) for case in other_cases]))
        atoms: list[CaseAtom] = sorted(
            {atom for _, cases_ in group for case in cases_ for atom in _pairs(case)},
            key=str,
        )
        impossible = [
            axiom for axiom in omega_completeness_axiom(base, stored) if axiom <= set(atoms)
        ]
        complete = True
        for assignment in product((False, True), repeat=len(atoms)):
            truth = dict(zip(atoms, assignment))
            if any(all(truth[atom] for atom in axiom) for axiom in impossible):
                continue
            if not any(all(_holds(case, truth) for case in cases_) for _, cases_ in group):
                complete = False
                break
        if complete:
            merged = normalize_rule(base)
            if merged is not None:
                _note(
                    trace,
                    "Case analysis: merged "
                    + ", ".join(str(work[k]) for k, _ in group)
                    + f"\n  into {merged}",
                )
                result.append(merged)
                consumed.update(k for k, _ in group)
                continue
        result.append(rule)
    return result


# ---------------------------------------------------------------------------
# Full simplification driver
# ---------------------------------------------------------------------------


def _apply_domain_knowledge(rule: Rule, stored: Collection[str]) -> Rule | None:
    """*ω-freeness*, which the paper uses implicitly: no stored data row is
    all null filler ``ω``. So for a stored atom ``q(p, T)``, ``T = (ω, …)``
    is contradictory and ``(…, T, …) ≠ (ω, …)`` is implied."""
    payloads = [
        {term for term, _ in axiom} for axiom in omega_completeness_axiom(rule, stored)
    ]
    equal_omega = {
        binding[0] for binding in map(_binding, rule.body) if binding and binding[1] == OMEGA
    }
    if any(payload <= equal_omega for payload in payloads):
        return None
    body = tuple(
        literal
        for literal in rule.body
        if not (
            isinstance(literal, Compare)
            and literal.op == "!="
            and all(term == OMEGA for term in literal.right)
            and any(payload <= set(literal.left) for payload in payloads)
        )
    )
    return rule if len(body) == len(rule.body) else Rule(rule.head, body)


def simplify_rules(
    rules: Iterable[Rule],
    *,
    stored: Collection[str] = (),
    trace: Trace | None = None,
    max_rounds: int = 40,
) -> list[Rule]:
    """Apply Lemmas 3–5, subsumption, and the closing case analysis until a
    fixpoint is reached (:func:`~repro.datalog.compose.compose_round_trip`
    has applied Lemma 2). ``stored`` names the stored data predicates, none
    of which holds an all-``ω`` row."""
    current = list(rules)
    for _ in range(max_rounds):
        before = list(current)
        normalized: list[Rule] = []
        for rule in current:
            clean = normalize_rule(rule)
            if clean is not None:
                clean = _apply_domain_knowledge(clean, stored)
                if clean is not None:
                    clean = normalize_rule(clean)
            if clean is None:
                _note(trace, f"Lemma 4: removed contradictory rule: {rule}")
            else:
                normalized.append(clean)
        current = subsumption_pass(normalized, trace)
        current = tautology_merge_pass(current, trace)
        current = subsumption_pass(current, trace)
        current = case_merge_pass(current, stored, trace)
        current = subsumption_pass(current, trace)
        if current == before:
            break
    return current
