"""Bottom-up evaluation of non-recursive Datalog with stratified negation.

The version genealogy is acyclic and no SMO rule set is recursive (the paper
relies on this: "As neither the rules for a single SMO nor the version
genealogy have cycles, there is no recursion at all"), so evaluation is a
single pass over derived predicates in dependency order.

Each rule is planned once: a filter or assignment runs as soon as its
arguments are bound, then the positive atom with the most bound terms,
negated atoms last (safety).  The plan is compiled to one Python function
that probes every atom through a hash index on the positions bound when it
runs.  A rule set keeps its program (``RuleSet.program``), so an SMO instance
evaluating its own rule sets on every read compiles them once.
"""

from __future__ import annotations

import graphlib
from collections.abc import Iterable, Mapping
from operator import itemgetter

from repro.datalog.ast import (
    Assign,
    Atom,
    Compare,
    CondLit,
    Const,
    Fact,
    Literal,
    Rule,
    RuleSet,
    Term,
)
from repro.errors import DatalogError


def _needs(literal: Literal) -> set[str]:
    """The variables that must be bound before ``literal`` can run."""
    if isinstance(literal, Atom):
        return set()  # a positive atom binds, a negated one reads the rest as wildcards
    if isinstance(literal, Assign):
        return {term.name for term in literal.args if not isinstance(term, Const)}
    return literal.variables()


def _plan(rule: Rule) -> list[Literal]:
    """The order the body runs in (fixed once per rule)."""
    bound: set[str] = set()
    rest, order = list(rule.body), []
    while rest:
        ready = [lit for lit in rest if _needs(lit) <= bound]
        if not ready:
            raise DatalogError(f"unsafe rule body: no literal evaluable under {sorted(bound)}")
        pool = [
            lit for lit in ready if not (isinstance(lit, Atom) and not lit.positive)
        ] or ready

        def score(lit: Literal) -> tuple[int, int]:
            if not isinstance(lit, Atom):
                return (0, 0)
            known = sum(1 for t in lit.terms if isinstance(t, Const) or t.name in bound)
            return (1 if lit.positive else 2, -known)

        literal = min(pool, key=score)
        rest.remove(literal)
        order.append(literal)
        if isinstance(literal, Atom) and literal.positive:
            bound |= literal.variables()
        elif isinstance(literal, Assign):
            bound.add(literal.target.name)
    return order


def _compile(rule: Rule):
    """``run(facts, index, add)``: ``add`` every head fact of ``rule``;
    ``facts(pred, ())`` is a predicate's facts, ``index(pred, positions)``
    them by the values at ``positions`` (a tuple, or the one value)."""
    order = _plan(rule)
    env: dict[str, object] = {}
    local: dict[str, str] = {}  # variable -> Python name holding its value
    prologue: list[str] = []  # lines run once per call, then the nested loops
    lines: list[str] = []
    depth = 1

    def ref(value: object) -> str:
        name = f"k{len(env)}"
        env[name] = value
        return name

    def term(t: Term) -> str:
        return ref(t.value) if isinstance(t, Const) else local[t.name]

    def emit(line: str) -> None:
        nonlocal depth
        lines.append("    " * depth + line)
        if line.endswith(":"):
            depth += 1

    def key(terms: tuple[Term, ...], positions: list[int]) -> str:
        parts = [term(terms[j]) for j in positions]
        return parts[0] if len(parts) == 1 else f"({', '.join(parts)})"

    for step, literal in enumerate(order):
        later = rule.head.variables().union(*(lit.variables() for lit in order[step + 1:]))
        if isinstance(literal, Atom):
            terms = literal.terms
            known = [j for j, t in enumerate(terms) if isinstance(t, Const) or t.name in local]
            free: dict[str, list[int]] = {}
            for j, t in enumerate(terms):
                if j not in known:
                    free.setdefault(t.name, []).append(j)
            source = f"r{step}"
            if known:
                prologue.append(f"{source} = index({literal.pred!r}, {tuple(known)!r})")
                rows = f"{source}.get({key(terms, known)}, ())"
            else:
                prologue.append(f"{source} = facts({literal.pred!r}, ())")
                rows = source
            if literal.positive:
                prologue.append(f"if not {source}: return")
                emit(f"for f{step} in {rows}:")
                for name, (first, *again) in free.items():
                    for j in again:
                        emit(f"if f{step}[{j}] == f{step}[{first}]:")
                    if name in later:
                        local[name] = f"v{len(local)}"
                        emit(f"{local[name]} = f{step}[{first}]")
                continue
            repeats = [
                f"f[{j}] == f[{first}]" for first, *again in free.values() for j in again
            ]
            if repeats:
                emit(f"if not any({' and '.join(repeats)} for f in {rows}):")
            elif known:
                emit(f"if {key(terms, known)} not in {source}:")
            else:
                emit(f"if not {source}:")
        elif isinstance(literal, CondLit):
            row = ", ".join(f"{column!r}: {term(t)}" for column, t in literal.columns)
            test = "is" if literal.positive else "is not"
            emit(f"if {ref(literal.expression.evaluate)}({{{row}}}) {test} True:")
        elif isinstance(literal, Compare):
            left = "".join(f"{term(t)}, " for t in literal.left)
            right = "".join(f"{term(t)}, " for t in literal.right)
            emit(f"if ({left}) {'==' if literal.op == '=' else '!='} ({right}):")
        else:  # Assign
            call = f"{ref(literal.function)}({', '.join(term(t) for t in literal.args)})"
            target = literal.target.name
            if target in local:
                emit(f"if {call} == {local[target]}:")
            else:
                local[target] = f"v{len(local)}"
                emit(f"{local[target]} = {call}")
    for t in rule.head.terms:
        if not isinstance(t, Const) and t.name not in local:
            raise DatalogError(f"unbound head variable {t} in rule {rule}")
    emit(f"add(({''.join(term(t) + ', ' for t in rule.head.terms)}))")
    source = "\n".join(
        ["def run(facts, index, add):", *("    " + line for line in prologue), *lines]
    )
    exec(compile(source, "<datalog rule>", "exec"), env)
    return env["run"]


def _dependency_order(rules: RuleSet) -> list[str]:
    derived = set(rules.derived_predicates())
    sorter: graphlib.TopologicalSorter[str] = graphlib.TopologicalSorter()
    for pred in derived:
        deps = set()
        for rule in rules.rules_for(pred):
            for literal in rule.body:
                if isinstance(literal, Atom) and literal.pred in derived:
                    if literal.pred != pred:
                        deps.add(literal.pred)
                    elif literal.positive:
                        raise DatalogError(f"recursive rules for {pred!r} are not supported")
        sorter.add(pred, *deps)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError as exc:
        raise DatalogError(f"cyclic rule dependencies: {exc.args[1]}") from None


def compile_rules(rules: RuleSet) -> list:
    """``[(pred, [compiled rule, ...]), ...]`` in dependency order
    (:attr:`RuleSet.program <repro.datalog.ast.RuleSet.program>` keeps it)."""
    return [
        (pred, [_compile(rule) for rule in rules.rules_for(pred)])
        for pred in _dependency_order(rules)
    ]


def evaluate(
    rules: RuleSet, extensional: Mapping[str, Iterable[Fact]]
) -> dict[str, set[Fact]]:
    """The derived predicates of ``rules`` over the extensional facts.  One
    missing from ``extensional`` is empty (the paper's Lemma 2: the other
    side's aux tables do not exist); a rule negating its own head reads
    that predicate's extensional facts."""
    store: dict[str, Iterable[Fact]] = {
        name: facts if isinstance(facts, (set, frozenset, list, tuple)) else set(facts)
        for name, facts in extensional.items()
    }
    indexes: dict[str, dict[tuple[int, ...], dict]] = {}

    def index(pred: str, positions: tuple[int, ...]) -> dict:
        found = indexes.setdefault(pred, {}).get(positions)
        if found is None:
            found = indexes[pred][positions] = {}
            get = itemgetter(*positions)
            for fact in store.get(pred, ()):
                found.setdefault(get(fact), []).append(fact)
        return found

    derived: dict[str, set[Fact]] = {}
    for pred, compiled in rules.program:
        results: set[Fact] = set()
        for run in compiled:
            run(store.get, index, results.add)
        derived[pred] = store[pred] = results
        indexes.pop(pred, None)  # built over the facts a self-negation read
    return derived
