"""The Datalog representation: instantiated rules, as the SMOs build them.

The same rules are evaluated (:mod:`repro.datalog.evaluate`), rendered to
SQL views and triggers, and simplified by the bidirectionality prover
(:mod:`repro.datalog.simplify`), which reads ``Const(None)`` as the
paper's null filler ``ω``.

Rules here are fully positional: every predicate has a fixed arity and facts
are plain tuples whose first component is, by convention, the table key
(the InVerDa tuple identifier ``p`` for data tables). Attribute-list
variables of the paper (``A``, ``B``) have already been expanded to one
variable per column by the SMO instantiation code.

Literal kinds:

- :class:`Atom` — positive or negated relational literal ``R(t1, ..., tn)``;
- :class:`CondLit` — an SMO condition such as ``cR(A)`` wrapping an
  :class:`~repro.expr.ast.Expression`, positive or negated;
- :class:`Compare` — tuple comparison ``(t1..tn) op (s1..sn)`` with
  ``op ∈ {'=', '!='}`` (used for the twin checks ``A ≠ A'``);
- :class:`Assign` — function binding ``v = f(t1, ..., tn)`` covering both
  value functions of ADD/DROP COLUMN and the identity-generating functions
  ``id_T(B)`` of the FK/condition SMOs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Union

from repro.errors import DatalogError
from repro.expr.ast import Expression

Value = Any

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: Value

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[Var, Const]
Subst = Mapping[str, Term]


def substitute_terms(terms: tuple[Term, ...], subst: Subst) -> tuple[Term, ...]:
    return tuple(subst.get(t.name, t) if isinstance(t, Var) else t for t in terms)

_wildcard_counter = itertools.count()


def wildcard() -> Var:
    """A fresh anonymous variable (the ``_`` of the paper's rules)."""
    return Var(f"_w{next(_wildcard_counter)}")


def is_wildcard(term: Term) -> bool:
    return isinstance(term, Var) and term.name.startswith("_w")


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    pred: str
    terms: tuple[Term, ...]
    positive: bool = True

    def negated(self) -> "Atom":
        return Atom(self.pred, self.terms, not self.positive)

    def substitute(self, subst: Subst) -> "Atom":
        return Atom(self.pred, substitute_terms(self.terms, subst), self.positive)

    def variables(self) -> set[str]:
        return {term.name for term in self.terms if isinstance(term, Var)}

    def __str__(self) -> str:
        args = ", ".join(str(term) for term in self.terms)
        prefix = "" if self.positive else "not "
        return f"{prefix}{self.pred}({args})"


@dataclass(frozen=True)
class CondLit:
    """An SMO condition literal ``c(A)``.

    ``columns`` maps the expression's column names to terms of the rule, so
    the same parsed condition can be applied to differently-named variables.
    """

    name: str
    expression: Expression
    columns: tuple[tuple[str, Term], ...]
    positive: bool = True

    def negated(self) -> "CondLit":
        return CondLit(self.name, self.expression, self.columns, not self.positive)

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(term for _, term in self.columns)

    def substitute(self, subst: Subst) -> "CondLit":
        names = tuple(name for name, _ in self.columns)
        columns = tuple(zip(names, substitute_terms(self.terms, subst)))
        return CondLit(self.name, self.expression, columns, self.positive)

    def variables(self) -> set[str]:
        return {term.name for _, term in self.columns if isinstance(term, Var)}

    def __str__(self) -> str:
        args = ", ".join(str(term) for _, term in self.columns)
        prefix = "" if self.positive else "not "
        return f"{prefix}{self.name}({args})"


@dataclass(frozen=True)
class Compare:
    op: str  # '=' or '!='
    left: tuple[Term, ...]
    right: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.op not in ("=", "!="):
            raise DatalogError(f"unsupported comparison operator {self.op!r}")
        if len(self.left) != len(self.right):
            raise DatalogError("tuple comparison requires equal arity")

    def negated(self) -> "Compare":
        return Compare("=" if self.op == "!=" else "!=", self.left, self.right)

    def substitute(self, subst: Subst) -> "Compare":
        return Compare(
            self.op, substitute_terms(self.left, subst), substitute_terms(self.right, subst)
        )

    def variables(self) -> set[str]:
        return {
            term.name for term in self.left + self.right if isinstance(term, Var)
        }

    def __str__(self) -> str:
        left = ", ".join(str(t) for t in self.left)
        right = ", ".join(str(t) for t in self.right)
        return f"({left}) {self.op} ({right})"


@dataclass(frozen=True)
class Assign:
    """``target = function(args)``; evaluated once ``args`` are bound."""

    target: Var
    function: Callable[..., Value]
    args: tuple[Term, ...]
    label: str = "f"
    expression: Expression | None = None  # SQL-renderable form when available

    def variables(self) -> set[str]:
        names = {self.target.name}
        names.update(term.name for term in self.args if isinstance(term, Var))
        return names

    def substitute(self, subst: Subst) -> "Assign":
        (target,) = substitute_terms((self.target,), subst)
        if not isinstance(target, Var):
            raise DatalogError(f"assignment target {self.target} bound to constant {target}")
        return replace(self, target=target, args=substitute_terms(self.args, subst))

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.args)
        return f"{self.target} = {self.label}({args})"


Literal = Union[Atom, CondLit, Compare, Assign]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.head.positive:
            raise DatalogError("rule heads must be positive atoms")
        if not self.body:
            raise DatalogError("rules must have a non-empty body")

    def substitute(self, subst: Subst) -> "Rule":
        return Rule(self.head.substitute(subst), tuple(lit.substitute(subst) for lit in self.body))

    def variables(self) -> set[str]:
        return self.head.variables().union(*(lit.variables() for lit in self.body))

    def body_atoms(self, *, positive: bool | None = None) -> list[Atom]:
        atoms = [lit for lit in self.body if isinstance(lit, Atom)]
        if positive is None:
            return atoms
        return [atom for atom in atoms if atom.positive is positive]

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} <- {body}"


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]
    name: str = ""

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def derived_predicates(self) -> list[str]:
        seen: list[str] = []
        for rule in self.rules:
            if rule.head.pred not in seen:
                seen.append(rule.head.pred)
        return seen

    def rules_for(self, pred: str) -> list[Rule]:
        return [rule for rule in self.rules if rule.head.pred == pred]

    @cached_property
    def program(self) -> list:
        """The evaluator's compiled form of these rules, built on first use
        and kept as long as the rule set is."""
        from repro.datalog.evaluate import compile_rules

        return compile_rules(self)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)


# ---------------------------------------------------------------------------
# Fact stores
# ---------------------------------------------------------------------------

Fact = tuple
FactSet = set


@dataclass
class FactStore:
    """Extensional + derived facts, keyed by predicate name."""

    facts: dict[str, set[Fact]] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[Fact]]) -> "FactStore":
        return cls({name: set(facts) for name, facts in mapping.items()})

    def predicate(self, name: str) -> set[Fact]:
        return self.facts.setdefault(name, set())

    def has(self, name: str) -> bool:
        return name in self.facts

    def add(self, name: str, fact: Fact) -> None:
        self.predicate(name).add(fact)

    def copy(self) -> "FactStore":
        return FactStore({name: set(facts) for name, facts in self.facts.items()})
