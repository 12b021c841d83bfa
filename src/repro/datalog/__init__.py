"""Datalog machinery backing BiDEL's SMO semantics.

The paper defines every SMO by two Datalog rule sets ``γ_tgt`` and ``γ_src``
(Section 4, Appendix B). This package provides:

- a *runtime* representation (:mod:`repro.datalog.ast`) with bottom-up
  evaluation (:mod:`repro.datalog.evaluate`) used as the executable reference
  semantics of every SMO;
- a *symbolic* representation (:mod:`repro.datalog.symbolic`) with the
  paper's simplification Lemmas 1–5 (:mod:`repro.datalog.simplify`) and the
  round-trip composition machinery (:mod:`repro.datalog.compose`) used to
  mechanically reproduce the bidirectionality proofs.
"""

from repro.datalog.ast import (
    Assign,
    Atom,
    Compare,
    CondLit,
    Const,
    Rule,
    RuleSet,
    Var,
    wildcard,
)
from repro.datalog.evaluate import evaluate

__all__ = [
    "Var",
    "Const",
    "Atom",
    "CondLit",
    "Compare",
    "Assign",
    "Rule",
    "RuleSet",
    "wildcard",
    "evaluate",
]
