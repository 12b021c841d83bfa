"""Datalog machinery backing BiDEL's SMO semantics.

The paper defines every SMO by two Datalog rule sets ``γ_tgt`` and ``γ_src``
(Section 4, Appendix B). This package provides:

- one rule representation (:mod:`repro.datalog.ast`), the rules the SMOs
  compile into views and triggers;
- bottom-up evaluation (:mod:`repro.datalog.evaluate`) used as the
  executable reference semantics of every SMO;
- the paper's simplification Lemmas 1–5 (:mod:`repro.datalog.simplify`),
  the round-trip composition machinery (:mod:`repro.datalog.compose`) and
  matching modulo renaming (:mod:`repro.datalog.symbolic`), which prove
  the bidirectionality of those same rules.
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
