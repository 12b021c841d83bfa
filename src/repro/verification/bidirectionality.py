"""Mechanical reproduction of the paper's bidirectionality proofs.

:func:`verify_smo` proves both symmetric lens conditions on the rule sets an
SMO instance compiles into views and triggers (``gamma_tgt_rules`` /
``gamma_src_rules``):

- Condition 27, ``D_src = γ_src^data(γ_tgt(D_src))`` — the Section 5
  derivation;
- Condition 26, ``D_tgt = γ_tgt^data(γ_src(D_tgt))`` — the Appendix A
  derivation.

The check composes the two rule sets with Lemma 1, simplifies with Lemmas
2–5 plus subsumption and the closing ω case analysis, and asserts that the
data-table rules collapse to the identity mapping. Everything it needs comes
from the instance: the data predicates are its source / target roles, the
auxiliary ones its ``aux_src()`` / ``aux_tgt()``. The identifier-generating
SMOs (FK/condition DECOMPOSE and JOIN) declare ``aux_shared()`` tables: their
rules read the identifiers ``ID`` records, and the invariants those obey
(``ID`` is total on the wide rows, one identifier names one payload) lie
outside the prover, so it refuses them; the runtime lens checks in
:mod:`repro.verification.lenses` cover them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.bidel.smo.base import SmoSemantics
from repro.datalog.ast import Rule
from repro.datalog.compose import compose_round_trip, is_identity
from repro.datalog.simplify import simplify_rules
from repro.errors import VerificationError


@dataclass
class VerificationResult:
    smo: str
    condition: str
    holds: bool
    simplified: list[Rule]
    problems: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def _check(
    smo: str,
    condition: str,
    first: Sequence[Rule],
    second: Sequence[Rule],
    *,
    data: Iterable[str],
    aux: Mapping[str, object],
    collect_trace: bool,
) -> VerificationResult:
    """Store ``data`` (the other side's aux tables empty), apply ``first``
    then ``second``, and check ``data`` comes back unchanged."""
    trace: list[str] | None = [] if collect_trace else None
    stored = {pred: f"{pred}_D" for pred in data}
    composed = compose_round_trip(
        first, second, rename_base=stored, empty_predicates=set(aux)
    )
    simplified = simplify_rules(composed, stored=set(stored.values()), trace=trace)
    expected = [
        (pred, name, next(len(r.head.terms) for r in second if r.head.pred == pred) - 1)
        for pred, name in stored.items()
    ]
    holds, problems = is_identity(simplified, expected)
    return VerificationResult(smo, condition, holds, simplified, problems, trace or [])


def verify_smo(
    semantics: SmoSemantics, *, collect_trace: bool = False
) -> tuple[VerificationResult, VerificationResult]:
    """Prove both lens conditions on one SMO instance's own rule sets;
    returns (condition 27, condition 26)."""
    if semantics.aux_shared():
        raise VerificationError(
            f"{semantics.describe()} reads identifiers its shared aux tables "
            "record, under invariants outside the prover; the runtime lens "
            "checks cover it"
        )
    gamma_tgt, gamma_src = semantics.gamma_tgt_rules(), semantics.gamma_src_rules()
    smo = semantics.describe()
    return (
        _check(
            smo, "27", gamma_tgt.rules, gamma_src.rules,
            data=semantics.source_roles, aux=semantics.aux_src(),
            collect_trace=collect_trace,
        ),
        _check(
            smo, "26", gamma_src.rules, gamma_tgt.rules,
            data=semantics.target_roles, aux=semantics.aux_tgt(),
            collect_trace=collect_trace,
        ),
    )
