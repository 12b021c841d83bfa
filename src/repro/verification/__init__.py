"""Formal and runtime evaluation of BiDEL's bidirectionality (Section 5).

Two complementary validators:

- :mod:`repro.verification.bidirectionality` reproduces the paper's
  *symbolic* proofs on the rule sets an SMO instance compiles into views
  and triggers: it composes the instance's two mapping rule sets,
  simplifies the composition with Lemmas 1–5, and checks that exactly the
  identity rules remain (Conditions 26/27) — mechanically re-deriving
  Section 5 and Appendix A for that instance.
- :mod:`repro.verification.lenses` validates the same laws (plus the write
  laws 48/49 and the chain laws 50/51) on *concrete data* against the
  executable SMO semantics, covering the identifier-generating SMOs whose
  symbolic proofs the paper also argues informally.
"""

from repro.verification.bidirectionality import VerificationResult, verify_smo
from repro.verification.lenses import (
    check_chain_round_trip,
    check_round_trip,
    check_write_law,
)

__all__ = [
    "VerificationResult",
    "verify_smo",
    "check_round_trip",
    "check_write_law",
    "check_chain_round_trip",
]
