"""Rule → view SQL rendering, and the hand-written comparison baselines.

All executable delta code is produced by :mod:`repro.backend.codegen`
(Section 6: each table version's mapping rules compile into a view for
reads and three ``INSTEAD OF`` triggers for writes).  This package holds
the two pieces that sit beside that generator:

- :mod:`repro.sqlgen.views` — the Figure-7 translation of Datalog rule
  sets into ``SELECT`` bodies / structured UNION branches, which the
  backend's handlers and view composer build on;
- :mod:`repro.sqlgen.handwritten` — the hand-optimized comparison baseline;
- :mod:`repro.sqlgen.scripts` — the TasKy artifacts Table 3 sizes, read
  off the live generator.
"""

from repro.sqlgen.scripts import tasky_generated_scripts

__all__ = ["tasky_generated_scripts"]
