"""Rule → view SQL rendering.

All executable delta code is produced by :mod:`repro.backend.codegen`
(Section 6: each table version's mapping rules compile into a view for
reads and three ``INSTEAD OF`` triggers for writes).
:mod:`repro.sqlgen.views` holds the Figure-7 translation of Datalog rule
sets into ``SELECT`` bodies / structured UNION branches, which the
backend's handlers and view composer build on.
"""
