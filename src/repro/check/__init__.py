"""Static analysis for the reproduction: delta-code verification, BiDEL
pre-flight, and project lint.

Three passes, one diagnostic model (stable ``RPC…`` codes, severities,
locations — :mod:`repro.check.diagnostics`):

- :func:`verify_delta_code` has SQLite compile the generated views and
  trigger programs on a scratch handle built from the catalog — nothing
  is stepped — and checks what compiles against the catalog (RPC1xx);
- :func:`preflight_script` analyzes a BiDEL script before the engine
  runs it (RPC2xx) — also exposed as the ``CHECK <bidel>`` statement on
  both transports;
- :func:`run_project_lint` enforces codebase invariants (RPC3xx).

CLI: ``python -m repro.check --db path`` (see :mod:`repro.check.__main__`).
"""

from repro.check.delta import verify_and_record, verify_delta_code
from repro.check.diagnostics import (
    DIAGNOSTIC_CATALOG,
    SEVERITIES,
    Diagnostic,
    error_count,
    record_findings,
    summarize,
)
from repro.check.lint import run_project_lint
from repro.check.preflight import preflight_script

__all__ = [
    "DIAGNOSTIC_CATALOG",
    "SEVERITIES",
    "Diagnostic",
    "error_count",
    "preflight_script",
    "record_findings",
    "run_project_lint",
    "summarize",
    "verify_and_record",
    "verify_delta_code",
]
