"""Diagnostic model shared by all three static-analysis passes.

Every pass — the delta-code verifier (:mod:`repro.check.delta`), the
BiDEL pre-flight analyzer (:mod:`repro.check.preflight`), and the project
linter (:mod:`repro.check.lint`) — reports findings as immutable
:class:`Diagnostic` records with a **stable code** from
:data:`DIAGNOSTIC_CATALOG`.  Codes never change meaning across releases:
tests, CI gates, and suppression comments key on them.

Code ranges:

- ``RPC1xx`` — delta-code verifier (generated views and triggers),
- ``RPC2xx`` — BiDEL pre-flight analyzer (SMO chains before execution),
- ``RPC3xx`` — project lint (codebase invariants).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity levels, in increasing order of badness.  CI and recovery
#: gate on ``error``; ``warning`` is advisory.
SEVERITIES = ("info", "warning", "error")

#: The stable code catalog: every diagnostic any pass can emit.
#: ``docs/static-analysis.md`` documents each entry with a triggering
#: example, and the docs test asserts the two stay in sync.
DIAGNOSTIC_CATALOG: dict[str, str] = {
    # -- delta-code verifier (RPC1xx) -----------------------------------
    "RPC101": "generated statement does not resolve or compile against the "
              "physical layout and the generated view set",
    "RPC102": "generated statement references a column (or row-variable "
              "field) that no candidate table or view provides",
    "RPC103": "the generated view dependency graph contains a cycle",
    "RPC104": "a non-materialized table version is missing an INSTEAD OF "
              "trigger for one of INSERT/UPDATE/DELETE",
    "RPC105": "an identifier that requires quoting is emitted unquoted",
    "RPC106": "the flattened view emission reads a physical base table "
              "the nested composition never touches",
    "RPC107": "transitional online-MATERIALIZE object (backfill staging "
              "table, capture trigger, or dirty table) exists without a "
              "journal entry that accounts for it",
    "RPC108": "a generated view joins its branches with UNION ALL although "
              "the catalog does not prove them disjoint on the tuple "
              "identifier p",
    "RPC109": "a generated view or trigger in the database is not, name for "
              "name and byte for byte, what the catalog renders",
    # -- BiDEL pre-flight (RPC2xx) --------------------------------------
    "RPC200": "the BiDEL script does not parse",
    "RPC201": "name collision: the schema version, table, or column "
              "already exists at this point of the chain",
    "RPC202": "reference to an unknown or dropped schema version or table",
    "RPC203": "the SMO does not apply to its source tables (unknown "
              "column, incompatible tables, a condition JOIN whose inputs "
              "lack id)",
    "RPC204": "information-loss warning: the SMO is not invertible "
              "without auxiliary state",
    "RPC205": "partition conditions overlap: some row satisfies both",
    "RPC206": "partition conditions leave a gap: some row satisfies "
              "neither and would be lost",
    "RPC207": "MATERIALIZE target set the engine refuses: it violates "
              "validity condition (55) or (56)",
    # -- project lint (RPC3xx) ------------------------------------------
    "RPC301": "f-string SQL interpolation outside the quoting-helper "
              "modules",
    "RPC302": "catalog mutation outside the RWLock write side",
    "RPC303": "metric series created outside the fixed-series registry",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, the object it anchors to
    (a generated object name, ``version.table``, or ``path:line``), and a
    human-readable message."""

    code: str
    severity: str
    obj: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CATALOG:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def as_row(self) -> tuple[str, str, str, str]:
        """The (code, severity, object, message) result-set row used by
        the ``CHECK`` statement on both transports."""
        return (self.code, self.severity, self.obj, self.message)

    def as_dict(self) -> dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity,
            "object": self.obj,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.code} {self.severity:<7} {self.obj}: {self.message}"


def error_count(diagnostics: list[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.severity == "error")


def summarize(diagnostics: list[Diagnostic], *, scope: str,
              generation: int | None = None) -> dict:
    """The compact summary stored as ``engine.last_check`` and surfaced
    through the unified ``stats()`` snapshot and server ``status``."""
    codes: dict[str, int] = {}
    for diagnostic in diagnostics:
        codes[diagnostic.code] = codes.get(diagnostic.code, 0) + 1
    summary = {
        "scope": scope,
        "findings": len(diagnostics),
        "errors": error_count(diagnostics),
        "warnings": sum(1 for d in diagnostics if d.severity == "warning"),
        "codes": codes,
    }
    if generation is not None:
        summary["generation"] = generation
    return summary


def record_findings(engine, diagnostics: list[Diagnostic], *,
                    scope: str) -> dict:
    """Record a completed check on ``engine``: bump
    ``repro_check_findings_total{code=...}`` for every finding (and
    touch the family so the series exists even for clean runs), and
    store the summary as ``engine.last_check`` for the stats snapshot.
    Returns the summary."""
    counter = engine.metrics.counter(
        "repro_check_findings_total",
        "Static-analysis findings recorded, by diagnostic code.",
        ("code",),
    )
    for diagnostic in diagnostics:
        counter.inc(code=diagnostic.code)
    summary = summarize(
        diagnostics, scope=scope, generation=engine.catalog_generation
    )
    engine.last_check = summary
    return summary
