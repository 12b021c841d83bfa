"""Static verification of the generated delta code (RPC101–RPC109).

The backend compiles the catalog into ``CREATE VIEW`` and ``CREATE
TRIGGER`` statements (:mod:`repro.backend.codegen`).  This pass asks
SQLite whether that program resolves: it prepares it on a scratch
in-memory handle built from the catalog — never from a database file's
``sqlite_master`` — and steps nothing.

- **RPC101** every statement resolves and compiles against the physical
  layout, the scaffolding DDL and the generated views: ``no such
  table``, and any compile error the codes below do not name (an
  unknown function, a syntax error);
- **RPC102** ``no such column``;
- **RPC103** ``circularly defined``: the view dependency graph has a
  cycle;
- **RPC104** every active table version has INSTEAD OF triggers for all
  three DML operations;
- **RPC105** identifiers that need quoting are never emitted bare;
- **RPC106** the installed (composed) emission never reads a physical
  base table the nested reference composition does not.  (The converse
  is legal: flattening prunes joins whose columns a later SMO dropped,
  so the nested basis may be a strict superset — the differential suite
  covers content agreement.)
- **RPC108** a view whose branches are joined by ``UNION ALL`` is one
  whose catalog-derived branches are provably key-disjoint
  (:func:`repro.sqlgen.views.key_disjoint` — the function the emitter
  itself decides by); plain ``UNION`` always passes.
- **RPC109** (only with a ``connection``) the generated views and
  triggers the database holds are, name for name and byte for byte, the
  ones the catalog renders — the backend installs by diff against
  ``sqlite_master``, so this is the check that the diff converged.

(RPC107, the transitional-object bound, is
:func:`verify_transitional_objects`.)

``view_statements`` / ``trigger_statements`` are injectable so the
seeded-defect suite can verify *mutated* delta code, and the oracle
suite the nested reference rendering.
"""

from __future__ import annotations

import re
import sqlite3
from contextlib import closing

from repro.backend.emit import create_view, q, table_ddl
from repro.check.diagnostics import Diagnostic, record_findings
from repro.sqlgen.views import key_disjoint

#: What a write through a view compiles to: that view's INSTEAD OF
#: program and every program it writes into.
_WRITES = {
    "INSERT": "INSERT INTO {} DEFAULT VALUES",
    "UPDATE": "UPDATE {} SET p = p",
    "DELETE": "DELETE FROM {}",
}

#: SQLite's compile errors by the code they are reported under; any
#: other compile error is RPC101's.
_ERROR_CODES = (
    ("no such column", "RPC102"),
    ("circularly defined", "RPC103"),
)

#: Column names :func:`~repro.util.naming.quote_identifier` wraps that
#: SQLite still parses bare and the emitters write as SQL structure only
#: for a user's ``LIKE`` condition (``BY``, ``END``, ``VIEW`` and
#: ``TRIGGER`` they always write).  Any other quotable name emitted bare
#: does not compile.
_BARE_KEYWORDS = frozenset({"like"})

#: Bump when a rule below is added or tightened: ``verified_at`` marks
#: left under older rules stop matching and the next open verifies in full.
RULES_REVISION = 2


def verified_digest(log_digest: str, delta_key: tuple, installed: dict) -> str:
    """What a verdict of :func:`verify_delta_code` is a pure function of:
    the stored catalog log, ``delta_key`` (catalog generation, revision of
    the backend's emitter), the revision of these rules and the text of
    every generated object in ``codegen.installed_objects()`` form."""
    from repro.persist.fingerprint import digest

    objects = sorted(
        (name, digest(sql)) for name, (_kind, sql, _view) in installed.items()
    )
    return digest([log_digest, *delta_key, RULES_REVISION, objects])


class _Scratch:
    """An in-memory database holding what the catalog says a file holds —
    the engine's physical layout, the sequence table and the scaffolding,
    the statements a fresh install runs — on which the generated program
    is created and compiled.  Each failure is one finding, once per place
    and SQLite message (a broken view breaks every statement that reads
    it); a missing object that failed to create is not found again at
    whatever names it."""

    def __init__(self, engine):
        from repro.backend import codegen

        self.handle = sqlite3.connect(":memory:", isolation_level=None)
        for name, table in engine.database.tables.items():
            self.handle.execute(table_ddl(name, table.schema.column_names))
        for statement in codegen.scaffold_statements(engine):  # sequences too
            self.handle.execute(statement)
        self.findings: list[Diagnostic] = []
        self._seen: set[tuple[str, str]] = set()
        self._failed: set[str] = set()  # objects whose creation failed
        self.reads: set[str] = set()
        self.context: str | None = None
        self.handle.set_authorizer(self._authorize)

    def _authorize(self, action, table, _column, _db, inner) -> int:
        """Every relation a statement reads, and the innermost trigger or
        view it was compiling: where an error is."""
        if action == sqlite3.SQLITE_READ:
            self.reads.add(table)
        self.context = inner or self.context
        return sqlite3.SQLITE_OK

    def run(self, statement: str, where: str | None, *, innermost: bool = False) -> bool:
        """Create or compile ``statement``; a failure is found at ``where``,
        or with ``innermost`` at the trigger or view SQLite was inside."""
        self.reads, self.context = set(), None
        try:
            self.handle.execute(statement)
        except sqlite3.Error as exc:
            message = str(exc)
            location = (innermost and self.context) or where or "<statement>"
            missing = message.partition("no such table: ")[2].removeprefix("main.")
            if where is not None:
                self._failed.add(where)
            if missing not in self._failed and (location, message) not in self._seen:
                self._seen.add((location, message))
                code = next(
                    (code for text, code in _ERROR_CODES if text in message),
                    "RPC101",
                )
                self.findings.append(Diagnostic(
                    code, "error", location, f"does not compile: {message}",
                ))
            return False
        return True

    def bases(self, views: list[str]) -> dict[str, frozenset[str]]:
        """Per view that compiles, the non-view relations it reads."""
        names = set(views)
        return {
            name: frozenset(self.reads - names)
            for name in views
            if self.run(f"EXPLAIN SELECT * FROM {q(name)}", name)
        }

    def close(self) -> None:
        self.handle.close()


def _created(statements: list[str]) -> list[str]:
    from repro.backend import codegen

    return [name for name in map(codegen.created_name, statements) if name]


def _check_trigger_completeness(engine, defined: set[str]) -> list[Diagnostic]:
    from repro.backend import codegen

    diagnostics: list[Diagnostic] = []
    for tv in codegen.active_table_versions(engine):
        for op in _WRITES:
            expected = tv.trigger_name(op)
            if expected not in defined:
                diagnostics.append(Diagnostic(
                    "RPC104", "error", tv.view_name,
                    f"missing INSTEAD OF {op} trigger "
                    f"({expected!r}) — {op} on this version would hit "
                    "the view directly and fail",
                ))
    return diagnostics


def unquoted_occurrence(sql: str, name: str) -> bool:
    """Does ``name`` appear in ``sql`` as a *bare* word — outside string
    literals and outside double-quoted identifiers?  Used by the RPC105
    pass for names :func:`~repro.util.naming.quote_identifier` would
    quote."""
    if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", name):
        # A name with odd characters cannot appear as a bare identifier
        # token at all; nothing to scan for.
        return False
    pattern = re.compile(rf"\b{re.escape(name)}\b", re.IGNORECASE)
    i = 0
    length = len(sql)
    segment_start = 0
    while i < length:
        ch = sql[i]
        if ch in ("'", '"'):
            if pattern.search(sql, segment_start, i):
                return True
            quote = ch
            i += 1
            while i < length:
                if sql[i] == quote:
                    if i + 1 < length and sql[i + 1] == quote:
                        i += 2
                        continue
                    break
                i += 1
            segment_start = i + 1
        i += 1
    return bool(pattern.search(sql, segment_start, length))


def _check_quoting(engine, statements: list[str]) -> list[Diagnostic]:
    from repro.backend import codegen

    quotable = sorted({
        column
        for tv in codegen.active_table_versions(engine)
        for column in tv.schema.column_names
        if column.lower() in _BARE_KEYWORDS
    })
    return [
        Diagnostic(
            "RPC105", "warning", codegen.created_name(statement) or "<statement>",
            f"identifier {name!r} requires quoting but appears "
            "bare in the generated SQL",
        )
        for statement in statements
        for name in quotable
        if unquoted_occurrence(statement, name)
    ]


def _check_key_disjoint(
    view_statements: list[str], branches: dict[str, list]
) -> list[Diagnostic]:
    """RPC108, on every view the catalog renders (an injected view the
    catalog does not render has no branches to judge).  The emitters write
    a view's top-level compound keyword on a line of its own
    (:func:`~repro.sqlgen.views.compound_sql`), and no other."""
    from repro.backend import codegen

    diagnostics: list[Diagnostic] = []
    for statement in view_statements:
        name = codegen.created_name(statement)
        flat = branches.get(name or "")
        if "\nUNION ALL\n" in statement and flat is not None and not key_disjoint(flat):
            diagnostics.append(Diagnostic(
                "RPC108", "error", name or "<view>",
                "branches are joined by UNION ALL, but the catalog does "
                "not prove them key-disjoint: an identifier could be "
                "served twice",
            ))
    return diagnostics


def _check_emission_agreement(
    engine, flat: dict[str, frozenset[str]]
) -> list[Diagnostic]:
    from repro.backend import codegen

    statements = codegen.view_statements(engine, flatten=False)
    with closing(_Scratch(engine)) as scratch:  # the reference: its findings go unreported
        for statement in statements:
            scratch.run(statement, None)
        nested = scratch.bases(_created(statements))
    diagnostics: list[Diagnostic] = []
    for name in sorted(set(flat) | set(nested)):
        flat_basis = flat.get(name, frozenset())
        nested_basis = nested.get(name, frozenset())
        # Flattening may legally read FEWER base tables than the nested
        # composition: a join contributing only columns a later SMO
        # dropped is dead in the inlined query but still referenced by
        # the intermediate views.  Reading a table the nested emission
        # never touches, though, means the two programs answer from
        # different data — that is the defect this check exists for.
        if not flat_basis <= nested_basis:
            diagnostics.append(Diagnostic(
                "RPC106", "error", name,
                "flattened emission reads physical base tables the nested "
                f"one does not: flat reads {sorted(flat_basis)}, nested "
                f"reads {sorted(nested_basis)}",
            ))
    return diagnostics


def check_installed(installed: dict, statements: list[str]) -> list[Diagnostic]:
    """RPC109: ``sqlite_master`` (``codegen.installed_objects()``) against
    the rendered ``statements``."""
    from repro.backend import codegen

    rendered = {codegen.created_name(s): s for s in statements}
    installed = {name: sql for name, (_kind, sql, _view) in installed.items()}
    diagnostics: list[Diagnostic] = []
    rendered.pop(None, None)  # injected text that creates no view or trigger
    for name in sorted(rendered.keys() | installed.keys()):
        if name not in installed:
            message = "the catalog renders this object but the database does not hold it"
        elif name not in rendered:
            message = "the database holds this generated object but the catalog does not render it"
        elif installed[name] != rendered[name]:
            message = "the installed text differs from what the catalog renders"
        else:
            continue
        diagnostics.append(Diagnostic("RPC109", "error", name, message))
    return diagnostics


def verify_delta_code(
    engine,
    *,
    view_statements: list[str] | None = None,
    trigger_statements: list[str] | None = None,
    connection=None,
    backend=None,
) -> list[Diagnostic]:
    """Statically verify the delta code for ``engine``'s current catalog.

    Generates the program from the catalog unless explicit statements
    are injected (the seeded-defect tests mutate known-good output and
    pass it back in).  With ``backend`` — the live backend serving the
    engine — the program is the one that backend installs, rendered
    through its ``Renderer`` (an install that follows renders nothing
    again).  References resolve as SQLite resolves them: the program is
    created on a scratch in-memory handle built from the catalog, and
    every view is prepared, and every write through every active table
    version (``EXPLAIN``: nothing is stepped).  With ``connection`` — the
    database the code is installed in — the installed text is held
    against it too (RPC109); the file's own tables never resolve a
    reference.  Returns every finding; callers gate on error-severity
    ones."""
    from repro.backend import codegen

    renderer = codegen.Renderer(engine) if backend is None else backend.renderer
    if backend is not None:
        view_statements, trigger_statements = backend.delta_statements()
    definitions = renderer.view_definitions()
    if view_statements is None:
        view_statements = [
            create_view(name, select) for name, select, _flat in definitions
        ]
    if trigger_statements is None:
        trigger_statements = renderer.trigger_statements()

    with closing(_Scratch(engine)) as scratch:
        created = {
            codegen.created_name(statement)
            for statement in view_statements + trigger_statements
            if scratch.run(statement, codegen.created_name(statement))
        }
        flat = scratch.bases([n for n in _created(view_statements) if n in created])
        for tv in codegen.active_table_versions(engine):
            for op, write in _WRITES.items():
                if tv.view_name in flat and tv.trigger_name(op) in created:
                    scratch.run(
                        "EXPLAIN " + write.format(q(tv.view_name)),
                        tv.trigger_name(op), innermost=True,
                    )
        diagnostics = scratch.findings
    diagnostics += _check_trigger_completeness(engine, set(_created(trigger_statements)))
    diagnostics += _check_quoting(engine, view_statements + trigger_statements)
    diagnostics += _check_key_disjoint(
        view_statements, {name: branches for name, _select, branches in definitions}
    )
    diagnostics += _check_emission_agreement(engine, flat)
    if connection is not None:
        diagnostics += check_installed(
            codegen.installed_objects(connection),
            view_statements + trigger_statements,
        )
    return diagnostics


def verify_transitional_objects(connection, store) -> list[Diagnostic]:
    """RPC107: bound the transitional online-MATERIALIZE objects.

    During a journaled backfill the database legitimately carries
    ``_repro_bf…`` staging tables, ``_repro_bf__cap__…`` capture
    triggers, and the ``_repro_backfill_dirty`` table; the journal's plan
    names every one of them.  Anything transitional *outside* that set —
    or any transitional object present with no journal at all — is an
    orphan from a torn move and is reported as an error.  A journal that
    names a staging table the database does not hold is equally torn.
    """
    from repro.backend import online

    record = store.read_backfill() if store is not None else None
    expected: set[str] = set()
    plan = None
    if record is not None:
        plan = online.plan_from_payload(record.plan)
        expected = plan.transitional_names()

    diagnostics: list[Diagnostic] = []
    present: set[str] = set()
    for name, kind in connection.execute(
        "SELECT name, type FROM sqlite_master WHERE type IN ('table', 'trigger')"
    ):
        if not online.is_transitional(name):
            continue
        present.add(name)
        if record is None:
            diagnostics.append(Diagnostic(
                "RPC107", "error", name,
                f"transitional backfill {kind} exists but no backfill "
                "journal is in flight (orphan of a torn move)",
            ))
        elif name not in expected:
            diagnostics.append(Diagnostic(
                "RPC107", "error", name,
                f"transitional backfill {kind} is not named by the "
                "in-flight journal's plan",
            ))
    if plan is not None:
        for move in plan.trackable():
            if move.stage not in present:
                diagnostics.append(Diagnostic(
                    "RPC107", "error", move.stage,
                    "the in-flight journal names this staging table but "
                    "the database does not hold it",
                ))
        if online.DIRTY_TABLE not in present:
            diagnostics.append(Diagnostic(
                "RPC107", "error", online.DIRTY_TABLE,
                "a backfill journal is in flight but the change-capture "
                "table is missing",
            ))
    return diagnostics


def verify_and_record(engine, *, scope: str) -> dict:
    """Run the verifier and record the outcome (metrics +
    ``engine.last_check``); returns the summary dict."""
    diagnostics = verify_delta_code(engine)
    summary = record_findings(engine, diagnostics, scope=scope)
    # engine.last_check stays compact; the caller-facing report carries
    # the individual findings too.
    return {**summary, "diagnostics": [d.as_dict() for d in diagnostics]}
