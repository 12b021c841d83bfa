"""Static verification of the generated delta code (RPC101–RPC109).

The backend compiles the catalog into ``CREATE VIEW`` and ``CREATE
TRIGGER`` statements (:mod:`repro.backend.codegen`).  This pass checks
the *text* of that program against the catalog — without executing any
of it:

- **RPC101** every referenced table resolves against the physical
  layout, the scaffolding DDL, or another generated view;
- **RPC102** every qualified column reference (``alias.col``,
  ``NEW.col``, ``OLD.col``) resolves against some candidate relation;
- **RPC103** the view dependency graph is acyclic;
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
suite the nested reference rendering; RPC106 (which compares the
generator's two renderings) only runs on generator output.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter

from repro.backend.emit import SEQUENCES_TABLE, create_view
from repro.check.diagnostics import Diagnostic, record_findings
from repro.check.sqlscan import (
    STRUCTURAL_KEYWORDS,
    SUBQUERY,
    StatementScan,
    scan_statement,
    unquoted_occurrence,
)
from repro.sqlgen.views import key_disjoint
from repro.util.naming import quote_identifier

_DML_OPS = ("INSERT", "UPDATE", "DELETE")

#: Bump when a rule below is added or tightened: ``verified_at`` marks
#: left under older rules stop matching and the next open verifies in full.
RULES_REVISION = 1


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


def _physical_objects(engine) -> dict[str, set[str]]:
    """Every physical relation the generated code may read or write:
    the engine's table layout (data + aux tables), the scaffolding DDL's
    put/staging tables and sequence table."""
    from repro.backend import codegen

    objects: dict[str, set[str]] = {}
    for name, table in engine.database.tables.items():
        objects[name] = {"p", *table.schema.column_names}
    for statement in codegen.scaffold_statements(engine):
        scan = scan_statement(statement)
        if scan.kind == "table" and scan.name:
            objects.setdefault(scan.name, set()).update(scan.columns_defined)
    objects.setdefault(SEQUENCES_TABLE, {"name", "value"})
    return objects


def _catalog_view_columns(engine) -> dict[str, set[str]]:
    from repro.backend import codegen

    return {
        tv.view_name: {"p", *tv.schema.column_names}
        for tv in codegen.active_table_versions(engine)
    }


def _resolve_references(
    scans: list[StatementScan],
    objects: dict[str, set[str]],
    view_columns: dict[str, set[str] | None],
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    def columns_of(name: str) -> set[str] | None:
        if name in objects:
            return objects[name]
        return view_columns.get(name)

    known = set(objects) | set(view_columns)
    for scan in scans:
        where = scan.name or "<statement>"
        for ref in scan.table_refs:
            if ref not in known:
                diagnostics.append(Diagnostic(
                    "RPC101", "error", where,
                    f"references {ref!r}, which is neither a physical "
                    "table nor a generated view",
                ))
        for qualifier, column in scan.column_refs:
            if qualifier.upper() in ("NEW", "OLD"):
                row_columns = view_columns.get(scan.on_view or "")
                if row_columns is not None and column not in row_columns:
                    diagnostics.append(Diagnostic(
                        "RPC102", "error", where,
                        f"{qualifier}.{column} does not exist: view "
                        f"{scan.on_view!r} has no column {column!r}",
                    ))
                continue
            candidates = scan.aliases.get(qualifier)
            if candidates is not None:
                if SUBQUERY in candidates:
                    continue  # derived table: columns are opaque
                column_sets = [columns_of(c) for c in candidates]
                if any(cols is None for cols in column_sets):
                    continue  # some candidate is opaque — don't guess
                if not any(column in cols for cols in column_sets):
                    diagnostics.append(Diagnostic(
                        "RPC102", "error", where,
                        f"{qualifier}.{column} does not resolve: no table "
                        f"bound to alias {qualifier!r} "
                        f"({', '.join(sorted(candidates))}) has a column "
                        f"{column!r}",
                    ))
            elif qualifier in known:
                cols = columns_of(qualifier)
                if cols is not None and column not in cols:
                    diagnostics.append(Diagnostic(
                        "RPC102", "error", where,
                        f"{qualifier}.{column} does not resolve: "
                        f"{qualifier!r} has no column {column!r}",
                    ))
            else:
                diagnostics.append(Diagnostic(
                    "RPC102", "error", where,
                    f"{qualifier}.{column} uses unknown reference "
                    f"qualifier {qualifier!r} (not an alias, row "
                    "variable, or relation in scope)",
                ))
    return diagnostics


def _check_cycles(view_scans: list[StatementScan]) -> list[Diagnostic]:
    defined = {scan.name for scan in view_scans if scan.name}
    graph = {
        scan.name: {ref for ref in scan.table_refs if ref in defined}
        for scan in view_scans
        if scan.name
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        cycle = exc.args[1] if len(exc.args) > 1 else []
        return [Diagnostic(
            "RPC103", "error", str(cycle[0]) if cycle else "<views>",
            "view dependency cycle: " + " -> ".join(map(str, cycle)),
        )]
    return []


def _check_trigger_completeness(
    engine, trigger_scans: list[StatementScan]
) -> list[Diagnostic]:
    from repro.backend import codegen

    defined = {scan.name for scan in trigger_scans if scan.name}
    diagnostics: list[Diagnostic] = []
    for tv in codegen.active_table_versions(engine):
        for op in _DML_OPS:
            expected = tv.trigger_name(op)
            if expected not in defined:
                diagnostics.append(Diagnostic(
                    "RPC104", "error", tv.view_name,
                    f"missing INSTEAD OF {op} trigger "
                    f"({expected!r}) — {op} on this version would hit "
                    "the view directly and fail",
                ))
    return diagnostics


def _quotable_catalog_names(engine) -> set[str]:
    """Catalog identifiers the emitters must always quote: anything
    :func:`quote_identifier` would wrap.  Names equal to a structural
    keyword of the generated dialect are skipped — a bare occurrence is
    indistinguishable from SQL structure."""
    from repro.backend import codegen

    names: set[str] = set()
    for tv in codegen.active_table_versions(engine):
        names.update(tv.schema.column_names)
        names.add(tv.view_name)
        names.add(tv.data_table_name)
    return {
        name for name in names
        if quote_identifier(name) != name
        and name.upper() not in STRUCTURAL_KEYWORDS
    }


def _check_quoting(
    statements: list[str],
    scans: list[StatementScan],
    quotable: set[str],
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for statement, scan in zip(statements, scans):
        for name in sorted(quotable):
            if unquoted_occurrence(statement, name):
                diagnostics.append(Diagnostic(
                    "RPC105", "warning", scan.name or "<statement>",
                    f"identifier {name!r} requires quoting but appears "
                    "bare in the generated SQL",
                ))
    return diagnostics


def _physical_basis(
    view_scans: list[StatementScan],
) -> dict[str, frozenset[str]]:
    """Per view, the set of non-view relations it transitively reads."""
    refs = {scan.name: set(scan.table_refs) for scan in view_scans if scan.name}
    memo: dict[str, frozenset[str]] = {}

    def leaves(name: str, trail: set[str]) -> frozenset[str]:
        if name in memo:
            return memo[name]
        if name in trail:
            return frozenset()  # cycle: RPC103 reports it
        trail = trail | {name}
        result: set[str] = set()
        for ref in refs.get(name, ()):
            if ref in refs:
                result |= leaves(ref, trail)
            else:
                result.add(ref)
        memo[name] = frozenset(result)
        return memo[name]

    return {name: leaves(name, set()) for name in refs}


def _check_key_disjoint(
    view_scans: list[StatementScan], branches: dict[str, list]
) -> list[Diagnostic]:
    """RPC108, on every view the catalog renders (an injected view the
    catalog does not render has no branches to judge)."""
    diagnostics: list[Diagnostic] = []
    for scan in view_scans:
        flat = branches.get(scan.name)
        if scan.union_all and flat is not None and not key_disjoint(flat):
            diagnostics.append(Diagnostic(
                "RPC108", "error", scan.name or "<view>",
                "branches are joined by UNION ALL, but the catalog does "
                "not prove them key-disjoint: an identifier could be "
                "served twice",
            ))
    return diagnostics


def _check_emission_agreement(
    engine, flat_scans: list[StatementScan]
) -> list[Diagnostic]:
    from repro.backend import codegen

    flat = _physical_basis(flat_scans)
    nested = _physical_basis(
        [scan_statement(s) for s in codegen.view_statements(engine, flatten=False)]
    )
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
    again).  With ``connection`` — the database the code is installed
    in — the installed text is held against it too (RPC109).
    Returns every finding; callers gate on error-severity ones."""
    from repro.backend import codegen

    injected = view_statements is not None or trigger_statements is not None
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

    view_scans = [scan_statement(s) for s in view_statements]
    trigger_scans = [scan_statement(s) for s in trigger_statements]

    objects = _physical_objects(engine)
    view_columns: dict[str, set[str] | None] = dict(
        _catalog_view_columns(engine)
    )
    for scan in view_scans:
        # A view the statements define but the catalog does not know has
        # opaque columns; it still counts as a resolvable name.
        if scan.name and scan.name not in view_columns:
            view_columns[scan.name] = None

    diagnostics = _resolve_references(
        view_scans + trigger_scans, objects, view_columns
    )
    diagnostics += _check_cycles(view_scans)
    diagnostics += _check_trigger_completeness(engine, trigger_scans)
    quotable = _quotable_catalog_names(engine)
    if quotable:
        diagnostics += _check_quoting(
            view_statements + trigger_statements,
            view_scans + trigger_scans,
            quotable,
        )
    diagnostics += _check_key_disjoint(
        view_scans, {name: flat for name, _select, flat in definitions}
    )
    if not injected:
        diagnostics += _check_emission_agreement(engine, view_scans)
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
