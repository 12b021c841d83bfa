"""BiDEL pre-flight analysis (RPC2xx): check an SMO chain *before* the
engine runs it.

``CHECK <bidel>`` (and ``python -m repro.check --preflight``) parses the
script and binds each SMO as the engine does
(:func:`~repro.core.engine.bind_smo`: its semantics and target schemas)
over a working copy of the catalog's table schemas — no data, no delta
code — flagging:

- **RPC201** name collisions (schema versions, tables, columns),
- **RPC202** references to unknown or dropped versions/tables,
- **RPC203** SMOs that do not apply to their source tables,
- **RPC204** information-loss warnings for non-invertible SMOs,
- **RPC205/RPC206** overlap/gap between partition conditions, probed on
  a sample grid of the literals they mention (the engine's 3-valued logic),
- **RPC207** MATERIALIZE target sets the engine refuses.

Each code comes from the type of the error the engine's own code raises.
The analysis is best-effort on a broken chain: a refused SMO leaves the
working schema as it was and the analysis goes on, so one mistake does
not drown the rest of the script in noise.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, is_dataclass

from repro.bidel.ast import (
    CreateSchemaVersion,
    DropColumn,
    DropSchemaVersion,
    DropTable,
    Join,
    Materialize,
    Merge,
    SmoNode,
    Split,
)
from repro.bidel.parser import parse_script
from repro.bidel.smo.registry import source_table_names
from repro.check.diagnostics import Diagnostic
from repro.core.engine import bind_smo
from repro.errors import (EvolutionError, MaterializationError,
                          MissingTableError, ReproError, SchemaError,
                          TableExistsError)
from repro.expr.ast import Expression, Literal, is_true
from repro.relational.schema import TableSchema

#: Working schema: live version name -> table name -> table schema.
Schema = dict[str, dict[str, TableSchema]]

_MAX_SAMPLES = 8192


def preflight_script(engine, text: str) -> list[Diagnostic]:
    """Analyze a BiDEL script against ``engine``'s current catalog (or an
    empty catalog when ``engine`` is ``None``)."""
    try:
        statements = parse_script(text)
    except ReproError as exc:
        return [Diagnostic("RPC200", "error", "<script>", str(exc))]
    diagnostics: list[Diagnostic] = []
    simulate(engine, statements, diagnostics)
    return diagnostics


def simulate(engine, statements, diagnostics: list[Diagnostic]) -> Schema:
    """Run parsed ``statements`` over ``engine``'s catalog, appending the
    findings to ``diagnostics``; returns the working schema they leave."""
    catalog = engine.genealogy.active_versions() if engine is not None else []
    versions: Schema = {
        version.name: {name: tv.schema for name, tv in version.tables.items()}
        for version in catalog
    }
    # The engine never reuses a version name, not even a dropped one.
    taken = set(versions)
    if engine is not None:
        taken |= set(engine.genealogy.schema_versions) | engine.genealogy.retired
    for statement in statements:
        if isinstance(statement, CreateSchemaVersion):
            name, source = statement.name, statement.source
            if name in taken:
                diagnostics.append(Diagnostic(
                    "RPC201", "error", name,
                    f"schema version {name!r} already exists",
                ))
            if source is not None and source not in versions:
                diagnostics.append(Diagnostic(
                    "RPC202", "error", name,
                    f"source schema version {source!r} does not exist or "
                    "was dropped",
                ))
            tables = dict(versions.get(source, {}))
            for smo in statement.smos:
                _apply_smo(name, tables, smo, diagnostics)
            if name not in taken:
                taken.add(name)
                versions[name] = tables
        elif isinstance(statement, DropSchemaVersion):
            if versions.pop(statement.name, None) is None:
                diagnostics.append(Diagnostic(
                    "RPC202", "error", statement.name,
                    f"no such live schema version {statement.name!r} "
                    "(DROP SCHEMA VERSION)",
                ))
        elif isinstance(statement, Materialize):
            _check_materialize(engine, {v.name for v in catalog}, versions,
                               statement, diagnostics)
    return versions


def _check_materialize(engine, catalog: set[str], versions: Schema,
                       statement: Materialize,
                       diagnostics: list[Diagnostic]) -> None:
    """Every target must name a live version (and table); a set naming
    only catalog versions must also pass the engine's own resolution."""
    named = True
    for target in statement.targets:
        version, _, table = target.partition(".")
        if version not in versions:
            problem = "no such live schema version"
        elif table and table not in versions[version]:
            problem = f"version {version!r} has no table {table!r}"
        else:
            continue
        named = False
        diagnostics.append(Diagnostic(
            "RPC202", "error", target,
            f"MATERIALIZE target {target!r}: {problem}",
        ))
    if named and all(t.partition(".")[0] in catalog for t in statement.targets):
        try:
            engine.resolve_materialization(statement.targets)
        except MaterializationError as exc:
            diagnostics.append(Diagnostic(
                "RPC207", "error", ", ".join(statement.targets),
                f"MATERIALIZE refused: {exc}",
            ))


def _apply_smo(version: str, tables: dict[str, TableSchema], node: SmoNode,
               diagnostics: list[Diagnostic]) -> None:
    """Apply ``node`` to ``tables`` as the engine binds it
    (:func:`~repro.core.engine.bind_smo`).  A refused SMO is reported and
    leaves ``tables`` as it was."""
    def report(code: str, table: str, message: str) -> None:
        diagnostics.append(Diagnostic(code, "error", f"{version}.{table}",
                                      message))

    try:
        bind_smo(node, tables)
    except MissingTableError as exc:
        for name in exc.tables:
            report("RPC202", name, f"table {name!r} does not exist at this "
                                   "point of the chain")
        return
    except TableExistsError as exc:
        report("RPC201", exc.table, f"table {exc.table!r} already exists in "
                                    "this version")
        return
    except (SchemaError, EvolutionError) as exc:
        names = source_table_names(node)
        report("RPC201" if isinstance(exc, SchemaError) else "RPC203",
               names[0] if names else node.table, str(exc))
        return
    _judge_loss(version, node, diagnostics)


def _judge_loss(version: str, node: SmoNode,
                diagnostics: list[Diagnostic]) -> None:
    """RPC204–206: what an applied SMO loses or leaves ambiguous."""
    def warn(table: str, message: str) -> None:
        diagnostics.append(Diagnostic(
            "RPC204", "warning", f"{version}.{table}", message
        ))

    if isinstance(node, DropTable):
        warn(node.table, f"dropping table {node.table!r} hides its rows from "
                         "this version; they stay reachable only through "
                         "co-existing versions")
    elif isinstance(node, DropColumn):
        warn(node.table, f"dropping column {node.column!r} is lossy "
                         "backward: rows created in this version "
                         "reconstruct it from the DEFAULT expression")
    elif isinstance(node, Join) and not node.outer:
        warn(node.target, "inner JOIN is lossy: rows without a join partner "
                          "are invisible in the target (use OUTER JOIN to "
                          "keep them)")
    elif isinstance(node, Split) and node.second_condition is None:
        warn(node.first_table, "single-target SPLIT is lossy: rows not "
                               "matching the condition are invisible in the "
                               "new version")
    elif isinstance(node, Split):
        _check_partition(version, node.first_table, node.first_condition,
                         node.second_condition, diagnostics, gap_is_loss=True)
    elif isinstance(node, Merge):
        _check_partition(version, node.target, node.first_condition,
                         node.second_condition, diagnostics, gap_is_loss=False)


# ---------------------------------------------------------------------------
# Partition-condition overlap/gap analysis
# ---------------------------------------------------------------------------


def _sample_values(*conditions: Expression) -> list:
    """Candidate values per column: the literals the conditions mention,
    their numeric neighbours (to probe strict-vs-inclusive boundaries),
    a few generic values, and NULL."""
    values: list = [None, 0, 1, -1]

    def walk(node) -> None:
        if isinstance(node, Literal):
            literal = node.value
            numeric = (isinstance(literal, (int, float))
                       and not isinstance(literal, bool))
            for value in ((literal, literal - 1, literal + 1) if numeric
                          else (literal,)):
                if value not in values:
                    values.append(value)
        elif is_dataclass(node):
            for field in fields(node):
                child = getattr(node, field.name)
                for item in child if isinstance(child, tuple) else (child,):
                    if isinstance(item, Expression):
                        walk(item)

    for condition in conditions:
        walk(condition)
    return values


def _check_partition(version: str, table: str, first: Expression,
                     second: Expression, diagnostics: list[Diagnostic],
                     *, gap_is_loss: bool) -> None:
    columns = sorted(first.columns() | second.columns())
    if not columns:
        return
    values = _sample_values(first, second)
    # Cap the grid: with many columns, probe a per-column slice instead
    # of the full cartesian product.
    while len(values) ** len(columns) > _MAX_SAMPLES and len(values) > 3:
        values = values[:-1]
    overlap_row = gap_row = None
    for combo in itertools.product(values, repeat=len(columns)):
        row = dict(zip(columns, combo))
        try:
            first_hit = is_true(first.evaluate(row))
            second_hit = is_true(second.evaluate(row))
        except ReproError:
            continue
        if overlap_row is None and first_hit and second_hit:
            overlap_row = row
        # NULL satisfies neither side of any comparison pair (3-valued
        # logic), so a NULL witness would flag every split ever written;
        # only a fully non-NULL row counts as a gap.
        if (gap_row is None and not first_hit and not second_hit
                and all(v is not None for v in row.values())):
            gap_row = row
        if overlap_row is not None and gap_row is not None:
            break
    anchor, a, b = f"{version}.{table}", first.to_sql(), second.to_sql()
    if overlap_row is not None:
        diagnostics.append(Diagnostic(
            "RPC205", "warning", anchor, "partition conditions overlap: "
            f"{overlap_row!r} satisfies both ({a}) and ({b})",
        ))
    if gap_row is not None:
        diagnostics.append(Diagnostic(
            "RPC206", "warning", anchor, "partition conditions leave a gap: "
            f"{gap_row!r} satisfies neither ({a}) nor ({b})"
            + (" — such rows are lost" if gap_is_loss else ""),
        ))
