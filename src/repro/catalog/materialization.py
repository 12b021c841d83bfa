"""Materialization schemas: where the data physically lives (Section 7).

The materialization states of all SMO instances form the *materialization
schema* ``M``; it determines the *physical table schema* ``P`` (the set of
table versions whose data tables exist). The paper's validity conditions:

- (55) every source table version of a materialized SMO must itself be fed
  by a materialized SMO (CREATE TABLE SMOs count as always materialized);
- (56) no source table version of a materialized SMO may be consumed by
  another materialized SMO.

``P`` then contains exactly the table versions whose incoming SMO is
materialized (or initial) and that have no outgoing materialized SMO —
reproducing Table 2 for the TasKy example (including the ``{SPLIT} →
{Todo-0}`` row, which the provided paper text garbles as ``{Task-0}``).
Beside those data tables, each SMO stores the auxiliary tables of the side
``M`` leaves stored, and its shared ones; :func:`physical_layout` is the
one place that decision is made.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.catalog.genealogy import Genealogy, SmoInstance, TableVersion
from repro.errors import MaterializationError
from repro.relational.schema import TableSchema

MaterializationSchema = frozenset[SmoInstance]


def _incoming_materialized(tv: TableVersion, materialized: MaterializationSchema) -> bool:
    return tv.incoming is not None and (tv.incoming.is_initial or tv.incoming in materialized)


def validate_materialization(
    genealogy: Genealogy, materialized: Iterable[SmoInstance]
) -> MaterializationSchema:
    """Check conditions (55) and (56); returns the normalized schema."""
    schema = frozenset(smo for smo in materialized if not smo.is_initial)
    for smo in schema:
        for source in smo.sources:
            if not _incoming_materialized(source, schema):
                raise MaterializationError(
                    f"condition (55) violated: source {source.name!r} of "
                    f"{smo!r} is not materialized"
                )
            for other in source.outgoing:
                if other is smo or other.is_initial:
                    continue
                if other in schema:
                    raise MaterializationError(
                        f"condition (56) violated: {source.name!r} feeds both "
                        f"{smo!r} and {other!r}"
                    )
    return schema


def physical_table_versions(
    genealogy: Genealogy, materialized: MaterializationSchema
) -> list[TableVersion]:
    """The physical table schema ``P`` implied by ``M`` (Table 2)."""
    physical: list[TableVersion] = []
    for uid in sorted(genealogy.table_versions):
        tv = genealogy.table_versions[uid]
        if not _incoming_materialized(tv, materialized):
            continue
        if any(
            (not out.is_initial) and out in materialized for out in tv.outgoing
        ):
            continue
        physical.append(tv)
    return physical


def physical_layout(
    genealogy: Genealogy, materialized: MaterializationSchema
) -> dict[str, TableSchema]:
    """Every physical table ``M`` stores, by name: the data tables of ``P``
    (by table version), then each evolution SMO's auxiliary tables — those
    of its target side when it is materialized, of its source side when
    not, and its shared ones either way."""
    layout = {
        tv.data_table_name: tv.data_table_schema
        for tv in physical_table_versions(genealogy, materialized)
    }
    for smo in genealogy.evolution_smos():
        aux = smo.aux_schemas
        for schema in (*aux["target" if smo in materialized else "source"].values(),
                       *aux["shared"].values()):
            layout[schema.name] = schema
    return layout


def current_materialization(genealogy: Genealogy) -> MaterializationSchema:
    return frozenset(smo for smo in genealogy.evolution_smos() if smo.materialized)


def enumerate_valid_materializations(genealogy: Genealogy) -> list[MaterializationSchema]:
    """All valid materialization schemas (five for the TasKy example).

    The number is bounded below by linear SMO chains (N+1 for a chain of N)
    and above by independent SMOs (2^N), as discussed in Section 8.3. The
    enumeration prunes using condition (55): a valid schema is closed under
    "incoming SMO of every source is materialized", so candidates grow
    along the genealogy only.
    """
    smos = genealogy.evolution_smos()
    valid: list[MaterializationSchema] = []
    # For realistic genealogy sizes in benchmarks this brute force would be
    # 2^N; instead grow schemas incrementally: start from the empty schema
    # and repeatedly try to extend with one more SMO whose preconditions
    # already hold.
    seen: set[MaterializationSchema] = set()
    frontier: list[MaterializationSchema] = [frozenset()]
    seen.add(frozenset())
    while frontier:
        schema = frontier.pop()
        valid.append(schema)
        for smo in smos:
            if smo in schema:
                continue
            candidate = schema | {smo}
            if frozenset(candidate) in seen:
                continue
            try:
                normalized = validate_materialization(genealogy, candidate)
            except MaterializationError:
                continue
            if normalized not in seen:
                seen.add(normalized)
                frontier.append(normalized)
    valid.sort(key=lambda schema: (len(schema), sorted(smo.uid for smo in schema)))
    return valid


def materialization_for_versions(
    genealogy: Genealogy, table_versions: Iterable[TableVersion]
) -> MaterializationSchema:
    """Derive the materialization schema that puts exactly the given table
    versions into the physical table schema (the MATERIALIZE command).

    Every SMO on the path from the initial tables to a requested table
    version must be materialized; everything else stays virtual. Validity
    is checked afterwards, so requesting an inconsistent set (e.g. both
    ``Do!`` and ``TasKy2`` table versions that compete for ``Task``) fails
    with a clear error.
    """
    requested = list(table_versions)
    schema: set[SmoInstance] = set()
    stack = list(requested)
    while stack:
        tv = stack.pop()
        smo = tv.incoming
        if smo is None or smo.is_initial:
            continue
        if smo not in schema:
            schema.add(smo)
            stack.extend(smo.sources)
    normalized = validate_materialization(genealogy, schema)
    physical = set(physical_table_versions(genealogy, normalized))
    missing = [tv for tv in requested if tv not in physical]
    if missing:
        names = ", ".join(f"{tv.name} (#{tv.uid})" for tv in missing)
        raise MaterializationError(
            f"requested table versions are not the tips of the resulting "
            f"materialization schema: {names}"
        )
    return normalized
