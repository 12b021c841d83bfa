"""Deterministic schema fingerprints for the persistent catalog.

A fingerprint is the SHA-256 of a canonical JSON rendering of the thing it
describes — sorted keys, no whitespace, explicit column order — so the
same logical state always hashes identically regardless of process, dict
iteration quirks, or Python version:

- :func:`version_fingerprint` hashes one schema version's *logical* shape
  (sorted table names, each with its ordered ``(name, type)`` columns and
  engine-assigned key column).  Two schema versions with identical table
  shapes share a fingerprint, which is what lets the catalog store dedup
  serialized snapshots (one row per distinct shape).
- :func:`layout_fingerprint` hashes a *physical* layout — a mapping of
  physical table names to their ordered column tuples — and is computed
  both from the engine's expectation (:func:`engine_layout`) and from an
  actual SQLite file (:func:`sqlite_layout`), so recovery can detect
  drift between the persisted catalog and the tables on disk.
- :func:`smo_fingerprint` hashes one SMO instance: its uid and its BiDEL
  text, parameters included (two SPLITs of one table that differ only in
  their conditions differ here).
- :func:`catalog_fingerprint` combines these with the genealogy order
  and materialization choice into one identity for the whole catalog;
  it is what ``stats()``/``status`` report and what a second process
  compares to detect that the catalog it replayed is the one on disk.

Fingerprint stability across runs leans on two engine invariants: schema
versions iterate in insertion (genealogy) order, and table-version /
SMO-instance uids are assigned deterministically by that same order.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.genealogy import SmoInstance
    from repro.catalog.versions import SchemaVersion
    from repro.core.engine import InVerDa

#: Physical layout entries begin with the hidden row identifier.
ID_COLUMN = "p"


def digest(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def version_payload(version: "SchemaVersion") -> dict:
    """The canonical (JSON-ready) shape of one schema version."""
    return {
        "tables": {
            name: {
                "columns": [[c.name, c.dtype.value] for c in tv.schema.columns],
                "key_column": tv.key_column,
            }
            for name, tv in sorted(version.tables.items())
        }
    }


def version_fingerprint(version: "SchemaVersion") -> str:
    """Hashed once per :class:`SchemaVersion` object: a version's shape
    never changes after its creation, and recovery replays into new
    objects, so nothing remembered here outlives what it describes."""
    if version.fingerprint is None:
        version.fingerprint = digest(version_payload(version))
    return version.fingerprint


def smo_fingerprint(smo: "SmoInstance") -> str:
    """Hashed once per :class:`SmoInstance` object, like
    :func:`version_fingerprint`: its uid and operation never change."""
    if smo.fingerprint is None:
        smo.fingerprint = digest([smo.uid, smo.node.unparse()])
    return smo.fingerprint


def engine_layout(engine: "InVerDa") -> dict[str, tuple[str, ...]]:
    """The physical layout the engine believes in: every stored table
    (data, auxiliary, staging scaffolding excluded — it is recreated by
    ``regenerate``) with its full column tuple including the id column."""
    return {
        name: (ID_COLUMN, *table.schema.column_names)
        for name, table in sorted(engine.database.tables.items())
    }


def layout_fingerprint(layout: Mapping[str, Sequence[str]]) -> str:
    return digest({name: list(columns) for name, columns in sorted(layout.items())})


def sqlite_layout(
    connection: sqlite3.Connection, names: Sequence[str]
) -> dict[str, tuple[str, ...]]:
    """{table: ordered columns} for each of ``names`` present in the
    SQLite database behind ``connection`` (absent tables are omitted)."""
    layout: dict[str, tuple[str, ...]] = {}
    for name in names:
        rows = connection.execute(
            "SELECT name FROM pragma_table_info(?) ORDER BY cid", (name,)
        ).fetchall()
        if rows:
            layout[name] = tuple(row[0] for row in rows)
    return layout


def catalog_fingerprint(engine: "InVerDa") -> str:
    """One identity for the whole catalog: genealogy (names, parents,
    shapes, drop flags, in insertion order), every SMO instance (uid and
    BiDEL text), the materialization choice, and the physical layout it
    implies."""
    genealogy = engine.genealogy
    payload = {
        "versions": [
            [v.name, v.parent, bool(v.dropped), version_fingerprint(v)]
            for v in genealogy.schema_versions.values()
        ],
        "smos": [smo_fingerprint(smo) for smo in genealogy.all_smos()],
        "materialized": sorted(
            smo.uid for smo in genealogy.evolution_smos() if smo.materialized
        ),
        "layout": layout_fingerprint(engine_layout(engine)),
    }
    return digest(payload)
