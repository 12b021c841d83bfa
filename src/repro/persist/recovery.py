"""Rebuilding a live engine from a database's persisted catalog.

Recovery replays the stored catalog log through a fresh engine: every
``evolution`` entry re-executes its BiDEL text (with the genealogy's uid
counters seeded from the entry, so table-version and SMO uids — and the
physical names that embed them — come out exactly as they were), every
``materialize`` entry re-applies the stored SMO set, every ``drop``
entry re-runs the drop (whose garbage collection and retirement reproduce
the original decisions, because the materialization state at that log
position is the original one), and a ``retired`` entry — the tail of a
compacted log — restores the retired names and the uid counters.

After the replay, recovery *verifies* before it trusts:

- every persisted schema version must exist in the replayed genealogy
  with its stored parent and dropped flag, and its recomputed
  fingerprint must match the stored one (detects log corruption) — or,
  stored as dropped, have been retired by the replay;
- every physical table the replayed catalog expects must exist in the
  SQLite file with exactly the expected columns (detects drift — tables
  dropped, renamed, or altered behind the catalog's back).

A mismatch raises :class:`~repro.errors.CatalogCorruptError` naming every
problem.  ``repair=True`` recreates missing physical tables as empty and
proceeds when that resolves everything; ``force=True`` skips verification
entirely (the escape hatch for forensics on a damaged file).  The third
gate — the static delta-code verifier, or the ``verified_at`` mark standing
in for it — belongs to the backend that owns the installed code
(:meth:`LiveSqliteBackend._verify_on_open`).
"""

from __future__ import annotations

import os
import sqlite3
import time
from typing import TYPE_CHECKING

from repro.bidel.ast import CreateSchemaVersion
from repro.bidel.parser import parse_script
from repro.errors import CatalogCorruptError, CatalogError, ReproError
from repro.obs.timing import ms_since
from repro.persist.fingerprint import (
    engine_layout,
    sqlite_layout,
    version_fingerprint,
    version_payload,
)
from repro.persist.store import CatalogState, CatalogStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import InVerDa


def database_has_catalog(database: str) -> bool:
    """Does the SQLite file at ``database`` carry a persisted catalog?
    (``False`` for missing files; never creates one.)"""
    if database == ":memory:" or not os.path.exists(database):
        return False
    try:
        connection = sqlite3.connect(
            f"file:{database}?mode=ro", uri=True, timeout=5.0
        )
    except sqlite3.Error:
        return False
    try:
        return CatalogStore.has_catalog(connection)
    finally:
        connection.close()


def replay_into(engine: "InVerDa", entries: list[dict]) -> None:
    """Replay a catalog log through ``engine`` (expected to be fresh: no
    schema versions, no attached backends)."""
    genealogy = engine.genealogy
    for entry in entries:
        kind = entry["kind"]
        if kind == "evolution":
            if entry.get("table_uid") is not None:
                genealogy._next_table_uid = entry["table_uid"]
            if entry.get("smo_uid") is not None:
                genealogy._next_smo_uid = entry["smo_uid"]
            if entry.get("bidel"):
                (statement,) = parse_script(entry["bidel"])
            else:
                # A version whose SMOs were all garbage-collected before
                # persistence began: an empty copy of its source.
                statement = CreateSchemaVersion(entry["name"], entry["source"], ())
            engine.create_schema_version(statement)
        elif kind == "materialize":
            smos = []
            for uid in entry["smos"]:
                smo = genealogy.smo_instances.get(uid)
                if smo is None:
                    raise CatalogCorruptError(
                        f"catalog log references unknown SMO #{uid} in a "
                        "MATERIALIZE entry"
                    )
                smos.append(smo)
            engine.apply_materialization(frozenset(smos))
        elif kind == "drop":
            engine.drop_schema_version(entry["name"])
        elif kind == "retired":
            genealogy.retired.update(entry["names"])
            genealogy._next_table_uid = entry["table_uid"]
            genealogy._next_smo_uid = entry["smo_uid"]
        else:
            raise CatalogCorruptError(f"unknown catalog log entry kind {kind!r}")


def catalog_identity(engine: "InVerDa") -> tuple:
    """What a replay of the catalog log must reproduce: what the catalog
    fingerprint hashes (versions, materialization, physical layout —
    compared, not hashed), every uid the physical names embed, the retired
    names and the uid counters."""
    genealogy = engine.genealogy
    return (
        [
            (v.name, v.parent, v.dropped, version_payload(v))
            for v in genealogy.schema_versions.values()
        ],
        sorted(smo.uid for smo in genealogy.evolution_smos() if smo.materialized),
        engine_layout(engine),
        sorted(genealogy.smo_instances),
        sorted(genealogy.table_versions),
        sorted(genealogy.retired),
        genealogy._next_table_uid,
        genealogy._next_smo_uid,
    )


def replays_to(engine: "InVerDa", entries: list[tuple[str, dict]]) -> bool:
    """Does the log ``entries`` replay, through a fresh engine, to exactly
    ``engine``'s catalog (:func:`catalog_identity`)?"""
    from repro.core.engine import InVerDa

    replica = InVerDa()
    try:
        replay_into(replica, [{"kind": kind, **payload} for kind, payload in entries])
    except ReproError:
        return False
    return catalog_identity(replica) == catalog_identity(engine)


def verify_catalog(engine: "InVerDa", state: CatalogState) -> list[str]:
    """Replayed genealogy vs the stored per-version records."""
    problems: list[str] = []
    for record in state.versions:
        version = engine.genealogy.schema_versions.get(record.name)
        if version is None:
            if record.dropped and record.name in engine.genealogy.retired:
                continue  # a row written before retirement; the replay retired it
            problems.append(
                f"persisted schema version {record.name!r} did not come back "
                "from the log replay"
            )
            continue
        if bool(version.dropped) != record.dropped:
            problems.append(
                f"schema version {record.name!r}: dropped flag diverged "
                f"(stored {record.dropped}, replayed {version.dropped})"
            )
        if version.parent != record.parent:
            problems.append(
                f"schema version {record.name!r}: parent diverged "
                f"(stored {record.parent!r}, replayed {version.parent!r})"
            )
        replayed = version_fingerprint(version)
        if replayed != record.fingerprint:
            problems.append(
                f"schema version {record.name!r}: fingerprint mismatch "
                f"(stored {record.fingerprint[:12]}…, replayed {replayed[:12]}…)"
            )
    return problems


def verify_layout(
    engine: "InVerDa",
    connection: sqlite3.Connection,
    *,
    repair: bool = False,
) -> list[str]:
    """Every physical table the catalog expects vs the SQLite file.

    With ``repair=True`` missing tables are recreated empty (their
    contents are gone, but the catalog becomes servable again); column
    mismatches are never repairable — the data's meaning is unknown.
    """
    from repro.backend.emit import table_ddl

    expected = engine_layout(engine)
    actual = sqlite_layout(connection, list(expected))
    problems: list[str] = []
    for name, columns in expected.items():
        if name not in actual:
            if repair:
                in_memory = engine.database.table(name)
                connection.execute(
                    table_ddl(name, in_memory.schema.column_names)
                )
                continue
            problems.append(f"physical table {name!r} is missing from the database")
        elif tuple(actual[name]) != tuple(columns):
            problems.append(
                f"physical table {name!r} drifted: catalog expects columns "
                f"{list(columns)}, database has {list(actual[name])}"
            )
    return problems


def recover(
    engine: "InVerDa",
    connection: sqlite3.Connection,
    *,
    repair: bool = False,
    force: bool = False,
    phases: dict | None = None,
) -> CatalogState:
    """Rebuild ``engine`` (fresh) from the catalog persisted on
    ``connection``'s database, verifying fingerprints and physical layout.

    Returns the loaded :class:`CatalogState` so the caller can decide
    whether the installed delta code is still current and verified;
    ``phases`` receives ``replay_ms`` and ``verify_catalog_ms``."""
    if engine.genealogy.schema_versions:
        raise CatalogError(
            "recover() needs a fresh engine; this one already has "
            f"{len(engine.genealogy.schema_versions)} schema versions"
        )
    phases = {} if phases is None else phases
    started = time.perf_counter()
    state = CatalogStore(connection).load()
    replay_into(engine, state.entries)
    # Recovery rebuilds a fresh, unshared engine; no session can hold
    # the read side yet.
    engine.catalog_generation = state.generation  # repro-lint: allow(RPC302)
    phases["replay_ms"] = ms_since(started)
    replayed = time.perf_counter()
    if not force:
        problems = verify_catalog(engine, state)
        problems += verify_layout(engine, connection, repair=repair)
        if problems:
            raise CatalogCorruptError(
                "the persisted catalog does not match this database "
                "(pass repair=True to recreate missing tables empty, or "
                "force=True to skip verification):\n- " + "\n- ".join(problems)
            )
        phases["verify_catalog_ms"] = ms_since(replayed)
    engine.metrics.counter(
        "repro_recoveries_total", "Completed catalog recoveries."
    ).inc()
    # Recovery moves catalog_generation outside a transition, so the
    # gauge must follow it here.
    engine.metrics.gauge(
        "repro_catalog_generation",
        "Current catalog generation (bumped on every transition).",
    ).set(engine.catalog_generation)
    return state


def open_database(
    database: str,
    *,
    create: bool = True,
    repair: bool = False,
    force: bool = False,
    **attach_options,
) -> "InVerDa":
    """Reconstruct a ready engine from a SQLite file: ``repro.open``.

    If ``database`` carries a persisted catalog, the engine is rebuilt
    from it (genealogy, materialization, durable generation) and served
    by a :class:`~repro.backend.sqlite.LiveSqliteBackend` reusing the
    file's physical tables and — when still current — its installed
    views and triggers.  A bare or missing file starts an empty,
    persistence-enabled database (``create=False`` forbids that and
    raises instead).  ``attach_options`` are passed through to
    :meth:`LiveSqliteBackend.attach` (``pool_size``, ``busy_timeout``, ...).
    """
    from repro.backend.sqlite import LiveSqliteBackend
    from repro.core.engine import InVerDa

    if not create and not database_has_catalog(database):
        raise CatalogError(
            f"{database!r} carries no persisted catalog "
            "(pass create=True to start a new one)"
        )
    engine = InVerDa()
    LiveSqliteBackend.attach(
        engine, database=database, repair=repair, force=force, **attach_options
    )
    return engine
