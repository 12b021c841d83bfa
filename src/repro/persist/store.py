"""The durable catalog: ``_repro_catalog_*`` tables inside the database.

The engine's version genealogy, SMO chains, materialization choice, and
catalog generation are database state (the paper's premise: the catalog of
schema versions *is* the database).  :class:`CatalogStore` writes them into
the same SQLite file that holds the physical tables, inside the same
transaction as the DDL they describe, so a crash mid-transition leaves
either the old or the new catalog — never a torn one.

Tables
------

``_repro_catalog_meta``
    key/value: ``format_version`` (forward compatibility), ``generation``
    (the engine's monotonic catalog generation), ``fingerprint`` (the
    whole-catalog fingerprint), ``delta_generation`` (the generation
    the installed delta code was generated for) and ``delta_emission``
    (the emitter revision that wrote it) — together the key for
    idempotent reuse on re-attach — and ``verified_at``, the mark left
    after a zero-error verdict of the static verifier (``{"digest",
    "generation", "summary"}``, :func:`repro.check.delta.verified_digest`):
    an open that finds the digest unchanged skips the verifier.

``_repro_catalog_log``
    The catalog log, one row per catalog transition in chronological
    order: ``evolution`` rows carry the version's BiDEL text plus the uid
    counters to seed before replaying it (so physical names, which embed
    uids, come out identical even across garbage-collected gaps);
    ``materialize`` rows carry the materialized SMO uid set; ``drop`` rows
    the dropped version name; a ``retired`` row the names of the dropped
    versions that left the catalog and the uid counters' high-water marks.
    Recovery replays this log through a fresh engine.  A drop that leaves
    the log more than twice as long as :func:`snapshot_entries` compacts
    it: the log is rewritten as that snapshot (:meth:`CatalogStore.compact`).

``_repro_catalog_versions`` / ``_repro_catalog_schemas``
    Per-version bookkeeping (genealogy position, parent, dropped flag)
    referencing deduplicated schema snapshots keyed by their
    deterministic fingerprint: versions with identical table shapes share
    one serialized snapshot row.

``_repro_catalog_backfill``
    The online-MATERIALIZE journal: at most one row describing an
    in-flight move (target SMO set, staged-table plan, per-table chunk
    cursors, phase).  Written in the prepare transaction, advanced in the
    same transaction as each backfill chunk, and deleted in the cutover
    transaction — so after a crash the row is exactly as stale as the
    physical staging tables, and :func:`repro.open` can resume the move
    from the recorded cursor (or roll the prepare back).
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bidel.ast import CreateSchemaVersion
from repro.errors import CatalogError
from repro.persist.fingerprint import (
    catalog_fingerprint,
    digest,
    version_fingerprint,
    version_payload,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.versions import SchemaVersion
    from repro.core.engine import InVerDa

#: Bump when the catalog serialization format changes incompatibly
#: (2: the ``retired`` log entry; the log is compacted, not append-only).
FORMAT_VERSION = 2

META_TABLE = "_repro_catalog_meta"
LOG_TABLE = "_repro_catalog_log"
VERSIONS_TABLE = "_repro_catalog_versions"
SCHEMAS_TABLE = "_repro_catalog_schemas"
BACKFILL_TABLE = "_repro_catalog_backfill"

_BACKFILL_DDL = (
    f"CREATE TABLE IF NOT EXISTS {BACKFILL_TABLE} "
    "(id INTEGER PRIMARY KEY CHECK (id = 1), phase TEXT NOT NULL, "
    "generation INTEGER NOT NULL, smos TEXT NOT NULL, plan TEXT NOT NULL, "
    "cursors TEXT NOT NULL, chunks INTEGER NOT NULL DEFAULT 0)"
)

_DDL = [
    f"CREATE TABLE IF NOT EXISTS {META_TABLE} "
    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    f"CREATE TABLE IF NOT EXISTS {LOG_TABLE} "
    "(seq INTEGER PRIMARY KEY, kind TEXT NOT NULL, payload TEXT NOT NULL)",
    f"CREATE TABLE IF NOT EXISTS {SCHEMAS_TABLE} "
    "(fingerprint TEXT PRIMARY KEY, snapshot TEXT NOT NULL)",
    f"CREATE TABLE IF NOT EXISTS {VERSIONS_TABLE} "
    "(position INTEGER PRIMARY KEY, name TEXT UNIQUE NOT NULL, parent TEXT, "
    "dropped INTEGER NOT NULL DEFAULT 0, "
    f"fingerprint TEXT NOT NULL REFERENCES {SCHEMAS_TABLE}(fingerprint))",
    _BACKFILL_DDL,
]


@dataclass
class VersionRecord:
    position: int
    name: str
    parent: str | None
    dropped: bool
    fingerprint: str


@dataclass
class BackfillRecord:
    """One in-flight online-MATERIALIZE move, as journaled on disk."""

    phase: str
    generation: int
    smos: list[int]
    plan: dict
    cursors: dict[str, int]
    chunks: int


@dataclass
class CatalogState:
    """Everything :meth:`CatalogStore.load` reads back from a database."""

    format_version: int
    generation: int
    fingerprint: str | None
    delta_generation: int | None
    delta_emission: int | None
    entries: list[dict] = field(default_factory=list)
    versions: list[VersionRecord] = field(default_factory=list)
    #: SHA-256 over the log rows as stored: an entry edited in place
    #: changes it even when it still parses and replays to the same shapes.
    log_digest: str = ""
    verified: dict = field(default_factory=dict)  # the mark; {} if unreadable


def evolution_entry(engine: "InVerDa", version: "SchemaVersion") -> dict:
    """The log entry recreating ``version``: its BiDEL text (rebuilt from
    the catalog, so one code path serves live recording and snapshot
    synthesis alike) plus the uid counters to seed before replaying."""
    smos = [
        smo for smo in engine.genealogy.all_smos() if smo.evolution == version.name
    ]
    statement = CreateSchemaVersion(
        version.name, version.parent, tuple(smo.node for smo in smos)
    )
    return {
        "name": version.name,
        "source": version.parent,
        "bidel": statement.unparse() if smos else None,
        "table_uid": min(
            (tv.uid for smo in smos for tv in smo.targets), default=None
        ),
        "smo_uid": min((smo.uid for smo in smos), default=None),
    }


def snapshot_entries(engine: "InVerDa") -> list[tuple[str, dict]]:
    """Synthesize a complete catalog log from the engine's current state
    (used when persistence starts on a catalog that predates it, and by
    :meth:`CatalogStore.compact`).

    The synthesized order — every version creation in genealogy order,
    then the current materialization, then the drops, then (once anything
    was dropped) the ``retired`` entry — replays to the same catalog: SMO
    instances the original drops garbage-collected are simply absent from
    their version's entry, uid seeds bridge the gaps, retired versions are
    absent altogether and the ``retired`` entry restores their names and
    the uid counters.  Where a surviving SMO of a dropped version survived
    for a reason the final materialization no longer gives, the replayed
    drop decides differently; :func:`repro.persist.recovery.replays_to`
    tells, and compaction checks it.
    """
    genealogy = engine.genealogy
    entries: list[tuple[str, dict]] = []
    for version in genealogy.schema_versions.values():
        entries.append(("evolution", evolution_entry(engine, version)))
    materialized = sorted(
        smo.uid for smo in genealogy.evolution_smos() if smo.materialized
    )
    if materialized:
        entries.append(("materialize", {"smos": materialized}))
    dropped = [v.name for v in genealogy.schema_versions.values() if v.dropped]
    entries += [("drop", {"name": name}) for name in dropped]
    if dropped or genealogy.retired:
        entries.append((
            "retired",
            {
                "names": sorted(genealogy.retired),
                "table_uid": genealogy._next_table_uid,
                "smo_uid": genealogy._next_smo_uid,
            },
        ))
    return entries


def snapshot_length(engine: "InVerDa") -> int:
    """``len(snapshot_entries(engine))``, counted from the genealogy
    without building (and unparsing) a single entry."""
    genealogy = engine.genealogy
    versions = genealogy.schema_versions.values()
    dropped = sum(version.dropped for version in versions)
    materialized = any(smo.materialized for smo in genealogy.evolution_smos())
    return len(versions) + materialized + dropped + bool(dropped or genealogy.retired)


class CatalogStore:
    """Reads and writes the ``_repro_catalog_*`` tables on one SQLite
    connection.  Writes never commit: they join whatever transaction the
    caller (the live backend's catalog-transition hooks) has open, so the
    catalog rows and the DDL they describe are atomic together."""

    def __init__(self, connection: sqlite3.Connection):
        self.connection = connection

    # ------------------------------------------------------------------
    # Presence and installation
    # ------------------------------------------------------------------

    @staticmethod
    def has_catalog(connection: sqlite3.Connection) -> bool:
        row = connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (META_TABLE,),
        ).fetchone()
        return row is not None

    def install(self) -> None:
        for statement in _DDL:
            self.connection.execute(statement)

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------

    def _set_meta(self, values: dict[str, object]) -> None:
        """Write every key of ``values`` — one statement."""
        rows = ", ".join("(?, ?)" for _ in values)
        self.connection.execute(
            f"INSERT OR REPLACE INTO {META_TABLE} (key, value) VALUES {rows}",
            [item for key, value in values.items() for item in (key, json.dumps(value))],
        )

    def _get_meta(self, key: str, default=None):
        row = self.connection.execute(
            f"SELECT value FROM {META_TABLE} WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else json.loads(row[0])

    def read_generation(self) -> int | None:
        """The on-disk catalog generation — cheap enough to poll, and (on
        a WAL database) always the latest committed value, so a process
        can detect that *another* process moved the shared catalog."""
        if not self.has_catalog(self.connection):
            return None
        return self._get_meta("generation")

    def set_delta_meta(self, generation: int, emission: int) -> None:
        """Record which catalog generation the installed views/triggers
        were generated for, and by which emitter revision
        (``codegen.EMISSION_STAMP``); re-attach skips regeneration while
        both still match.  A file without the stamp predates it: stale.
        The two rows are one stamp, written by one statement."""
        self._set_meta({"delta_generation": generation, "delta_emission": emission})

    def write_meta(self, engine: "InVerDa", delta_key: tuple[int, int] | None = None) -> None:
        """Describe the catalog in the meta rows — format, generation,
        fingerprint — and, given ``delta_key``, stamp the delta code
        installed for it (:meth:`set_delta_meta`): one statement, the one
        meta write of a catalog transition."""
        values: dict[str, object] = {
            "format_version": FORMAT_VERSION,
            "generation": engine.catalog_generation,
            "fingerprint": catalog_fingerprint(engine),
        }
        if delta_key is not None:
            values["delta_generation"], values["delta_emission"] = delta_key
        self._set_meta(values)

    def set_verified(self, mark: dict) -> None:
        self._set_meta({"verified_at": mark})

    # ------------------------------------------------------------------
    # Recording catalog transitions
    # ------------------------------------------------------------------

    def _append_log(self, kind: str, payload: dict) -> int:
        """Append one entry; returns its ``seq`` — the log's length, since
        ``seq`` runs from 1 without gaps (a rewrite starts it again)."""
        (seq,) = self.connection.execute(
            f"INSERT INTO {LOG_TABLE} (seq, kind, payload) VALUES "
            f"((SELECT COALESCE(MAX(seq), 0) + 1 FROM {LOG_TABLE}), ?, ?) "
            "RETURNING seq",
            (kind, json.dumps(payload)),
        ).fetchone()
        return seq

    def log_size(self) -> int:
        return self.connection.execute(f"SELECT COUNT(*) FROM {LOG_TABLE}").fetchone()[0]

    def _write_version_row(self, version: "SchemaVersion") -> None:
        """Record a version at the next free position: a retired version's
        row may still hold an earlier one (a rewrite renumbers)."""
        fingerprint = version_fingerprint(version)
        self.connection.execute(
            f"INSERT OR IGNORE INTO {SCHEMAS_TABLE} (fingerprint, snapshot) "
            "VALUES (?, ?)",
            (fingerprint, json.dumps(version_payload(version))),
        )
        self.connection.execute(
            f"INSERT INTO {VERSIONS_TABLE} "
            "(position, name, parent, dropped, fingerprint) VALUES "
            f"((SELECT COALESCE(MAX(position), -1) + 1 FROM {VERSIONS_TABLE}), "
            "?, ?, ?, ?)",
            (version.name, version.parent, int(version.dropped), fingerprint),
        )

    # The record_* methods write log and version rows; the transition
    # that calls one refreshes the meta rows once, last (:meth:`write_meta`).

    def record_evolution(self, engine: "InVerDa", version: "SchemaVersion") -> None:
        self._append_log("evolution", evolution_entry(engine, version))
        self._write_version_row(version)

    def record_materialize(self, engine: "InVerDa") -> None:
        materialized = sorted(
            smo.uid for smo in engine.genealogy.evolution_smos() if smo.materialized
        )
        self._append_log("materialize", {"smos": materialized})

    def record_drop(self, name: str) -> int:
        """Record a drop; returns the log's length after it."""
        length = self._append_log("drop", {"name": name})
        self.connection.execute(
            f"UPDATE {VERSIONS_TABLE} SET dropped = 1 WHERE name = ?", (name,)
        )
        return length

    def compact(self, engine: "InVerDa", log_length: int) -> bool:
        """Rewrite a log of ``log_length`` entries as :func:`snapshot_entries`
        once it holds more than twice as many (:func:`snapshot_length`), and
        only when that snapshot replays to this very catalog.  Joins the
        caller's transaction (the drop's); returns whether it rewrote."""
        from repro.persist.recovery import replays_to

        if log_length <= 2 * snapshot_length(engine):
            return False
        entries = snapshot_entries(engine)
        if not replays_to(engine, entries):
            return False
        self._rewrite(engine, entries)
        return True

    def _rewrite(self, engine: "InVerDa", entries: list[tuple[str, dict]]) -> None:
        """Replace log and version rows with ``entries`` and the engine's
        versions (renumbered in genealogy order), and delete the schema
        snapshots no version references any more.  The meta rows describe
        the catalog, not its log: the caller refreshes them."""
        for table in (LOG_TABLE, VERSIONS_TABLE):
            self.connection.execute(f"DELETE FROM {table}")
        for kind, payload in entries:
            self._append_log(kind, payload)
        for version in engine.genealogy.schema_versions.values():
            self._write_version_row(version)
        self.connection.execute(
            f"DELETE FROM {SCHEMAS_TABLE} WHERE fingerprint NOT IN "
            f"(SELECT fingerprint FROM {VERSIONS_TABLE})"
        )

    # ------------------------------------------------------------------
    # The online-MATERIALIZE backfill journal
    # ------------------------------------------------------------------

    def write_backfill(self, record: BackfillRecord) -> None:
        """Journal a new in-flight move (the prepare transaction).  A file
        persisted before the journal existed gains its table here."""
        self.connection.execute(_BACKFILL_DDL)
        self.connection.execute(
            f"INSERT OR REPLACE INTO {BACKFILL_TABLE} "
            "(id, phase, generation, smos, plan, cursors, chunks) "
            "VALUES (1, ?, ?, ?, ?, ?, ?)",
            (
                record.phase,
                record.generation,
                json.dumps(record.smos),
                json.dumps(record.plan),
                json.dumps(record.cursors),
                record.chunks,
            ),
        )

    def update_backfill(self, *, cursors: dict[str, int], chunks: int) -> None:
        """Advance the journaled move; joins the caller's chunk transaction
        so cursor and copied rows commit (or vanish) together."""
        self.connection.execute(
            f"UPDATE {BACKFILL_TABLE} SET cursors = ?, chunks = ? WHERE id = 1",
            (json.dumps(cursors), chunks),
        )

    def read_backfill(self) -> BackfillRecord | None:
        """The journaled in-flight move, or ``None`` when none is pending
        (including on databases that predate the journal table) — in one
        statement: every catalog transition asks before it commits."""
        try:
            row = self.connection.execute(
                f"SELECT phase, generation, smos, plan, cursors, chunks "
                f"FROM {BACKFILL_TABLE} WHERE id = 1"
            ).fetchone()
        except sqlite3.OperationalError as exc:
            if "no such table" not in str(exc):
                raise
            return None
        if row is None:
            return None
        phase, generation, smos, plan, cursors, chunks = row
        return BackfillRecord(
            phase=phase,
            generation=generation,
            smos=json.loads(smos),
            plan=json.loads(plan),
            cursors=json.loads(cursors),
            chunks=chunks,
        )

    def clear_backfill(self) -> None:
        """Drop the journal row (the cutover or rollback transaction; the
        table exists whenever there is a move to clear)."""
        self.connection.execute(f"DELETE FROM {BACKFILL_TABLE}")

    def save_snapshot(self, engine: "InVerDa") -> None:
        """(Re)write the whole catalog from the engine's current state —
        the first persist of an engine that predates the store."""
        self.install()
        self.connection.execute(f"DELETE FROM {META_TABLE}")
        self._rewrite(engine, snapshot_entries(engine))
        self.write_meta(engine)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self) -> CatalogState:
        if not self.has_catalog(self.connection):
            raise CatalogError("this database carries no persisted catalog")
        format_version = self._get_meta("format_version", 0)
        if format_version > FORMAT_VERSION:
            raise CatalogError(
                f"catalog format {format_version} is newer than this library "
                f"understands (max {FORMAT_VERSION}); upgrade repro to open it"
            )
        rows = self.connection.execute(
            f"SELECT kind, payload FROM {LOG_TABLE} ORDER BY seq"
        ).fetchall()
        entries = [{"kind": kind, **json.loads(payload)} for kind, payload in rows]
        try:
            verified = self._get_meta("verified_at")
        except ValueError:  # a mark that does not parse vouches for nothing
            verified = None
        versions = [
            VersionRecord(position, name, parent, bool(dropped), fingerprint)
            for position, name, parent, dropped, fingerprint in self.connection.execute(
                f"SELECT position, name, parent, dropped, fingerprint "
                f"FROM {VERSIONS_TABLE} ORDER BY position"
            )
        ]
        return CatalogState(
            format_version=format_version,
            generation=self._get_meta("generation", 0),
            fingerprint=self._get_meta("fingerprint"),
            delta_generation=self._get_meta("delta_generation"),
            delta_emission=self._get_meta("delta_emission"),
            entries=entries,
            versions=versions,
            log_digest=digest(rows),
            verified=verified if isinstance(verified, dict) else {},
        )
