"""The genealogy hypergraph of table versions and SMO instances.

Each vertex is a :class:`TableVersion`; each hyperedge is an
:class:`SmoInstance` evolving a set of source table versions into a set of
target table versions. Every table version is created by exactly one
incoming SMO instance and consumed by arbitrarily many outgoing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from repro.catalog.versions import SchemaVersion
from repro.errors import CatalogError
from repro.relational.schema import TableSchema
from repro.util.naming import physical_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.bidel.ast import SmoNode
    from repro.bidel.smo.base import SmoSemantics


@dataclass
class TableVersion:
    """One version of one table (a vertex of the genealogy)."""

    uid: int
    name: str  # user-visible name within its schema versions
    schema: TableSchema  # user-visible columns (the id ``p`` stays hidden)
    created_in: str  # schema version name in which this table version appeared

    # Name of the visible column that mirrors the generated row identifier
    # of the FK/condition SMOs (e.g. Author.id); such columns are assigned
    # by the engine and cannot be updated.
    key_column: str | None = None

    # Genealogy links (kept in sync by Genealogy)
    incoming: "SmoInstance | None" = None
    outgoing: list["SmoInstance"] = field(default_factory=list)

    @cached_property
    def data_table_name(self) -> str:
        """Physical name of this table version's data table (when stored)."""
        return physical_name("d", str(self.uid), self.name)

    @cached_property
    def data_table_schema(self) -> TableSchema:
        """The schema of this table version's data table (when stored)."""
        return self.schema.with_name(self.data_table_name)

    @property
    def view_name(self) -> str:
        """Name of the generated view serving this table version's reads
        and writes on a live execution backend (and in emitted delta code)."""
        return physical_name("v" + str(self.uid), self.name)

    def trigger_name(self, operation: str) -> str:
        """Name of the INSTEAD OF trigger for ``operation`` on the view."""
        return physical_name("tg", str(self.uid), operation.lower())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TableVersion {self.name}@{self.created_in} #{self.uid}>"

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TableVersion) and other.uid == self.uid


@dataclass
class SmoInstance:
    """One SMO application (a hyperedge of the genealogy)."""

    uid: int
    node: "SmoNode"  # the parsed BiDEL operation
    sources: tuple[TableVersion, ...]
    targets: tuple[TableVersion, ...]
    evolution: str  # name of the schema version this SMO helped create
    materialized: bool = False  # True = data stored on the target side
    semantics: "SmoSemantics | None" = None
    #: Memo of :func:`repro.persist.fingerprint.smo_fingerprint`: the uid
    #: and the BiDEL operation are fixed once the instance exists.
    fingerprint: str | None = field(default=None, repr=False, compare=False)

    @property
    def smo_type(self) -> str:
        return type(self.node).__name__

    @property
    def is_initial(self) -> bool:
        """CREATE TABLE SMOs have no sources and are implicitly always
        materialized (their targets are the initial physical tables)."""
        return not self.sources

    def aux_table_name(self, role: str) -> str:
        return physical_name("aux", str(self.uid), role)

    @cached_property
    def aux_schemas(self) -> dict[str, dict[str, TableSchema]]:
        """This bound SMO's aux tables under ``"source"``, ``"target"`` and
        ``"shared"``, by role, each schema named as its table; which are
        stored is :func:`~repro.catalog.materialization.physical_layout`'s
        to say."""
        return {
            side: {role: schema.with_name(self.aux_table_name(role)) for role, schema in aux.items()}
            for side, aux in self.semantics.aux_tables.items()
        }

    def aux_table_names(self) -> dict[str, str]:
        """``{table name: role}`` of every aux table of this SMO."""
        return {s.name: role for side in self.aux_schemas.values() for role, s in side.items()}

    def put_table_name(self, role: str) -> str:
        """Staging table for the ``role`` output of this SMO's generated
        write-propagation (put) programs."""
        return physical_name("put", str(self.uid), role)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "mat" if self.materialized else "virt"
        return f"<SMO #{self.uid} {self.smo_type} [{state}]>"

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SmoInstance) and other.uid == self.uid


@dataclass
class Genealogy:
    """The full catalog: versions, table versions, SMO instances."""

    schema_versions: dict[str, SchemaVersion] = field(default_factory=dict)
    table_versions: dict[int, TableVersion] = field(default_factory=dict)
    smo_instances: dict[int, SmoInstance] = field(default_factory=dict)
    #: Names of dropped versions that left the catalog (:meth:`retire_dropped`);
    #: kept so a retired name is still refused and still "has been dropped".
    retired: set[str] = field(default_factory=set)
    _next_table_uid: int = 0
    _next_smo_uid: int = 0

    # -- construction -----------------------------------------------------

    def new_table_version(self, name: str, schema: TableSchema, created_in: str) -> TableVersion:
        uid = self._next_table_uid
        self._next_table_uid += 1
        tv = TableVersion(uid=uid, name=name, schema=schema, created_in=created_in)
        self.table_versions[uid] = tv
        return tv

    def new_smo_instance(
        self,
        node: "SmoNode",
        sources: Iterable[TableVersion],
        targets: Iterable[TableVersion],
        evolution: str,
        *,
        materialized: bool = False,
    ) -> SmoInstance:
        uid = self._next_smo_uid
        self._next_smo_uid += 1
        smo = SmoInstance(
            uid=uid,
            node=node,
            sources=tuple(sources),
            targets=tuple(targets),
            evolution=evolution,
            materialized=materialized,
        )
        self.smo_instances[uid] = smo
        for source in smo.sources:
            source.outgoing.append(smo)
        for target in smo.targets:
            if target.incoming is not None:
                raise CatalogError(
                    f"table version {target!r} already has an incoming SMO"
                )
            target.incoming = smo
        return smo

    def check_new_name(self, name: str) -> None:
        if name in self.schema_versions or name in self.retired:
            raise CatalogError(f"schema version {name!r} already exists")

    def add_schema_version(self, version: SchemaVersion) -> None:
        self.check_new_name(version.name)
        self.schema_versions[version.name] = version

    # -- lookups ----------------------------------------------------------

    def schema_version(self, name: str) -> SchemaVersion:
        try:
            version = self.schema_versions[name]
        except KeyError:
            if name in self.retired:
                raise CatalogError(f"schema version {name!r} has been dropped") from None
            raise CatalogError(f"unknown schema version {name!r}") from None
        if version.dropped:
            raise CatalogError(f"schema version {name!r} has been dropped")
        return version

    def active_versions(self) -> list[SchemaVersion]:
        return [v for v in self.schema_versions.values() if not v.dropped]

    def all_smos(self) -> list[SmoInstance]:
        return [self.smo_instances[uid] for uid in sorted(self.smo_instances)]

    def evolution_smos(self) -> list[SmoInstance]:
        """All non-CREATE-TABLE SMOs (the ones with a materialization choice)."""
        return [smo for smo in self.all_smos() if not smo.is_initial]

    # -- integrity ----------------------------------------------------------

    def check_acyclic(self) -> None:
        """The genealogy must be a DAG (the paper relies on this for both
        trigger cascades and the formal evaluation)."""
        import graphlib

        sorter: graphlib.TopologicalSorter[int] = graphlib.TopologicalSorter()
        for smo in self.smo_instances.values():
            for target in smo.targets:
                sorter.add(target.uid, *(source.uid for source in smo.sources))
        try:
            sorter.prepare()
        except graphlib.CycleError as exc:  # pragma: no cover - defensive
            raise CatalogError(f"cyclic genealogy: {exc.args[1]}") from None

    # -- garbage collection -------------------------------------------------

    def drop_schema_version(self, name: str) -> list[SmoInstance]:
        """Mark a schema version dropped and return SMO instances that are no
        longer part of an evolution connecting two remaining versions.

        The data itself is kept as long as any remaining version needs it;
        SMOs are removed from the catalog only when they no longer connect
        remaining versions (paper, Section 3).
        """
        version = self.schema_version(name)
        version.dropped = True
        # Every SMO some active table version derives from, along every
        # source of every SMO on the way (a worklist: a JOIN's second
        # source may itself come from a multi-source SMO).
        needed: set[int] = set()
        pending = [tv for active in self.active_versions() for tv in active.tables.values()]
        while pending:
            smo = pending.pop().incoming
            if smo is not None and not smo.is_initial and smo.uid not in needed:
                needed.add(smo.uid)
                pending.extend(smo.sources)
        unneeded = [
            smo
            for smo in self.evolution_smos()
            if smo.uid not in needed and smo.evolution == name
        ]
        return unneeded

    def retire_dropped(self) -> None:
        """Retire every dropped version the catalog no longer needs: no SMO
        it created survives (CREATE TABLE ones included) and no retained
        version names it as parent — to a fixpoint, since retiring a child
        can free its parent.  Its table versions leave with it; its name
        stays in :attr:`retired`."""
        creators = {smo.evolution for smo in self.smo_instances.values()}
        while True:
            parents = {version.parent for version in self.schema_versions.values()}
            gone = {
                name
                for name, version in self.schema_versions.items()
                if version.dropped and name not in creators and name not in parents
            }
            if not gone:
                return
            for name in gone:
                del self.schema_versions[name]
            self.retired |= gone
            for uid in [
                uid for uid, tv in self.table_versions.items() if tv.created_in in gone
            ]:
                del self.table_versions[uid]
