"""A workload-driven materialization advisor.

Section 8.2 of the paper: "A DBA can optimize the overall performance for a
given workload by adapting the materialization ... An advisor tool
supporting the optimization task is very well imaginable, but out of scope
for this paper." This module implements that imaginable tool as a small
extension: given observed (or predicted) access counts per schema version,
it scores every valid materialization schema with a propagation-distance
cost model and recommends the cheapest one.

The cost model charges each access the number of SMO hops between the
accessed version's table versions and their physical homes — exactly the
quantity Figures 11–13 show to dominate performance ("the more SMOs are
between schema versions, the more delta code is involved and the higher is
the overhead").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.genealogy import Genealogy, TableVersion
from repro.catalog.materialization import (
    MaterializationSchema,
    enumerate_valid_materializations,
    physical_table_versions,
)

# Writes fan out to every stored artifact, so they are costlier per hop.
READ_HOP_COST = 1.0
WRITE_HOP_COST = 1.5


@dataclass(frozen=True)
class WorkloadProfile:
    """Observed access counts per schema version."""

    reads: dict[str, float] = field(default_factory=dict)
    writes: dict[str, float] = field(default_factory=dict)

    def versions(self) -> set[str]:
        return set(self.reads) | set(self.writes)


class WorkloadRecorder:
    """Live per-version access counters fed by the DB-API cursors.

    Every SELECT executed through a connection counts as one read on that
    connection's schema version, every INSERT/UPDATE/DELETE as one write
    (``executemany`` counts each parameter row).  The recorder turns live
    traffic into the :class:`WorkloadProfile` the materialization advisor
    consumes, so the advisor runs off observed workloads instead of
    hand-built profiles.

    The recorder is a *view* over the engine's metrics registry: every
    statement lands in the ``repro_statements_total{version, kind}``
    counter family, and :attr:`reads`/:attr:`writes` aggregate that
    family per version (``select`` counts as a read; ``insert``,
    ``update`` and ``delete`` as writes;
    ``ddl``/``explain`` are counted but excluded from the profile).
    The advisor therefore reads the same numbers a scrape does.
    """

    READ_KINDS = frozenset({"select"})
    EXCLUDED_KINDS = frozenset({"ddl", "explain", "check"})

    def __init__(self, metrics=None):
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self._counter = metrics.counter(
            "repro_statements_total",
            "Statements executed, by schema version and statement kind.",
            ("version", "kind"),
        )
        self._bound: dict = {}  # (version, kind) -> its series, bound once

    def series(self, version_name: str, kind: str):
        """The bound counter series of ``kind`` statements on the version
        (a connection keeps it and counts each statement once)."""
        series = self._bound.get((version_name, kind))
        if series is None:
            series = self._bound[version_name, kind] = self._counter.bound(
                version=version_name, kind=kind
            )
        return series

    def record(self, version_name: str, kind: str, count: int = 1) -> None:
        self.series(version_name, kind).inc(count)

    def _aggregate(self, want_reads: bool) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (version, kind), value in self._counter.values().items():
            if kind in self.EXCLUDED_KINDS:
                continue
            if (kind in self.READ_KINDS) == want_reads:
                totals[version] = totals.get(version, 0) + value
        return totals

    @property
    def reads(self) -> dict[str, int]:
        return self._aggregate(True)

    @property
    def writes(self) -> dict[str, int]:
        return self._aggregate(False)

    def reset(self) -> None:
        self._counter.reset()

    @property
    def empty(self) -> bool:
        return not self.reads and not self.writes

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            reads={k: float(v) for k, v in self.reads.items()},
            writes={k: float(v) for k, v in self.writes.items()},
        )


def recommend_from_live(engine) -> Recommendation:
    """Recommend a materialization from the engine's recorded live traffic."""
    return recommend_materialization(engine.genealogy, engine.workload.profile())


@dataclass(frozen=True)
class Recommendation:
    schema: MaterializationSchema
    cost: float
    physical_tables: tuple[str, ...]
    ranking: tuple[tuple[float, str], ...]  # (cost, physical tables) per schema

    def describe(self) -> str:
        smos = sorted(smo.smo_type for smo in self.schema)
        return f"materialize {{{', '.join(smos)}}} -> {list(self.physical_tables)}"


def _hop_distance(
    tv: TableVersion, materialized: MaterializationSchema
) -> int:
    """SMO hops from ``tv`` to its physical home under ``materialized``."""
    distance = 0
    current = tv
    seen: set[int] = set()
    while True:
        if current.uid in seen:  # pragma: no cover - DAG guarantees no loop
            return distance
        seen.add(current.uid)
        incoming_stored = current.incoming is not None and (
            current.incoming.is_initial or current.incoming in materialized
        )
        outgoing_stored = [
            smo for smo in current.outgoing if not smo.is_initial and smo in materialized
        ]
        if incoming_stored and not outgoing_stored:
            return distance  # physical here
        distance += 1
        if outgoing_stored:
            current = outgoing_stored[0].targets[0] if outgoing_stored[0].targets else current
            if not outgoing_stored[0].targets:
                return distance
        elif current.incoming is not None and not current.incoming.is_initial:
            if not current.incoming.sources:
                return distance
            current = current.incoming.sources[0]
        else:  # pragma: no cover - dangling table version
            return distance


def score_schema(
    genealogy: Genealogy,
    schema: MaterializationSchema,
    profile: WorkloadProfile,
) -> float:
    """Total propagation cost of ``profile`` under ``schema``."""
    total = 0.0
    for version_name in profile.versions():
        version = genealogy.schema_version(version_name)
        reads = profile.reads.get(version_name, 0.0)
        writes = profile.writes.get(version_name, 0.0)
        for tv in version.tables.values():
            hops = _hop_distance(tv, schema)
            total += hops * (reads * READ_HOP_COST + writes * WRITE_HOP_COST)
    return total


def recommend_materialization(
    genealogy: Genealogy, profile: WorkloadProfile
) -> Recommendation:
    """The cheapest valid materialization schema for ``profile``."""
    scored: list[tuple[float, MaterializationSchema]] = []
    for schema in enumerate_valid_materializations(genealogy):
        scored.append((score_schema(genealogy, schema, profile), schema))
    scored.sort(key=lambda pair: (pair[0], len(pair[1])))
    best_cost, best_schema = scored[0]
    ranking = tuple(
        (
            cost,
            ", ".join(
                tv.name for tv in physical_table_versions(genealogy, schema)
            ),
        )
        for cost, schema in scored
    )
    physical = tuple(
        tv.name for tv in physical_table_versions(genealogy, best_schema)
    )
    return Recommendation(
        schema=best_schema, cost=best_cost, physical_tables=physical, ranking=ranking
    )
