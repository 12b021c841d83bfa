"""A shared parse/plan cache for the statement hot path.

Executing a statement costs three things before any row is touched:
parsing the SQL text, resolving it against the bound schema version, and
lowering it to an executable plan (on the live SQLite backend: rendered
backend SQL plus the prepared ``description``).  All three are pure
functions of ``(sql_text, version, backend, catalog state)`` — so the
engine keeps one :class:`PlanCache` shared by **every** connection of
both transports (in-process and the TCP server's server-side
connections), and repeated statements skip parsing and planning entirely.

Catalog state is summarized by the engine's monotonic
``catalog_generation``, bumped under the catalog write lock on every
transition (evolution, ``MATERIALIZE``, drop).  Each cache entry records
the generation it was compiled under; a lookup whose generation does not
match is a miss (the stale entry is dropped on the spot).  The cache is
additionally registered as a catalog listener, so a transition clears it
wholesale — a connection that executes, evolves, and re-executes the same
SQL text always sees the new catalog.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

#: Cache key: (sql_text, schema version name, backend kind).
PlanKey = tuple[str, str, str]


@dataclass
class DdlPlan:
    """A parsed BiDEL DDL script (executed through the engine, not the
    data plane); cached so repeated DDL text skips the parse."""

    statement: Any  # repro.sql.ast.BidelStatement
    kind: str = "ddl"
    param_count: int = 0


class PlanCache:
    """Thread-safe LRU of compiled statement plans.

    Entries are keyed by ``(sql_text, version_uid, backend_kind)`` and
    tagged with the catalog generation they were compiled under; a
    generation mismatch invalidates the entry lazily, and catalog
    transitions clear the cache eagerly via the engine's catalog-listener
    hook.  Hit/miss counters feed ``Connection.stats()`` and the session
    pool's observability surface.
    """

    def __init__(self, maxsize: int = 512):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[PlanKey, tuple[int, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._events = None  # repro_plan_cache_events_total, once bound

    def bind_metrics(self, registry) -> None:
        """Mirror hit/miss/invalidation counts into the metrics registry
        (labeled series ``repro_plan_cache_events_total{event}``)."""
        self._events = registry.counter(
            "repro_plan_cache_events_total",
            "Plan cache events by outcome.",
            ("event",),
        )
        self._hit = self._events.bound(event="hit")
        self._miss = self._events.bound(event="miss")

    def get(self, key: PlanKey, generation: int):
        """The cached plan for ``key`` compiled under ``generation``, or
        ``None`` (stale entries are evicted as they are found)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == generation:
                self._entries.move_to_end(key)
                self._hits += 1
                hit = True
                plan = entry[1]
            else:
                if entry is not None:
                    del self._entries[key]
                self._misses += 1
                hit = False
                plan = None
        if self._events is not None:
            (self._hit if hit else self._miss).inc()
        return plan

    def peek(self, key: PlanKey, generation: int):
        """Like :meth:`get` but with no counter or LRU side effects —
        used by ``EXPLAIN`` to report whether a plan is cached."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == generation:
                return entry[1]
            return None

    def put(self, key: PlanKey, generation: int, plan: Any) -> None:
        with self._lock:
            self._entries[key] = (generation, plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def on_catalog_event(self, event: str, **info) -> None:
        """Catalog-listener hook: any transition invalidates every plan
        (the generation tag already protects correctness; clearing keeps
        the cache from carrying dead weight)."""
        with self._lock:
            self._entries.clear()
            self._invalidations += 1
        if self._events is not None:
            self._events.inc(event="invalidation")

    def stats(self) -> dict:
        """Hit/miss/size counters (surfaced through ``Connection.stats()``
        and ``SessionPool.stats()``)."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "invalidations": self._invalidations,
            }
