"""A shared parse/plan cache for the statement hot path.

Executing a statement costs three things before any row is touched:
parsing the SQL text, resolving it against the bound schema version, and
lowering it to an executable plan (on the live SQLite backend: rendered
backend SQL plus the prepared ``description``).  All three are pure
functions of ``(sql_text, version, backend)`` — so the engine keeps one
:class:`PlanCache` shared by **every** connection of both transports
(in-process and the TCP server's server-side connections), and repeated
statements skip parsing and planning entirely.

A plan lives as long as its schema version.  A version's tables, columns
and key are fixed once it exists, and neither backend's plan depends on
the materialization: a SQLite plan names the table version's view, whose
name is fixed by the table version, and ``MATERIALIZE`` re-renders the
views under the same names; a memory plan routes at run time.  So an
evolution or a ``MATERIALIZE`` leaves every entry valid, and a drop
evicts only the dropped version's entries (the connection refuses a
dropped version before it looks a plan up, so they were unreachable).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

#: Cache key: (sql_text, schema version name, backend kind).  The name is
#: a safe identity: a dropped version's name is retired, never reused.
PlanKey = tuple[str, str, str]


@dataclass
class DdlPlan:
    """A parsed BiDEL DDL script (executed through the engine, not the
    data plane); never cached — the parser's text cache makes a repeat
    cheap."""

    statement: Any  # repro.sql.ast.BidelStatement
    kind: str = "ddl"
    param_count: int = 0


class PlanCache:
    """Thread-safe LRU of compiled statement plans.

    Entries are keyed by ``(sql_text, version_name, backend_kind)`` and
    stay valid while their version lives; the engine's catalog-listener
    hook evicts a version's entries when it is dropped.  Each hit, miss
    and invalidation is counted once, under the cache's lock; that count
    feeds ``Connection.stats()``, the session pool's observability
    surface and the registry series alike.
    """

    def __init__(self, maxsize: int = 512):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[PlanKey, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def bind_metrics(self, registry) -> None:
        """Serve the hit/miss/invalidation counts as the registry's
        labeled series ``repro_plan_cache_events_total{event}``."""
        registry.counter(
            "repro_plan_cache_events_total",
            "Plan cache events by outcome.",
            ("event",),
        ).collect_from(self._event_counts)

    def _event_counts(self) -> dict:
        return {("hit",): self._hits, ("miss",): self._misses,
                ("invalidation",): self._invalidations}

    def get(self, key: PlanKey):
        """The cached plan for ``key``, or ``None``."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        return plan

    def peek(self, key: PlanKey):
        """Like :meth:`get` but with no counter or LRU side effects —
        used by ``EXPLAIN`` to report whether a plan is cached."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: PlanKey, plan: Any) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def on_catalog_event(self, event: str, **info) -> None:
        """Catalog-listener hook: a drop evicts the dropped version's
        plans and counts one invalidation; evolution and ``MATERIALIZE``
        leave every plan valid."""
        if event != "drop":
            return
        version = info["version"]
        with self._lock:
            for key in [key for key in self._entries if key[1] == version]:
                del self._entries[key]
            self._invalidations += 1

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
