"""The unified stats snapshot.

Before the observability layer, four classes each grew their own
``stats()`` dict shape (connection, remote connection, session pool,
server status).  :func:`engine_snapshot` is now the single source: every
surface returns this schema (or a subset of it, for surfaces that can't
see the whole engine).

Schema (``schema`` key names the version of this very layout)::

    {
      "schema": "repro.obs/1",
      "backend": "memory" | "sqlite",
      "plan_cache": {...},              # PlanCache.stats()
      "catalog": {"generation": int, "fingerprint": str, ...},
      "workload": {"reads": {...}, "writes": {...}},
      "metrics": {...},                 # MetricsRegistry.snapshot()
      "tracing": {...},                 # Tracer.stats()
      "check": {...} | None,            # last static-analysis summary
      "pool": {...},                    # live backend only
    }
"""

from __future__ import annotations

SNAPSHOT_SCHEMA = "repro.obs/1"


def engine_snapshot(engine, *, backend=None, include_metrics: bool = True) -> dict:
    """The full observability snapshot for an engine (plus its live
    backend when attached)."""
    snapshot = {
        "schema": SNAPSHOT_SCHEMA,
        "backend": "sqlite" if backend is not None else "memory",
        "plan_cache": engine.plan_cache.stats(),
        "catalog": {
            "generation": engine.catalog_generation,
            "fingerprint": engine.catalog_fingerprint(),
        },
        "workload": {
            "reads": dict(engine.workload.reads),
            "writes": dict(engine.workload.writes),
        },
        "tracing": engine.tracer.stats(),
        "check": engine.last_check,
    }
    if include_metrics:
        snapshot["metrics"] = engine.metrics.snapshot()
    if backend is not None:
        snapshot["pool"] = backend.pool.stats()
        snapshot["catalog"].update(backend.catalog_stats())
    return snapshot
