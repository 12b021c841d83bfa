"""The benchmark's metrics by name: unit, direction, regression bound,
definition — and how the end-to-end ones are computed from a run's raw
samples.  ``BENCHMARK.json``, the README tables and the runner's output
are all rendered from the two tuples below.

Every ``*_ms``, ``*_s``, ``*_ops_s`` and ``*_rows_s`` value is in
calibrated units (``floor.py``); the same statistic over the raw wall-clock
samples is reported beside it as ``<name>.wall``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from opgen import CLASSES
from quantiles import percentile, samples_beyond, supported_percentile

ROTATION = 3  # batches per rotation over the three pins


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    #: Share of the parent's median by which the metric may get worse
    #: (end-to-end metrics only).
    bound: float | None = None
    #: Per-layer metrics: must repeat exactly for a seed.
    exact: bool = False


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "build the scenario through the SQL layer, attach a file-backed live backend "
           "in a fresh directory, MATERIALIZE the local version, open the three pins; "
           "median of three", 0.25),
    Metric("throughput_ops_s", "1/s", "higher",
           "statements completed / calibrated time they took, per steady round; "
           "median over rounds", 0.25),
    Metric("read_local_p50_ms", "ms", "lower",
           "median latency (execute + fetchall) of reads on the materialized version", 0.25),
    Metric("read_fwd_p50_ms", "ms", "lower",
           "median read latency on the version D hops newer than the data", 0.25),
    Metric("read_bwd_p50_ms", "ms", "lower",
           "median read latency on the version D hops older than the data", 0.25),
    Metric("write_local_p50_ms", "ms", "lower",
           "median latency of single-row INSERT/UPDATE/DELETE on the materialized version", 0.25),
    Metric("write_fwd_p50_ms", "ms", "lower",
           "median single-row write latency D hops newer than the data", 0.20),
    Metric("write_bwd_p50_ms", "ms", "lower",
           "median single-row write latency D hops older than the data", 0.25),
    Metric("read_p95_ms", "ms", "lower",
           "95th percentile over all reads of the steady phase", 0.25),
    Metric("write_p95_ms", "ms", "lower",
           "95th percentile over all single-row writes of the steady phase", 0.25),
    Metric("batch_rows_s", "1/s", "higher",
           "rows / calibrated time of the 50-row executemany INSERTs, per rotation over "
           "the three pins; median over rotations", 0.20),
    Metric("ddl_stall_p50_ms", "ms", "lower",
           "from issuing CREATE SCHEMA VERSION until one point read on each pin has "
           "returned; median over the leaf cycles", 0.25),
    Metric("materialize_rows_s", "1/s", "higher",
           "rows moved / calibrated time of a move pair (offline MATERIALIZE fwd, "
           "MATERIALIZE ONLINE local); median over pairs", 0.25),
    Metric("recovery_s", "s", "lower",
           "repro.open(path) on the file the run left behind, open the pins, first point "
           "read on each; median of seven", 0.25),
    Metric("space_amp_x", "x", "lower",
           "bytes of the database pages in use after wal_checkpoint(TRUNCATE) / user bytes "
           "(8 per INTEGER, UTF-8 length per TEXT) of the rows the local version shows", 0.02),
)


def _per_pin(stem: str, unit: str, definition: str, exact: bool = False):
    return tuple(
        Metric(f"{stem}.{role}", unit, "lower", f"{definition} ({role} pin)", exact=exact)
        for role in ("local", "fwd", "bwd")
    )


PER_LAYER = (
    Metric("server.wire_self_ms", "ms", "lower",
           "peel: same statement over TCP minus in-process (median of paired differences)"),
    Metric("server.pipeline_stmt_ms", "ms", "lower",
           "one 8-statement pipeline() round trip / 8"),
    Metric("sql.self_ms.read", "ms", "lower",
           "peel: read via repro.connect minus its backend_sql on a bare sqlite3 handle"),
    Metric("sql.self_ms.write", "ms", "lower",
           "peel: write via repro.connect (own BEGIN IMMEDIATE..COMMIT) minus its backend "
           "SQL in BEGIN IMMEDIATE on a bare handle"),
    Metric("sql.plancache_hit_ratio", "ratio", "higher",
           "plan-cache hits / lookups over the traced steady phase (Connection.stats)"),
    Metric("sql.parse_ms", "ms", "lower",
           "uncached parse of one class statement text (SqlParser.parse_statement)"),
    Metric("sql.plan_ms", "ms", "lower", "compile_statement_sqlite of the parsed statement"),
    Metric("sql.cold_extra_ms", "ms", "lower",
           "local point read on a plan_cache=False connection minus the cached one"),
    *_per_pin("backend.view_self_ms", "ms",
              "peel: a read's backend_sql on the generated view minus the same read on "
              "the plain table"),
    *_per_pin("backend.view_vm_steps", "count",
              "SQLite VM steps of one point read's backend_sql (progress handler)", True),
    *_per_pin("backend.view_sql_bytes", "bytes",
              "length of the generated view the pin's reads go through", True),
    *_per_pin("backend.trigger_self_ms", "ms",
              "peel: a write's backend SQL on the generated view minus the same write on "
              "the plain table"),
    *_per_pin("backend.trigger_invocations", "count",
              "statements SQLite traces for one UPDATE's backend SQL, trigger bodies "
              "included (trace callback)", True),
    *_per_pin("backend.trigger_vm_steps", "count",
              "SQLite VM steps of one UPDATE's backend SQL", True),
    Metric("backend.batch_row_ms", "ms", "lower",
           "calibrated time of a 50-row executemany / 50, median over batches"),
    Metric("core.evolve_ms", "ms", "lower", "engine.execute(CREATE SCHEMA VERSION leaf), median"),
    Metric("core.drop_ms", "ms", "lower", "engine.execute(DROP SCHEMA VERSION leaf), median"),
    Metric("bidel.parse_ms", "ms", "lower", "parse_script of a leaf's CREATE script"),
    Metric("backend.codegen_ms", "ms", "lower",
           "codegen.view_statements + codegen.trigger_statements for the whole catalog"),
    Metric("backend.regenerate_ms", "ms", "lower",
           "LiveSqliteBackend.regenerate(): drop and reinstall all views and triggers"),
    Metric("backend.generated_objects", "count", "lower",
           "views + triggers installed", exact=True),
    Metric("backend.generated_sql_bytes", "bytes", "lower",
           "length of LiveSqliteBackend.generated_sql()", exact=True),
    Metric("backend.move_offline_ms", "ms", "lower", "MATERIALIZE fwd, median"),
    Metric("backend.move_online_ms", "ms", "lower", "MATERIALIZE ONLINE local, median"),
    Metric("backend.online_chunks", "count", "lower",
           "backfill chunks of the last online move", exact=True),
    Metric("persist.log_entries", "count", "lower",
           "rows of the catalog log at the end of the run", exact=True),
    Metric("persist.catalog_bytes", "bytes", "lower",
           "pages of the _repro_catalog_* tables (dbstat)", exact=True),
    Metric("persist.replay_ms", "ms", "lower", "replay_into(fresh engine, the stored log)"),
    Metric("persist.verify_ms", "ms", "lower", "verify_catalog + verify_layout after the replay"),
    Metric("check.verify_ms", "ms", "lower", "verify_delta_code on the replayed engine"),
    Metric("backend.physical_tables", "count", "lower", "d__* tables", exact=True),
    Metric("backend.aux_tables", "count", "lower", "aux__* tables", exact=True),
    Metric("backend.aux_bytes", "bytes", "lower", "pages of the aux__* tables (dbstat)", exact=True),
    Metric("floor.read_ms", "ms", "lower", "peel: point/range read on the plain table"),
    Metric("floor.write_ms", "ms", "lower", "peel: single-row write on the plain table"),
    Metric("floor.cal_factor_iqr", "ratio", "lower",
           "inter-quartile distance / median of the run's kernel readings"),
    Metric("floor.rounds_dropped", "count", "lower",
           "sections not timed in because the kernel moved > 20 % across them"),
    Metric("obs.trace_overhead_pct", "%", "lower",
           "throughput of the rounds run with spans off vs on, 100 * (off - on) / off"),
    Metric("obs.closure_residual_pct", "%", "lower",
           "largest per-class distance between the peel's top level and the traced "
           "steady p50, 100 * |top - p50| / p50"),
)


def class_metric(cls: int) -> str:
    return f"{CLASSES[cls]}_p50_ms"


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0


def _rotations(section, calibrated: bool) -> list[float]:
    """rows / time of each complete rotation of batches over the pins."""
    kept = set(section.timed_in())
    rates = []
    for first in range(0, len(section) - ROTATION + 1, ROTATION):
        members = range(first, first + ROTATION)
        if not all(i in kept for i in members):
            continue
        seconds = sum(
            section.wall[i] * (section.factor(i) if calibrated else 1.0) for i in members
        )
        rates.append(sum(section.work[i] for i in members) / seconds)
    if not rates:  # no rotation was steady throughout: use every batch
        seconds = sum(
            section.wall[i] * (section.factor(i) if calibrated else 1.0)
            for i in range(len(section))
        )
        rates.append(sum(section.work) / seconds)
    return rates


def _pairs(offline, online, calibrated: bool) -> list[float]:
    """rows / time of each move pair."""
    rates = []
    for i in range(min(len(offline), len(online))):
        seconds = sum(
            s.wall[i] * (s.factor(i) if calibrated else 1.0) for s in (offline, online)
        )
        rates.append((offline.work[i] + online.work[i]) / seconds)
    return rates


def end_to_end(recorder, lane) -> tuple[dict, dict, dict]:
    """(calibrated values, wall-clock values, sample counts) by metric
    name, from the raw samples of one run."""
    cal: dict[str, float] = {}
    wall: dict[str, float] = {}
    counts: dict[str, int] = {}
    sections = recorder.sections

    def from_section(name, section_name, scale=1.0):
        section = sections[section_name]
        cal[name] = statistics.median(section.calibrated()) * scale
        wall[name] = statistics.median(section.walls()) * scale
        counts[name] = len(section.timed_in())

    from_section("setup_s", "setup")
    from_section("ddl_stall_p50_ms", "ddl_stall", 1000.0)
    from_section("recovery_s", "recovery")

    cal["throughput_ops_s"] = statistics.median(n / c for n, _w, c in lane.rounds)
    wall["throughput_ops_s"] = statistics.median(n / w for n, w, _c in lane.rounds)
    counts["throughput_ops_s"] = len(lane.rounds)

    reads_cal, reads_wall, writes_cal, writes_wall = [], [], [], []
    for cls in range(len(CLASSES)):
        name = class_metric(cls)
        calibrated = lane.calibrated[cls]
        cal[name] = _median_ms(calibrated)
        wall[name] = _median_ms(lane.wall[cls])
        counts[name] = len(calibrated)
        if cls < 3:
            reads_cal += calibrated
            reads_wall += lane.wall[cls]
        else:
            writes_cal += calibrated
            writes_wall += lane.wall[cls]
    for name, calibrated, raw in (
        ("read_p95_ms", reads_cal, reads_wall),
        ("write_p95_ms", writes_cal, writes_wall),
    ):
        cal[name] = percentile(calibrated, 95.0) * 1000.0
        wall[name] = percentile(raw, 95.0) * 1000.0
        counts[name] = len(calibrated)

    batch = sections["batch"]
    cal["batch_rows_s"] = statistics.median(_rotations(batch, True))
    wall["batch_rows_s"] = statistics.median(_rotations(batch, False))
    counts["batch_rows_s"] = len(batch)

    offline, online = sections["move_offline"], sections["move_online"]
    cal["materialize_rows_s"] = statistics.median(_pairs(offline, online, True))
    wall["materialize_rows_s"] = statistics.median(_pairs(offline, online, False))
    counts["materialize_rows_s"] = len(offline)

    facts = recorder.facts
    cal["space_amp_x"] = wall["space_amp_x"] = facts["database_bytes"] / facts["user_bytes"]
    counts["space_amp_x"] = 1
    return cal, wall, counts


def tail(lane, classes) -> tuple[float, float, int]:
    """The highest percentile the pooled sample of ``classes`` supports
    (at least ten samples beyond it): (percentile, value in ms, samples
    beyond) — printed, not gated."""
    pooled = [value for cls in classes for value in lane.calibrated[cls]]
    q = supported_percentile(len(pooled))
    return q, percentile(pooled, q) * 1000.0, samples_beyond(len(pooled), q)

