"""Plan-cache invalidation, transition metrics and generated objects
touched across all three catalog transitions (evolve / materialize /
drop), on both transports.  A plan lives as long as its schema version:
only a drop invalidates, and only the dropped version's plans."""

from __future__ import annotations

from unittest.mock import ANY

import pytest

import repro
from repro.backend import LiveSqliteBackend
from repro.core.engine import InVerDa
from repro.server.client import connect_remote
from repro.server.server import ReproServer

EVOLVE = "CREATE SCHEMA VERSION v2 FROM v1 WITH RENAME COLUMN a IN R TO a2;"
MATERIALIZE = "MATERIALIZE 'v2';"
DROP = "DROP SCHEMA VERSION v1;"


def build_engine() -> InVerDa:
    engine = InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);"
    )
    return engine


def invalidations(engine) -> float:
    return engine.metrics.get("repro_plan_cache_events_total").value(
        event="invalidation"
    )


def transition_counts(engine) -> dict:
    transitions = engine.metrics.get("repro_transitions_total")
    durations = engine.metrics.get("repro_transition_duration_seconds")
    return {
        kind: (transitions.value(kind=kind),
               durations.series_stats(kind=kind)["count"])
        for kind in ("evolve", "materialize", "drop")
    }


def delta_objects(engine) -> dict:
    counter = engine.metrics.get("repro_delta_objects_total")
    return {
        action: counter.value(action=action)
        for action in ("created", "dropped", "kept")
    }


def assert_delta_objects_follow(conn, engine) -> None:
    """``R`` is one table version per schema version here: a view and its
    trigger triple each.  Evolve adds v2's four and keeps v1's; the move
    to v2 drops and re-creates all eight, and its ``last_install`` says
    both; dropping v1 then drops its four and keeps v2's."""
    assert delta_objects(engine) == {"created": 4, "dropped": 0, "kept": 0}
    conn.execute(EVOLVE)
    assert delta_objects(engine) == {"created": 8, "dropped": 0, "kept": 4}
    conn.execute(MATERIALIZE)
    assert delta_objects(engine) == {"created": 16, "dropped": 8, "kept": 4}
    assert engine.live_backend.catalog_stats()["last_install"] == {
        "created": 8, "dropped": 8, "kept": 0, "bytes": ANY,
    }
    conn.execute(DROP)
    assert delta_objects(engine) == {"created": 16, "dropped": 12, "kept": 8}
    assert engine.live_backend.catalog_stats()["last_install"] == {
        "created": 0, "dropped": 4, "kept": 4, "bytes": ANY,
    }


def delta_code_bytes(snapshot: dict) -> tuple[int, int]:
    """(``repro_delta_code_bytes``, the last install's ``bytes``) as a
    stats or status snapshot reports them."""
    (series,) = snapshot["metrics"]["repro_delta_code_bytes"]["series"]
    return series["value"], snapshot["catalog"]["last_install"]["bytes"]


def assert_delta_code_bytes_follow(conn, engine, snapshot) -> None:
    """The gauge is the installed script's size after every install: it
    grows with the evolve and shrinks with the drop."""
    sizes = []
    for statement in (None, EVOLVE, MATERIALIZE, DROP):
        if statement is not None:
            conn.execute(statement)
        size = len(engine.live_backend.generated_sql().encode())
        assert delta_code_bytes(snapshot()) == (size, size), statement
        sizes.append(size)
    assert sizes[0] < sizes[1] and sizes[3] < sizes[2]


def assert_transition_metrics(engine, baseline: dict,
                              base_generation: int) -> None:
    after = transition_counts(engine)
    for kind in ("evolve", "materialize", "drop"):
        assert after[kind][0] == baseline[kind][0] + 1, kind
        assert after[kind][1] == baseline[kind][1] + 1, kind
    generation_gauge = engine.metrics.get("repro_catalog_generation")
    assert generation_gauge.value() == engine.catalog_generation
    assert engine.catalog_generation == base_generation + 3


class TestInProcess:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_each_transition_invalidates_and_is_timed(self, backend):
        """Evolve and materialize keep v1's plan (the next execute hits);
        the drop of v1 is the one invalidation.  Every transition is
        counted and timed."""
        engine = build_engine()
        base_generation = engine.catalog_generation
        conn = repro.connect(engine, "v1", autocommit=True, backend=backend)
        conn.execute("INSERT INTO R(a, b) VALUES (1, 'x')")
        conn.execute("SELECT a FROM R")  # populate the plan cache
        before = invalidations(engine)
        stats_before = engine.plan_cache.stats()["invalidations"]
        baseline = transition_counts(engine)

        for statement in (EVOLVE, MATERIALIZE):
            conn.execute(statement)
            assert invalidations(engine) == before, statement
            assert engine.plan_cache.stats()["invalidations"] == stats_before
            cursor = conn.execute("SELECT a FROM R")
            assert cursor.cache_event == "hit", statement
            assert cursor.fetchall() == [(1,)], statement

        conn.execute(DROP)
        assert invalidations(engine) == before + 1
        assert engine.plan_cache.stats()["invalidations"] == stats_before + 1
        v2 = repro.connect(engine, "v2", autocommit=True, backend=backend)
        assert v2.execute("SELECT a2 FROM R").fetchall() == [(1,)]

        assert_transition_metrics(engine, baseline, base_generation)

    def test_installs_count_the_generated_objects_they_touch(self):
        engine = build_engine()
        conn = repro.connect(engine, "v1", autocommit=True, backend="sqlite")
        try:
            assert_delta_objects_follow(conn, engine)
            assert conn.stats()["catalog"]["last_install"]["kept"] == 4
        finally:
            engine.live_backend.close()

    def test_delta_code_bytes_follow_installs_and_open(self, tmp_path):
        path = str(tmp_path / "bytes.db")
        engine = repro.open(path)
        engine.execute("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b TEXT);")
        conn = repro.connect(engine, "v1", autocommit=True)
        try:
            assert_delta_code_bytes_follow(conn, engine, conn.stats)
            size = len(engine.live_backend.generated_sql().encode())
        finally:
            conn.close()
            engine.live_backend.close()
        reopened = repro.open(path)
        try:
            assert reopened.live_backend.delta_reused
            gauge = reopened.metrics.get("repro_delta_code_bytes")
            assert gauge.value() == size
        finally:
            reopened.live_backend.close()


class TestRemote:
    def test_installs_count_the_generated_objects_they_touch_over_tcp(self):
        engine = build_engine()
        backend = LiveSqliteBackend.attach(engine)
        server = ReproServer(engine, backend=backend).start()
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            assert_delta_objects_follow(conn, engine)
            assert 'repro_delta_objects_total{action="kept"} 8' in conn.metrics_text()
        finally:
            conn.close()
            server.close()
            backend.close()

    def test_delta_code_bytes_follow_installs_over_tcp_status(self):
        engine = build_engine()
        backend = LiveSqliteBackend.attach(engine)
        server = ReproServer(engine, backend=backend).start()
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            assert_delta_code_bytes_follow(conn, engine, conn.server_status)
        finally:
            conn.close()
            server.close()
            backend.close()

    def test_each_transition_invalidates_and_is_timed_over_tcp(self):
        engine = build_engine()
        base_generation = engine.catalog_generation
        server = ReproServer(engine).start()
        host, port = server.address
        conn = connect_remote(host, port, "v1", autocommit=True)
        try:
            conn.execute("INSERT INTO R(a, b) VALUES (1, 'x')")
            conn.execute("SELECT a FROM R")
            before = invalidations(engine)
            baseline = transition_counts(engine)
            for statement in (EVOLVE, MATERIALIZE):
                conn.execute(statement)
                assert invalidations(engine) == before, statement
                cursor = conn.execute("SELECT a FROM R")
                assert cursor.cache_event == "hit", statement
                assert cursor.fetchall() == [(1,)], statement
            conn.execute(DROP)
            assert invalidations(engine) == before + 1
            other = connect_remote(host, port, "v2", autocommit=True)
            assert other.execute("SELECT a2 FROM R").fetchall() == [(1,)]
            other.close()
            assert_transition_metrics(engine, baseline, base_generation)
            # The dropped version's counters survive in the registry; the
            # statement latency series still names v1.
            latency = engine.metrics.get("repro_statement_latency_seconds")
            assert latency.series_stats(version="v1", kind="select",
                                        cache="miss")["count"] >= 1
        finally:
            try:
                conn.close()
            except Exception:
                pass
            server.close()
