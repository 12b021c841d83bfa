"""Seeded-defect tests for the invariant probes: drive each probe with a
deliberately broken history and assert it fires with the right report —
then with the matching clean history and assert it stays quiet."""

from __future__ import annotations

import pytest

from repro.backend import codegen
from repro.check.delta import verify_delta_code
from repro.core.engine import InVerDa
from repro.errors import OperationalError
from soak.probes import (
    PROBE_FACTORIES,
    AvailabilityProbe,
    BoundedLatencyProbe,
    CleanDropProbe,
    DeltaVerifierProbe,
    DifferentialProbe,
    FinalState,
    MonotoneGenerationProbe,
    NoLostWritesProbe,
    make_probes,
)


def final_state(**overrides):
    base = dict(
        order_rows_by_version={"v1": {1, 2, 3}, "v2": {1, 2, 3}},
        active_versions=["v1", "v2"],
        engine_generation=5,
        gauge_generation=5.0,
        disk_generation=5,
        ddl_windows=[],
        barrier_windows=[],
        p95_budget_ms=100.0,
        delta_findings=[],
    )
    base.update(overrides)
    return FinalState(**base)


class TestRegistry:
    def test_all_probes_are_registered(self):
        assert set(PROBE_FACTORIES) == {
            "lost-writes",
            "clean-drop",
            "generation",
            "latency",
            "differential",
            "delta",
            "availability",
        }

    def test_make_probes_defaults_to_all(self):
        assert {probe.name for probe in make_probes()} == set(PROBE_FACTORIES)

    def test_make_probes_selects_by_name(self):
        (probe,) = make_probes(["lost-writes"])
        assert isinstance(probe, NoLostWritesProbe)

    def test_make_probes_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown probe"):
            make_probes(["lost-writes", "nope"])


class TestNoLostWrites:
    def test_fires_when_an_acked_write_vanishes(self):
        probe = NoLostWritesProbe()
        for order_no in (1, 2, 3, 99):
            probe.on_ack("v1", "Orders", order_no)
        report = probe.finalize(final_state())  # 99 is nowhere visible
        assert not report.ok
        assert report.details["lost"] == 1
        assert "99" in report.violations[0] and "v1" in report.violations[0]

    def test_deleted_writes_are_not_expected(self):
        probe = NoLostWritesProbe()
        for order_no in (1, 2, 3, 4):
            probe.on_ack("v1", "Orders", order_no)
        probe.on_delete("v1", 4)
        report = probe.finalize(final_state())  # 4 is gone — by request
        assert report.ok
        assert report.details == {"acked": 4, "deleted": 1, "checked": 3, "lost": 0}

    def test_visibility_in_any_version_suffices(self):
        probe = NoLostWritesProbe()
        probe.on_ack("v2", "Open", 7)
        report = probe.finalize(
            final_state(order_rows_by_version={"v1": set(), "v2": {7}})
        )
        assert report.ok


class TestCleanDrop:
    def test_clean_operational_error_passes(self):
        probe = CleanDropProbe()
        probe.on_version_lost("v3", OperationalError("version 'v3' was dropped"), True)
        report = probe.finalize(final_state())
        assert report.ok
        assert report.details == {"drops_observed": 1, "dirty": 0}

    def test_wrong_error_class_fires(self):
        probe = CleanDropProbe()
        probe.on_version_lost("v3", ValueError("boom"), False)
        report = probe.finalize(final_state())
        assert not report.ok
        assert "v3" in report.violations[0]
        assert "ValueError" in report.violations[0]


class TestMonotoneGeneration:
    def test_clean_samples_pass(self):
        probe = MonotoneGenerationProbe()
        for engine_value in (3, 3, 4, 5, 5):
            probe.on_generation_sample(engine_value, float(engine_value))
        assert probe.finalize(final_state()).ok

    def test_skipped_bump_regression_fires(self):
        probe = MonotoneGenerationProbe()
        for engine_value in (3, 4, 3):
            probe.on_generation_sample(engine_value, float(engine_value))
        report = probe.finalize(final_state())
        assert not report.ok
        assert "regressed from 4 to 3" in report.violations[0]

    def test_gauge_may_trail_by_at_most_one(self):
        probe = MonotoneGenerationProbe()
        probe.on_generation_sample(5, 4.0)  # sampler caught the gap: fine
        assert probe.finalize(final_state()).ok
        probe = MonotoneGenerationProbe()
        probe.on_generation_sample(5, 3.0)  # two behind: the bump was lost
        report = probe.finalize(final_state())
        assert not report.ok
        assert "gauge read 3.0" in report.violations[0]

    def test_final_gauge_mismatch_fires(self):
        report = MonotoneGenerationProbe().finalize(
            final_state(gauge_generation=4.0)
        )
        assert not report.ok
        assert "final gauge 4.0" in report.violations[0]

    def test_disk_generation_mismatch_fires(self):
        report = MonotoneGenerationProbe().finalize(final_state(disk_generation=4))
        assert not report.ok
        assert "on-disk generation 4" in report.violations[0]

    def test_memory_only_runs_skip_the_disk_check(self):
        assert MonotoneGenerationProbe().finalize(
            final_state(disk_generation=None)
        ).ok


class TestBoundedLatency:
    def test_slow_ops_inside_ddl_windows_fire(self):
        probe = BoundedLatencyProbe()
        for start in (1.0, 1.1, 1.2):
            probe.on_op(start, start + 0.5, "read")  # 500 ms, budget 100
        report = probe.finalize(final_state(ddl_windows=[(0.9, 2.0)]))
        assert not report.ok
        assert report.details["ops_during_ddl"] == 3
        assert "over the 100 ms budget" in report.violations[0]

    def test_slow_ops_outside_ddl_windows_do_not_count(self):
        probe = BoundedLatencyProbe()
        probe.on_op(5.0, 5.5, "read")
        report = probe.finalize(final_state(ddl_windows=[(0.9, 2.0)]))
        assert report.ok
        assert report.details["ops_during_ddl"] == 0

    def test_barrier_windows_are_excluded(self):
        probe = BoundedLatencyProbe()
        probe.on_op(1.0, 1.5, "read")
        report = probe.finalize(
            final_state(ddl_windows=[(0.9, 2.0)], barrier_windows=[(0.95, 1.6)])
        )
        assert report.ok
        assert report.details["ops"] == 1 and report.details["ops_during_ddl"] == 0


class TestAvailability:
    def test_stalled_serving_during_backfill_fires(self):
        probe = AvailabilityProbe()
        probe.on_op(0.1, 0.2, "read")  # before the move
        probe.on_op(4.0, 4.1, "read")  # after the move
        report = probe.finalize(final_state(backfill_windows=[(1.0, 3.0)]))
        assert not report.ok
        assert "serving stalled" in report.violations[0]
        assert report.details["ops_during_backfill"] == 0

    def test_over_budget_p95_during_backfill_fires(self):
        probe = AvailabilityProbe()
        for start in (1.0, 1.4, 1.8, 2.2):
            probe.on_op(start, start + 0.3, "write")  # 300 ms, budget 100
        report = probe.finalize(final_state(backfill_windows=[(0.9, 3.0)]))
        assert not report.ok
        assert "over the 100 ms budget" in report.violations[0]

    def test_flowing_bounded_ops_pass(self):
        probe = AvailabilityProbe()
        for start in (1.0, 1.5, 2.0, 2.5):
            probe.on_op(start, start + 0.01, "read")
        report = probe.finalize(final_state(backfill_windows=[(0.9, 3.0)]))
        assert report.ok
        assert report.details["ops_during_backfill"] == 4

    def test_short_window_may_contain_no_ops(self):
        # A one-chunk move can finish between two client ops.
        probe = AvailabilityProbe()
        probe.on_op(0.1, 0.2, "read")
        report = probe.finalize(final_state(backfill_windows=[(1.0, 1.2)]))
        assert report.ok

    def test_no_backfill_windows_pass_vacuously(self):
        probe = AvailabilityProbe()
        probe.on_op(0.1, 0.2, "read")
        report = probe.finalize(final_state())
        assert report.ok
        assert report.details["backfill_windows"] == 0

    def test_barrier_overlapping_ops_are_excluded(self):
        probe = AvailabilityProbe()
        probe.on_op(1.0, 1.5, "read")  # slow, but inside a barrier pause
        for start in (2.0, 2.2, 2.4):
            probe.on_op(start, start + 0.01, "read")
        report = probe.finalize(
            final_state(
                backfill_windows=[(0.9, 3.0)], barrier_windows=[(0.95, 1.6)]
            )
        )
        assert report.ok
        assert report.details["ops_during_backfill"] == 3


class TestDifferential:
    def test_any_failed_barrier_fires(self):
        probe = DifferentialProbe()
        probe.on_barrier(0, True, "")
        probe.on_barrier(1, False, "rows differ in ('v1', 'Orders')")
        report = probe.finalize(final_state())
        assert not report.ok
        assert report.details == {"barriers": 2, "failed": 1}
        assert "barrier #1" in report.violations[0]

    def test_all_clean_barriers_pass(self):
        probe = DifferentialProbe()
        for index in range(3):
            probe.on_barrier(index, True, "")
        assert probe.finalize(final_state()).ok


class TestDeltaVerifier:
    @pytest.fixture
    def engine(self):
        engine = InVerDa()
        engine.execute(
            "CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER, b INTEGER);"
        )
        engine.execute(
            "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"
        )
        return engine

    def test_clean_emission_passes(self, engine):
        findings = verify_delta_code(engine)
        assert DeltaVerifierProbe().finalize(
            final_state(delta_findings=findings)
        ).ok

    def test_dangling_view_fires(self, engine):
        """The seeded defect: a view left pointing at a data table that no
        longer exists (the verifier's RPC101 class)."""
        views = codegen.view_statements(engine)
        triggers = codegen.trigger_statements(engine)
        views = [s.replace("d__0__R", "d__9__GONE") for s in views]
        findings = verify_delta_code(
            engine, view_statements=views, trigger_statements=triggers
        )
        report = DeltaVerifierProbe().finalize(final_state(delta_findings=findings))
        assert not report.ok
        assert report.details["errors"] >= 1
        assert any("RPC101" in violation for violation in report.violations)

    def test_warnings_alone_do_not_fire(self):
        """Severity matters: warning-level findings show up in the details
        but are not violations."""

        class StyleNit:
            severity = "warning"

        report = DeltaVerifierProbe().finalize(
            final_state(delta_findings=[StyleNit()])
        )
        assert report.ok
        assert report.details == {"findings": 1, "errors": 0}
