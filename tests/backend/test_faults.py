"""The ``tests.testing`` fault injectors: the classic one-shot crash
injector and the seeded probability-based injector the soak harness
installs, plus the CLI fault-spec parser."""

from __future__ import annotations

import pytest

from tests.testing import (
    DualSystem,
    InjectedFault,
    RandomFaultInjector,
    one_shot,
    parse_fault_spec,
)

EVOLUTION = "CREATE SCHEMA VERSION v2 FROM v1 WITH ADD COLUMN c AS a + 1 INTO R;"


def drive(injector, sequence):
    """Cross every point in ``sequence``, recording what fired."""
    fired = []
    for point in sequence:
        try:
            injector(point)
        except InjectedFault as fault:
            fired.append((fault.visit, fault.point))
    return fired


class TestOneShot:
    def test_fires_once_at_its_point_then_stays_quiet(self):
        injector = one_shot("drop:before-commit")
        injector("evolution:before-commit")  # other points pass through
        with pytest.raises(InjectedFault) as excinfo:
            injector("drop:before-commit")
        assert excinfo.value.point == "drop:before-commit"
        injector("drop:before-commit")  # spent: quiet forever after

    def test_custom_exception_class(self):
        class Boom(Exception):
            pass

        injector = one_shot("materialize:staged", exception=Boom)
        with pytest.raises(Boom):
            injector("materialize:staged")
        injector("materialize:staged")

    def test_aborted_transition_recovers_cleanly(self, tmp_path):
        """End to end through the backend hook: the injected crash must
        leave no trace after reopen, exactly like the crash-safety suite's
        hand-rolled injectors."""
        ds = DualSystem(database=str(tmp_path / "faults.db"))
        ds.execute_ddl("CREATE SCHEMA VERSION v1 WITH CREATE TABLE R(a INTEGER);")
        ds.attach()
        ds.runmany("v1", "INSERT INTO R(a) VALUES (?)", [(i,) for i in range(5)])
        try:
            ds.backend.fault_injector = one_shot("evolution:before-commit")
            with pytest.raises(InjectedFault):
                ds.sq.execute(EVOLUTION)
            ds.reopen()
            ds.check("recovered-after-one-shot")
            ds.execute_ddl(EVOLUTION)
            ds.check("evolved-after-one-shot")
        finally:
            ds.close()


class TestRandomFaultInjector:
    def test_rate_one_fires_on_every_visit_of_its_point(self):
        injector = RandomFaultInjector({"p": 1.0}, seed=3)
        for _ in range(5):
            injector("other")  # rate 0.0: never fires
        fired = drive(injector, ["p", "p", "p"])
        assert [point for _, point in fired] == ["p", "p", "p"]
        assert injector.visits == ["other"] * 5 + ["p"] * 3
        assert injector.fired == fired

    def test_same_seed_same_visit_sequence_same_firing_pattern(self):
        sequence = ["evolution:before-commit", "materialize:staged"] * 50
        rates = {"evolution:before-commit": 0.5, "materialize:staged": 0.2}
        first = drive(RandomFaultInjector(rates, seed=7), sequence)
        second = drive(RandomFaultInjector(rates, seed=7), sequence)
        assert first == second
        assert first  # 100 draws at these rates: silence would be a bug
        other = drive(RandomFaultInjector(rates, seed=8), sequence)
        assert first != other

    def test_disarming_does_not_shift_the_rng_stream(self):
        """Visits drawn while disarmed still consume rng draws, so arming
        back up re-joins the exact stream an always-armed twin follows."""
        sequence = ["p"] * 30
        rates = {"p": 0.4}
        always = RandomFaultInjector(rates, seed=11)
        always_fired = drive(always, sequence)
        flipped = RandomFaultInjector(rates, seed=11)
        flipped.armed = False
        assert drive(flipped, sequence[:10]) == []
        flipped.armed = True
        late = drive(flipped, sequence[10:])
        assert late == [entry for entry in always_fired if entry[0] > 10]

    def test_rates_outside_unit_interval_are_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RandomFaultInjector({"p": 1.5})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RandomFaultInjector({"p": -0.1})

    def test_describe_is_a_json_friendly_account(self):
        injector = RandomFaultInjector({"p": 1.0}, seed=5)
        drive(injector, ["q", "p"])
        description = injector.describe()
        assert description == {
            "seed": 5,
            "rates": {"p": 1.0},
            "visits": 2,
            "fired": [{"visit": 2, "point": "p"}],
        }


class TestParseFaultSpec:
    def test_parses_points_and_rates(self):
        spec = "evolution:before-commit=1.0, drop:before-commit=0.5"
        assert parse_fault_spec(spec) == {
            "evolution:before-commit": 1.0,
            "drop:before-commit": 0.5,
        }

    def test_single_point(self):
        assert parse_fault_spec("materialize:staged=0.25") == {
            "materialize:staged": 0.25
        }

    def test_empty_segments_are_skipped(self):
        assert parse_fault_spec("p=1.0,,") == {"p": 1.0}

    def test_missing_rate_is_rejected(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_fault_spec("evolution:before-commit")

    def test_round_trips_through_the_injector(self):
        rates = parse_fault_spec("evolution:before-commit=1.0")
        injector = RandomFaultInjector(rates, seed=1)
        with pytest.raises(InjectedFault):
            injector("evolution:before-commit")
