"""The order/inventory workload: differential round-trips under every
materialization, seeded determinism, version-pin skew, and the
structural table classification the soak clients rely on."""

from __future__ import annotations

import random

import pytest

from repro.workloads.orders import (
    ORDER_NO_STRIDE,
    ORDERS_SCRIPTS,
    assign_version_pins,
    build_orders,
    inventory_row,
    inventory_tables,
    order_no_for,
    order_row,
    order_tables,
    tenant_name,
)
from tests.testing import DualSystem
from tests.testing.compare import visible_state


class TestDifferentialRoundTrips:
    def test_scenario_round_trips_under_every_materialization(self, tmp_path):
        ds = DualSystem(database=str(tmp_path / "orders.db"))
        ds.execute_ddl(ORDERS_SCRIPTS[0])
        ds.attach()
        rng = random.Random(3)
        ds.runmany(
            "v1",
            "INSERT INTO Orders(tenant, order_no, qty, status) VALUES (?, ?, ?, ?)",
            [
                order_row(rng, tenant_name(index), order_no_for(index, serial))
                for index in range(2)
                for serial in range(8)
            ],
        )
        ds.runmany(
            "v1",
            "INSERT INTO Inventory(sku, stock, reserved) VALUES (?, ?, ?)",
            [inventory_row(rng, tenant_name(0), serial) for serial in range(3)],
        )
        try:
            for script in ORDERS_SCRIPTS[1:]:
                ds.execute_ddl(script)
            ds.check("built")
            for target in ("v1", "v2", "v3"):
                ds.materialize(target)
                ds.check(f"materialized-{target}")
                # Writes through every version still agree afterwards.
                ds.run(
                    "v1",
                    "UPDATE Orders SET qty = ? WHERE order_no = ?",
                    (7, order_no_for(0, 1)),
                )
                ds.run(
                    "v2",
                    "INSERT INTO Orders(tenant, order_no, qty, status, total)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (tenant_name(0), order_no_for(0, 100 + ord(target[1])), 2, 0, 200),
                )
                ds.run(
                    "v3",
                    "DELETE FROM Closed WHERE order_no = ?",
                    (order_no_for(1, 1) if target == "v1" else -1,),
                )
                ds.check(f"written-under-{target}")
        finally:
            ds.close()

    def test_split_conditions_are_complementary(self):
        """Every order row is visible in exactly one of v3's partitions —
        what makes the lost-write probe's union check sound."""
        scenario = build_orders(tenants=2, orders_per_tenant=10, seed=7)
        state = visible_state(scenario.engine)
        v1_rows = {row[1] for row in state[("v1", "Orders")]}
        open_rows = {row[1] for row in state[("v3", "Open")]}
        closed_rows = {row[1] for row in state[("v3", "Closed")]}
        assert open_rows | closed_rows == v1_rows
        assert not open_rows & closed_rows


class TestDeterminism:
    def test_same_arguments_build_identical_states(self):
        build = dict(tenants=3, orders_per_tenant=9, inventory_per_tenant=2, seed=13)
        first = build_orders(**build)
        second = build_orders(**build)
        assert visible_state(first.engine) == visible_state(second.engine)
        assert first.versions == second.versions == ["v1", "v2", "v3"]

    def test_different_seeds_differ(self):
        first = build_orders(tenants=2, orders_per_tenant=9, seed=1)
        second = build_orders(tenants=2, orders_per_tenant=9, seed=2)
        assert visible_state(first.engine) != visible_state(second.engine)

    def test_version_count_is_validated(self):
        with pytest.raises(ValueError, match="versions"):
            build_orders(versions=4)
        assert build_orders(tenants=1, versions=1).versions == ["v1"]


class TestIdentity:
    def test_tenant_strides_are_disjoint(self):
        assert tenant_name(3) == "t03"
        assert order_no_for(1, 0) - order_no_for(0, 0) == ORDER_NO_STRIDE
        highest = order_no_for(0, ORDER_NO_STRIDE - 1)
        assert highest < order_no_for(1, 0)

    def test_tables_are_classified_structurally(self):
        scenario = build_orders(tenants=1, orders_per_tenant=2)
        genealogy = scenario.engine.genealogy
        v1, v3 = genealogy.schema_version("v1"), genealogy.schema_version("v3")
        assert order_tables(v1) == ["Orders"]
        assert inventory_tables(v1) == ["Inventory"]
        assert order_tables(v3) == ["Closed", "Open"]  # split, sorted
        assert inventory_tables(v3) == ["Inventory"]


class TestVersionPins:
    VERSIONS = ["v1", "v2", "v3"]

    def test_deterministic_for_a_fixed_seed(self):
        first = assign_version_pins(self.VERSIONS, 50, seed=5)
        second = assign_version_pins(self.VERSIONS, 50, seed=5)
        assert first == second
        assert set(first) <= set(self.VERSIONS)

    def test_skew_prefers_old_versions(self):
        pins = assign_version_pins(self.VERSIONS, 600, seed=5, skew=2.0)
        counts = [pins.count(version) for version in self.VERSIONS]
        assert counts[0] > counts[1] > counts[2]
        # skew=2 weights 9:4:1 — the oldest version dominates.
        assert counts[0] > len(pins) / 2

    def test_zero_skew_is_uniformish(self):
        pins = assign_version_pins(self.VERSIONS, 600, seed=5, skew=0.0)
        counts = [pins.count(version) for version in self.VERSIONS]
        assert all(count > 100 for count in counts)

    def test_empty_versions_are_rejected(self):
        with pytest.raises(ValueError, match="at least one version"):
            assign_version_pins([], 4)
