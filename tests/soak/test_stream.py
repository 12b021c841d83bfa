"""The randomized SMO stream: seeded determinism, preflight-clean
output, version-count bounds, and identity-column protection."""

from __future__ import annotations

from repro.check import error_count, preflight_script
from repro.workloads.orders import (
    PROTECTED_COLUMNS,
    build_orders,
    inventory_tables,
    order_tables,
)
from soak.stream import SmoStream


def fresh_engine(seed=5):
    return build_orders(
        tenants=2, orders_per_tenant=6, inventory_per_tenant=2, seed=seed
    ).engine


def apply_events(engine, stream, count):
    """Drive ``count`` stream events through the preflight gate onto the
    engine, exactly as the harness does; returns the applied scripts."""
    applied = []
    for _ in range(count):
        generated = stream.next_script()
        if generated is None:
            continue
        kind, script = generated
        if error_count(preflight_script(engine, script)):
            continue
        engine.execute(script)
        applied.append((kind, script))
    return applied


class TestGeneration:
    def test_scripts_apply_in_sequence_against_the_live_catalog(self):
        engine = fresh_engine()
        stream = SmoStream(engine, seed=1)
        applied = apply_events(engine, stream, 25)
        # The generator derives every script from the current catalog, so
        # nearly everything it emits must survive the preflight gate.
        assert len(applied) >= 20
        kinds = {kind for kind, _ in applied}
        assert "evolve" in kinds

    def test_same_seed_same_engine_same_stream(self):
        first_engine, second_engine = fresh_engine(), fresh_engine()
        first = apply_events(first_engine, SmoStream(first_engine, seed=9), 15)
        second = apply_events(second_engine, SmoStream(second_engine, seed=9), 15)
        assert first == second
        assert first_engine.version_names() == second_engine.version_names()

    def test_different_seeds_diverge(self):
        first_engine, second_engine = fresh_engine(), fresh_engine()
        first = apply_events(first_engine, SmoStream(first_engine, seed=9), 15)
        second = apply_events(second_engine, SmoStream(second_engine, seed=10), 15)
        assert first != second


class TestVersionBounds:
    def test_version_count_stays_within_min_and_max(self):
        engine = fresh_engine()
        stream = SmoStream(engine, seed=4, min_versions=2, max_versions=4)
        for _ in range(40):
            generated = stream.next_script()
            if generated is None:
                continue
            _, script = generated
            if error_count(preflight_script(engine, script)):
                continue
            engine.execute(script)
            assert 2 <= len(engine.version_names()) <= 4

    def test_drops_only_remove_leaf_versions(self):
        engine = fresh_engine()
        stream = SmoStream(engine, seed=4)
        for _ in range(40):
            actives = engine.version_names()
            droppable = stream._droppable(actives)
            parents = {
                engine.genealogy.schema_version(name).parent for name in actives
            }
            assert not set(droppable) & parents
            generated = stream.next_script()
            if generated is None:
                continue
            _, script = generated
            if not error_count(preflight_script(engine, script)):
                engine.execute(script)


class TestProtectedColumns:
    def test_identity_columns_survive_every_generated_version(self):
        """Whatever the stream does — renames, splits, drops — every
        surviving version must keep addressable order and inventory
        tables, or pinned clients could not run their keyed SQL."""
        engine = fresh_engine()
        stream = SmoStream(engine, seed=21)
        apply_events(engine, stream, 30)
        for name in engine.version_names():
            version = engine.genealogy.schema_version(name)
            orders = order_tables(version)
            inventory = inventory_tables(version)
            assert orders, f"{name} lost all order tables"
            assert inventory, f"{name} lost all inventory tables"
            for table in orders:
                columns = set(version.tables[table].schema.column_names)
                assert {"tenant", "order_no"} <= columns
            for table in inventory:
                assert "sku" in version.tables[table].schema.column_names

    def test_protected_columns_never_named_in_destructive_smos(self):
        engine = fresh_engine()
        stream = SmoStream(engine, seed=33)
        applied = apply_events(engine, stream, 30)
        for _, script in applied:
            for column in PROTECTED_COLUMNS:
                assert f"DROP COLUMN {column} " not in script
                assert f"RENAME COLUMN {column} " not in script
