"""The shadow model against a real 50-row database."""

import random

import pytest

from harness import System
from opgen import Statements
from scenarios import ROLES, ChainScenario, OrdersScenario, Shadow


@pytest.fixture
def chain(tmp_path):
    scenario = ChainScenario(50)
    system = System.build(scenario, "inproc", str(tmp_path))
    bwd = scenario.pins["bwd"]
    rows = [tuple(row) for row in system.read_table(bwd, bwd.primary)]
    yield scenario, system, Shadow(scenario, rows)
    system.close()


def test_initial_contents_match(chain):
    scenario, system, shadow = chain
    assert len(shadow.rows) == 50
    assert shadow.mismatches(system.read_table) == []
    # SPLIT conditions: S4 shows a row in Even or Odd, S8 in Lo, Hi or Odd.
    for pin in scenario.pins.values():
        shown = sum(len(shadow.contents(table)) for table in pin.tables)
        assert shown == 50


def test_writes_through_every_pin_are_seen_by_every_pin(chain):
    scenario, system, shadow = chain
    rng = random.Random(7)
    for pin, role in enumerate(ROLES):
        texts = Statements(scenario, scenario.pins[role].primary)
        connection = system.connections[pin]
        key = 1000 + pin
        row = scenario.fresh_row(role, key, rng)
        assert connection.execute(texts.insert, row).rowcount == 1
        shadow.insert(row)
        victim = shadow.keys(scenario.pins[role].primary)[0]
        value = scenario.update_value(rng)
        assert connection.execute(texts.update, (value, victim)).rowcount == 1
        shadow.update(victim, value)
        assert shadow.mismatches(system.read_table) == []
    for pin, role in enumerate(ROLES):
        texts = Statements(scenario, scenario.pins[role].primary)
        assert system.connections[pin].execute(texts.delete, (1000 + pin,)).rowcount == 1
        shadow.delete(1000 + pin)
    assert shadow.mismatches(system.read_table) == []
    assert len(shadow.rows) == 50


def test_a_lost_write_is_reported(chain):
    scenario, system, shadow = chain
    shadow.update(0, "never written")
    problems = shadow.mismatches(system.read_table)
    # Key 0 has grp 0 and qty 0: Item, Even and Lo show it.
    assert len(problems) == 3
    assert all("never written" in problem for problem in problems)


def test_point_reads_honour_the_conditions(chain):
    scenario, _system, shadow = chain
    lo = scenario.pins["fwd"].primary
    assert shadow.point(lo, 0) == [shadow.rows[0]]
    assert shadow.point(lo, 1) == []        # grp 1: shown by Odd, not Lo
    assert shadow.point(lo, 12345) == []


def test_survives_a_move_pair_and_a_restart(chain):
    scenario, system, shadow = chain
    for script in scenario.move_pair:
        system.engine.execute(script)
    assert shadow.mismatches(system.read_table) == []


def test_orders_static_table_is_checked(tmp_path):
    scenario = OrdersScenario()
    system = System.build(scenario, "inproc", str(tmp_path))
    try:
        local, bwd = scenario.pins["local"], scenario.pins["bwd"]
        rows = [tuple(row) for row in system.read_table(bwd, bwd.primary)]
        static = {
            table.name: [tuple(row) for row in system.read_table(local, table)]
            for table in scenario.static_tables
        }
        shadow = Shadow(scenario, rows, static)
        assert len(rows) == 500 and len(static["Inventory"]) == 100
        assert shadow.mismatches(system.read_table) == []
        static["Inventory"].pop()
        assert len(shadow.mismatches(system.read_table)) == 1
    finally:
        system.close()
