"""Statement streams: every round's operations are generated from the
seed *before* the round is timed, together with the result each one must
produce (the generator advances the shadow model as it goes — one client,
one thread, so generation order is execution order).

An operation is a plain tuple ``(cls, pin, sql, params, expect)``:

- ``cls`` indexes :data:`CLASSES` (or is :data:`PIPELINE`);
- ``pin`` indexes :data:`scenarios.ROLES`;
- ``expect`` is the sorted row list a read must return, or the row count
  a write must report.

For a pipeline ``params`` is the list of ``(sql, params)`` pairs and
``expect`` the list of per-statement expectations.

The class counts of a round are *dealt*, not drawn: every seed gets the
same number of operations per class and statement kind, shuffled into a
seed-dependent order with seed-dependent keys.  Class medians then
compare like with like across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from scenarios import ROLES, Scenario, Shadow, TableSpec, own_key_base

CLASSES = (
    "read_local", "read_fwd", "read_bwd",
    "write_local", "write_fwd", "write_bwd",
)
PIPELINE = len(CLASSES)

RANGE_ROWS = 20
RANGE_SHARE = 0.20
#: INSERT / UPDATE / DELETE shares of the single-row writes.
WRITE_KINDS = ("insert", "update", "delete")
WRITE_WEIGHTS = (30, 40, 30)
MAX_OUTSTANDING = 60
BATCH_ROWS = 50
PIPELINE_STATEMENTS = 8


@dataclass(frozen=True)
class Mix:
    """Shape of a steady round."""

    read_share: float
    #: Relative weight of the local / fwd / bwd pin.
    pin_weights: tuple[int, int, int] = (1, 1, 1)
    #: Every n-th operation is a pipeline of eight statements (0: never).
    pipeline_every: int = 0


class Statements:
    """The fixed SQL texts addressing one table (fixed, so that the
    program's plan cache and SQLite's statement cache are exercised the
    way a parameterised application exercises them)."""

    def __init__(self, scenario: Scenario, table: TableSpec):
        key = table.columns[scenario.key_index]
        updated = table.columns[scenario.update_index]
        name, columns = table.name, table.column_list
        marks = ", ".join("?" * len(table.columns))
        self.point = f"SELECT {columns} FROM {name} WHERE {key} = ?"
        self.range = f"SELECT {columns} FROM {name} WHERE {key} >= ? AND {key} < ?"
        self.insert = f"INSERT INTO {name}({columns}) VALUES ({marks})"
        self.update = f"UPDATE {name} SET {updated} = ? WHERE {key} = ?"
        self.delete = f"DELETE FROM {name} WHERE {key} = ?"
        self.range_delete = f"DELETE FROM {name} WHERE {key} >= ? AND {key} < ?"
        self.scan = f"SELECT {columns} FROM {name}"


def deal(total: int, weights) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``
    (largest remainder, ties to the earlier part)."""
    scale = sum(weights)
    exact = [total * w / scale for w in weights]
    parts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (parts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(parts)]:
        parts[i] += 1
    return parts


class OpGenerator:
    """Generates rounds of operations for one scenario and seed."""

    def __init__(self, scenario: Scenario, shadow: Shadow, seed: int, mix: Mix):
        self.scenario = scenario
        self.shadow = shadow
        self.mix = mix
        self.rng = random.Random(seed)
        self.pins = [scenario.pins[role] for role in ROLES]
        self.statements = [Statements(scenario, pin.primary) for pin in self.pins]
        #: Keys each pin's primary table showed at the start: nothing is
        #: ever inserted among or deleted from them, so a slice of this
        #: list is a range read with a known row count.
        self.initial_keys = [shadow.keys(pin.primary) for pin in self.pins]
        self.next_key = [own_key_base(i) for i in range(len(self.pins))]
        self.outstanding: list[list[int]] = [[] for _ in self.pins]
        self.owed = [0] * len(self.pins)
        self.batch_key = own_key_base(3)

    # -- single statements --------------------------------------------------

    def point(self, pin: int):
        key = self.rng.choice(self.initial_keys[pin])
        expect = self.shadow.point(self.pins[pin].primary, key)
        return (pin, pin, self.statements[pin].point, (key,), expect)

    def _range(self, pin: int):
        keys = self.initial_keys[pin]
        start = self.rng.randrange(len(keys) - RANGE_ROWS)
        chosen = keys[start : start + RANGE_ROWS]
        expect = [self.shadow.rows[key] for key in chosen]
        params = (chosen[0], keys[start + RANGE_ROWS])
        return (pin, pin, self.statements[pin].range, params, expect)

    def _write(self, pin: int, kind: str):
        rng, shadow, texts = self.rng, self.shadow, self.statements[pin]
        outstanding = self.outstanding[pin]
        # A DELETE needs a row of the pin's own, and at most MAX_OUTSTANDING
        # of those exist: a dealt kind that cannot be served trades places
        # with a later statement of the other kind (``owed`` > 0: DELETEs
        # still to come, < 0: INSERTs), so the counts stay as dealt.
        owed = self.owed[pin]
        if kind == "delete" and (not outstanding or owed < 0):
            kind = "insert"
            self.owed[pin] += 1
        elif kind == "insert" and (
            len(outstanding) >= MAX_OUTSTANDING or (owed > 0 and outstanding)
        ):
            kind = "delete"
            self.owed[pin] -= 1
        cls = 3 + pin
        if kind == "insert":
            key = self.next_key[pin]
            self.next_key[pin] += 1
            row = self.scenario.fresh_row(ROLES[pin], key, rng)
            shadow.insert(row)
            outstanding.append(key)
            return (cls, pin, texts.insert, row, 1)
        if kind == "update":
            key = rng.choice(self.initial_keys[pin])
            value = self.scenario.update_value(rng)
            shadow.update(key, value)
            return (cls, pin, texts.update, (value, key), 1)
        position = rng.randrange(len(outstanding))
        outstanding[position], outstanding[-1] = outstanding[-1], outstanding[position]
        key = outstanding.pop()
        shadow.delete(key)
        return (cls, pin, texts.delete, (key,), 1)

    def _statement(self, slot):
        kind, pin = slot
        if kind == "point":
            return self.point(pin)
        if kind == "range":
            return self._range(pin)
        return self._write(pin, kind)

    def _slots(self, count: int, pin_weights) -> list[tuple[str, int]]:
        """``count`` statement slots in the mix's proportions."""
        reads = round(count * self.mix.read_share)
        slots: list[tuple[str, int]] = []
        for pin, n in enumerate(deal(reads, pin_weights)):
            ranges = round(n * RANGE_SHARE)
            slots += [("range", pin)] * ranges + [("point", pin)] * (n - ranges)
        for pin, n in enumerate(deal(count - reads, pin_weights)):
            for kind, m in zip(WRITE_KINDS, deal(n, WRITE_WEIGHTS)):
                slots += [(kind, pin)] * m
        self.rng.shuffle(slots)
        return slots

    # -- rounds ---------------------------------------------------------------

    def round(self, operations: int) -> list[tuple]:
        """``operations`` operations; with ``pipeline_every`` set, every
        n-th of them is a pipeline of eight statements on one pin."""
        every = self.mix.pipeline_every
        pipelines = operations // every if every else 0
        slots = self._slots(operations - pipelines, self.mix.pin_weights)
        pipeline_pins: list[int] = []
        for pin, n in enumerate(deal(pipelines, self.mix.pin_weights)):
            pipeline_pins += [pin] * n
        self.rng.shuffle(pipeline_pins)
        # Statements are generated in execution order: the shadow model
        # each expectation is read from must be the one the statement meets.
        ops: list[tuple] = []
        position = 0
        for pin in pipeline_pins:
            ops += [self._statement(slot) for slot in slots[position : position + every - 1]]
            position += every - 1
            ops.append(self._pipeline(pin))
        return ops + [self._statement(slot) for slot in slots[position:]]

    def _pipeline(self, pin: int) -> tuple:
        one_pin = [0] * len(self.pins)
        one_pin[pin] = 1
        batch = [
            self._statement(slot) for slot in self._slots(PIPELINE_STATEMENTS, one_pin)
        ]
        return (
            PIPELINE, pin, None,
            [(op[2], op[3]) for op in batch],
            [(op[0] < 3, op[4]) for op in batch],
        )

    def batch(self, index: int):
        """The round's 50-row ``executemany`` INSERT on a rotating pin and
        the range DELETE that removes it again:
        ``(pin, insert_sql, rows, delete_sql, delete_params)``."""
        pin = index % len(self.pins)
        first = self.batch_key
        self.batch_key += BATCH_ROWS
        rows = [
            self.scenario.fresh_row(ROLES[pin], first + i, self.rng)
            for i in range(BATCH_ROWS)
        ]
        texts = self.statements[pin]
        return (pin, texts.insert, rows, texts.range_delete, (first, first + BATCH_ROWS))
