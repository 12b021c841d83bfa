"""The two databases the workloads run on, and the shadow model that
says what every statement must return.

Every scenario pins three co-existing schema versions:

- ``local`` — its tables are the physical ones (the materialized version);
- ``fwd``   — ``distance`` SMO hops *newer* than the materialized version;
- ``bwd``   — ``distance`` hops *older*.

Each pin exposes the same logical rows under its own table and column
names, partitioned by the SPLIT conditions on the way.  A row is a tuple
of the scenario's *base columns*; a :class:`TableSpec` names those columns
the way one table of one version does and says which rows it shows.  All
chains come from the differentially safe SMO subset (RENAME COLUMN, ADD
COLUMN, RENAME TABLE, DROP COLUMN … DEFAULT, complementary SPLIT), the
workloads never change a column a SPLIT condition reads, and they insert
through a table only rows that satisfy its condition — so which tables
show a row is a function of the row alone, and the shadow model is one
dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import repro
from repro.workloads.orders import build_orders, tenant_name

ROLES = ("local", "fwd", "bwd")

#: Keys the workloads create themselves start here, far above every
#: initial key; each writer owns a disjoint stride below it.
OWN_KEY_BASE = 100_000_000
OWN_KEY_STRIDE = 10_000_000


def own_key_base(owner: int) -> int:
    """First key of writer ``owner`` (0–2: the pins' single-row writes,
    3: the per-round batches, 4: leaf versions, 5–7: the layer peel)."""
    return OWN_KEY_BASE + owner * OWN_KEY_STRIDE


@dataclass(frozen=True)
class TableSpec:
    """One table of one schema version, as a window on the base rows."""

    name: str
    columns: tuple[str, ...]
    member: Callable[[tuple], bool]

    @property
    def column_list(self) -> str:
        return ", ".join(self.columns)


@dataclass(frozen=True)
class Pin:
    role: str
    version: str
    #: The table this pin's statements address.
    primary: TableSpec
    #: Every table of the version that shows base rows (for the
    #: full-contents check); complementary, so together they show all.
    tables: tuple[TableSpec, ...]


@dataclass(frozen=True)
class Leaf:
    """A throw-away version evolved from the ``fwd`` pin's version."""

    version: str
    create: str
    drop: str
    table: TableSpec


def _always(_row: tuple) -> bool:
    return True


class Scenario:
    """Shared shape of the two scenarios (see the subclasses)."""

    name: str
    base_columns: tuple[str, ...]
    key_index: int
    #: The column UPDATE statements rewrite (never read by a condition).
    update_index: int
    pins: dict[str, Pin]
    distance: int
    #: Tables of the local version the workloads never touch (they count
    #: as user data and must come through every transition unchanged).
    static_tables: tuple[TableSpec, ...] = ()

    def build(self) -> "repro.InVerDa":
        raise NotImplementedError

    def fresh_row(self, role: str, key: int, rng) -> tuple:
        """A new row with key ``key`` that ``role``'s primary table (and,
        for ``fwd``, every leaf table) accepts."""
        raise NotImplementedError

    def update_value(self, rng):
        raise NotImplementedError

    def leaf(self, index: int) -> Leaf:
        raise NotImplementedError

    @staticmethod
    def user_bytes(rows) -> int:
        """8 per INTEGER, UTF-8 length per TEXT."""
        return sum(
            len(value.encode()) if isinstance(value, str) else 8
            for row in rows
            for value in row
        )

    @property
    def move_pair(self) -> tuple[str, str]:
        """Offline move to ``fwd``, online move back to ``local`` — after
        the pair every pin is in its class again."""
        return (
            f"MATERIALIZE '{self.pins['fwd'].version}';",
            f"MATERIALIZE ONLINE '{self.pins['local'].version}';",
        )

    def _leaf(self, index: int, kinds) -> Leaf:
        version = f"L{index}"
        smo, table = kinds[index % len(kinds)]
        return Leaf(
            version=version,
            create=f"CREATE SCHEMA VERSION {version} FROM {self.pins['fwd'].version} WITH {smo}",
            drop=f"DROP SCHEMA VERSION {version};",
            table=table,
        )


class ChainScenario(Scenario):
    """``S0 … S8``: eight SMOs, materialized in the middle.

    ``Item(k, grp, qty, note)`` is renamed, widened, split on ``grp``
    parity (S4: ``Even`` / ``Odd``), then ``Even`` is renamed, widened,
    narrowed and split again on ``qty`` parity (S8: ``Lo`` / ``Hi``).
    Pins: ``S0`` (bwd), ``S4`` (local), ``S8`` (fwd) — distance 4.
    """

    name = "chain"
    base_columns = ("k", "grp", "qty", "note")
    key_index = 0
    update_index = 3
    distance = 4

    SCRIPTS = (
        "CREATE SCHEMA VERSION S0 WITH CREATE TABLE Item(k INTEGER, grp INTEGER, qty INTEGER, note TEXT);",
        "CREATE SCHEMA VERSION S1 FROM S0 WITH RENAME COLUMN note IN Item TO memo;",
        "CREATE SCHEMA VERSION S2 FROM S1 WITH ADD COLUMN dbl AS qty * 2 INTO Item;",
        "CREATE SCHEMA VERSION S3 FROM S2 WITH RENAME TABLE Item INTO Thing;",
        "CREATE SCHEMA VERSION S4 FROM S3 WITH SPLIT TABLE Thing INTO Even WITH grp % 2 = 0, Odd WITH grp % 2 = 1;",
        "CREATE SCHEMA VERSION S5 FROM S4 WITH RENAME COLUMN memo IN Even TO remark;",
        "CREATE SCHEMA VERSION S6 FROM S5 WITH ADD COLUMN inc AS qty + 1 INTO Even;",
        "CREATE SCHEMA VERSION S7 FROM S6 WITH DROP COLUMN dbl FROM Even DEFAULT 0;",
        "CREATE SCHEMA VERSION S8 FROM S7 WITH SPLIT TABLE Even INTO Lo WITH qty % 2 = 0, Hi WITH qty % 2 = 1;",
    )

    def __init__(self, rows: int):
        self.rows = rows
        even = lambda row: row[1] % 2 == 0  # noqa: E731
        odd = lambda row: row[1] % 2 == 1  # noqa: E731
        lo = lambda row: row[1] % 2 == 0 and row[2] % 2 == 0  # noqa: E731
        hi = lambda row: row[1] % 2 == 0 and row[2] % 2 == 1  # noqa: E731
        old = ("k", "grp", "qty", "memo")
        new = ("k", "grp", "qty", "remark")
        item = TableSpec("Item", self.base_columns, _always)
        even_t, odd_t = TableSpec("Even", old, even), TableSpec("Odd", old, odd)
        lo_t, hi_t = TableSpec("Lo", new, lo), TableSpec("Hi", new, hi)
        self.pins = {
            "local": Pin("local", "S4", even_t, (even_t, odd_t)),
            "fwd": Pin("fwd", "S8", lo_t, (lo_t, hi_t, odd_t)),
            "bwd": Pin("bwd", "S0", item, (item,)),
        }
        self._lo = lo

    def build(self):
        engine = repro.InVerDa()
        engine.execute(self.SCRIPTS[0])
        connection = repro.connect(engine, "S0", autocommit=True)
        connection.executemany(
            "INSERT INTO Item(k, grp, qty, note) VALUES (?, ?, ?, ?)",
            [(i, i % 7, i % 13, f"n{i}") for i in range(self.rows)],
        )
        connection.close()
        for script in self.SCRIPTS[1:]:
            engine.execute(script)
        return engine

    def fresh_row(self, role, key, rng):
        if role == "bwd":
            return (key, rng.randrange(7), rng.randrange(13), f"i{key}")
        grp = 2 * rng.randrange(4)
        qty = 2 * rng.randrange(7) if role == "fwd" else rng.randrange(13)
        return (key, grp, qty, f"i{key}")

    def update_value(self, rng):
        return f"u{rng.randrange(1_000_000):06d}"

    def leaf(self, index):
        lo = self._lo
        new = self.pins["fwd"].primary.columns
        renamed = ("k", "grp", "qty", f"r{index}")
        kinds = (
            (f"RENAME COLUMN remark IN Lo TO r{index};", TableSpec("Lo", renamed, lo)),
            (f"ADD COLUMN x{index} AS qty + 1 INTO Lo;", TableSpec("Lo", new, lo)),
            (f"RENAME TABLE Lo INTO Lo{index};", TableSpec(f"Lo{index}", new, lo)),
            (
                f"SPLIT TABLE Lo INTO A{index} WITH k % 2 = 0, B{index} WITH k % 2 = 1;",
                TableSpec(f"A{index}", new, lambda row: lo(row) and row[0] % 2 == 0),
            ),
            ("DROP COLUMN inc FROM Lo DEFAULT 0;", TableSpec("Lo", new, lo)),
        )
        return self._leaf(index, kinds)


class OrdersScenario(Scenario):
    """``repro.workloads.orders``: ``v1`` → ADD COLUMN → ``v2`` → SPLIT
    on ``status`` parity → ``v3``; materialized at ``v2`` — distance 1.

    The fixture is built with ``build_orders``' own default seed, so the
    partition sizes (which set what a scan costs) are the same for every
    ``--seed``; the seed drives the statements.
    """

    name = "orders"
    base_columns = ("tenant", "order_no", "qty", "status")
    key_index = 1
    update_index = 2
    distance = 1
    TENANTS, ORDERS_PER_TENANT, INVENTORY_PER_TENANT = 4, 125, 25

    def __init__(self):
        cols = self.base_columns
        opened = lambda row: row[3] % 2 == 0  # noqa: E731
        closed = lambda row: row[3] % 2 == 1  # noqa: E731
        orders = TableSpec("Orders", cols, _always)
        open_t, closed_t = TableSpec("Open", cols, opened), TableSpec("Closed", cols, closed)
        self.pins = {
            "local": Pin("local", "v2", orders, (orders,)),
            "fwd": Pin("fwd", "v3", open_t, (open_t, closed_t)),
            "bwd": Pin("bwd", "v1", orders, (orders,)),
        }
        self._open = opened
        self.static_tables = (
            TableSpec("Inventory", ("sku", "stock", "reserved"), _always),
        )
        self.tenant_names = [tenant_name(i) for i in range(self.TENANTS)]

    def build(self):
        scenario = build_orders(
            tenants=self.TENANTS,
            orders_per_tenant=self.ORDERS_PER_TENANT,
            inventory_per_tenant=self.INVENTORY_PER_TENANT,
        )
        return scenario.engine

    def fresh_row(self, role, key, rng):
        tenant = self.tenant_names[rng.randrange(len(self.tenant_names))]
        status = 0 if role == "fwd" else rng.randrange(2)
        return (tenant, key, rng.randint(1, 9), status)

    def update_value(self, rng):
        return rng.randint(1, 9)

    def leaf(self, index):
        opened = self._open
        cols = self.base_columns
        renamed = ("tenant", "order_no", f"q{index}", "status")
        kinds = (
            (f"RENAME COLUMN qty IN Open TO q{index};", TableSpec("Open", renamed, opened)),
            (f"ADD COLUMN x{index} AS qty + 1 INTO Open;", TableSpec("Open", cols, opened)),
            (f"RENAME TABLE Open INTO Open{index};", TableSpec(f"Open{index}", cols, opened)),
            (
                f"SPLIT TABLE Open INTO A{index} WITH order_no % 2 = 0, "
                f"B{index} WITH order_no % 2 = 1;",
                TableSpec(f"A{index}", cols, lambda row: opened(row) and row[1] % 2 == 0),
            ),
            ("DROP COLUMN total FROM Open DEFAULT 0;", TableSpec("Open", cols, opened)),
        )
        return self._leaf(index, kinds)


class Shadow:
    """What the database must contain: base rows keyed by the unique key."""

    def __init__(self, scenario: Scenario, rows, static=None):
        self.scenario = scenario
        self.rows: dict[int, tuple] = {row[scenario.key_index]: row for row in rows}
        #: Contents of the scenario's static tables, by table name.
        self.static: dict[str, list[tuple]] = static or {}

    def insert(self, row: tuple) -> None:
        self.rows[row[self.scenario.key_index]] = row

    def update(self, key: int, value) -> None:
        row = list(self.rows[key])
        row[self.scenario.update_index] = value
        self.rows[key] = tuple(row)

    def delete(self, key: int) -> None:
        del self.rows[key]

    def point(self, table: TableSpec, key: int) -> list[tuple]:
        row = self.rows.get(key)
        return [row] if row is not None and table.member(row) else []

    def contents(self, table: TableSpec) -> list[tuple]:
        return sorted(row for row in self.rows.values() if table.member(row))

    def keys(self, table: TableSpec) -> list[int]:
        key_index = self.scenario.key_index
        return sorted(
            row[key_index] for row in self.rows.values() if table.member(row)
        )

    def mismatches(self, read_table) -> list[str]:
        """Compare every table of every pin with the model.
        ``read_table(pin, table)`` returns the table's rows."""
        problems = []
        local = self.scenario.pins["local"]
        checks = [
            (pin, table, self.contents(table))
            for pin in self.scenario.pins.values()
            for table in pin.tables
        ] + [
            (local, table, sorted(self.static[table.name]))
            for table in self.scenario.static_tables
        ]
        for pin, table, expected in checks:
            actual = sorted(tuple(row) for row in read_table(pin, table))
            if actual != expected:
                problems.append(
                    f"{pin.version}.{table.name}: {len(actual)} rows, "
                    f"expected {len(expected)}; first difference "
                    f"{_first_difference(actual, expected)}"
                )
        return problems


def _first_difference(actual: list, expected: list):
    for a, e in zip(actual, expected):
        if a != e:
            return (a, e)
    longer = actual if len(actual) > len(expected) else expected
    shorter = min(len(actual), len(expected))
    return longer[shorter] if len(longer) > shorter else None
