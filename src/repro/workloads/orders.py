"""An order/inventory OLTP scenario for continuous-evolution testing.

Three co-existing schema versions over an order-entry data set, the kind
of lineage the paper's "app servers on different release trains" story
implies:

- ``v1`` — the initial release: ``Orders(tenant, order_no, qty, status)``
  and ``Inventory(sku, stock, reserved)``;
- ``v2`` — pricing rollout: adds a derived ``total`` column to Orders;
- ``v3`` — the fulfilment split: partitions Orders into ``Open`` and
  ``Closed`` on ``status`` (complementary conditions, so every order
  stays visible *somewhere* in the version).

Rows are identified by payload, never by rowid: each order carries a
*globally* unique ``order_no`` (tenants allocate from disjoint strided
ranges) and each inventory row a unique ``sku``.  That is what makes
the scenario safe under concurrent differential checking — workers only
touch rows they own, so committed writes commute, single-column
predicates address rows on any backend, and the differential oracle's
canonical comparison never sees ambiguous duplicate payloads.

The identity columns are *protected*: the soak harness's SMO stream must
never drop or rename them (everything else is fair game), so client SQL
keyed on them keeps working across every generated version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.catalog.versions import SchemaVersion
from repro.core.engine import InVerDa
from repro.sql.connection import Connection, connect

ORDERS_V1_SCRIPT = """
CREATE SCHEMA VERSION v1 WITH
CREATE TABLE Orders(tenant TEXT, order_no INTEGER, qty INTEGER, status INTEGER);
CREATE TABLE Inventory(sku TEXT, stock INTEGER, reserved INTEGER);
"""

ORDERS_V2_SCRIPT = """
CREATE SCHEMA VERSION v2 FROM v1 WITH
ADD COLUMN total AS qty * 100 INTO Orders;
"""

ORDERS_V3_SCRIPT = """
CREATE SCHEMA VERSION v3 FROM v2 WITH
SPLIT TABLE Orders INTO Open WITH status % 2 = 0, Closed WITH status % 2 = 1;
"""

ORDERS_SCRIPTS = (ORDERS_V1_SCRIPT, ORDERS_V2_SCRIPT, ORDERS_V3_SCRIPT)

#: Identity columns client SQL is keyed on.  The soak SMO stream never
#: drops or renames these (or the tables would become unaddressable for
#: pinned clients), and the lost-write probe matches rows on them.
PROTECTED_COLUMNS = frozenset({"tenant", "order_no", "sku"})


#: Each tenant allocates order numbers from its own stride, so order_no
#: alone identifies a row globally and every tenant can keep inserting
#: without ever colliding with a neighbour.
ORDER_NO_STRIDE = 1_000_000


def tenant_name(index: int) -> str:
    return f"t{index:02d}"


def order_no_for(tenant_index: int, serial: int) -> int:
    return tenant_index * ORDER_NO_STRIDE + serial


def order_row(rng: random.Random, tenant: str, order_no: int) -> tuple:
    """``(tenant, order_no, qty, status)`` — globally unique by order_no."""
    return (tenant, order_no, rng.randint(1, 9), rng.randint(0, 1))


def inventory_row(rng: random.Random, tenant: str, serial: int) -> tuple:
    """``(sku, stock, reserved)`` — the sku encodes the owning tenant."""
    return (f"{tenant}-sku{serial}", rng.randint(0, 50), rng.randint(0, 5))


def order_tables(version: SchemaVersion) -> list[str]:
    """Tables of ``version`` holding order rows, whatever their names.

    Recognized structurally: any table carrying both identity columns.
    After the v3 split (or one generated by the soak stream) a version
    has several order tables; after a rename it has one with a new name.
    """
    return [
        name
        for name, tv in sorted(version.tables.items())
        if "order_no" in tv.schema.column_names
    ]


def inventory_tables(version: SchemaVersion) -> list[str]:
    return [
        name
        for name, tv in sorted(version.tables.items())
        if "sku" in tv.schema.column_names
    ]


def assign_version_pins(
    versions: list[str],
    clients: int,
    *,
    seed: int = 0,
    skew: float = 2.0,
) -> list[str]:
    """Pin ``clients`` workers to schema versions, skewed toward old ones.

    ``versions`` is ordered oldest → newest.  Weights follow a power law
    in age rank — with ``skew=2`` over three versions the oldest is 9×
    likelier than the newest — modelling a fleet where most app servers
    still run old releases while a few canaries ride the tip.
    Deterministic for a fixed seed.
    """
    if not versions:
        raise ValueError("assign_version_pins needs at least one version")
    rng = random.Random(seed)
    n = len(versions)
    weights = [float(n - rank) ** skew for rank in range(n)]
    return rng.choices(versions, weights=weights, k=clients)


@dataclass
class OrdersScenario:
    engine: InVerDa
    tenants: list[str]
    orders_per_tenant: int
    inventory_per_tenant: int
    rng: random.Random
    seed: int
    versions: list[str] = field(default_factory=list)

    def connect(self, version: str, *, autocommit: bool = True, backend=None) -> Connection:
        return connect(self.engine, version, autocommit=autocommit, backend=backend)


def build_orders(
    tenants: int = 4,
    orders_per_tenant: int = 25,
    inventory_per_tenant: int = 5,
    *,
    seed: int = 11,
    versions: int = 3,
) -> OrdersScenario:
    """Build the order/inventory database with ``versions`` (1–3) schema
    versions, loading data through the SQL layer exactly like an app
    would.  Deterministic for a fixed seed: two scenarios built with the
    same arguments hold byte-identical logical states, which is what lets
    the soak harness run one copy live and keep the other as the
    differential oracle.
    """
    if not 1 <= versions <= len(ORDERS_SCRIPTS):
        raise ValueError(f"versions must be between 1 and {len(ORDERS_SCRIPTS)}")
    engine = InVerDa()
    engine.execute(ORDERS_V1_SCRIPT)
    rng = random.Random(seed)
    names = [tenant_name(i) for i in range(tenants)]
    orders = [
        order_row(rng, tenant, order_no_for(index, serial))
        for index, tenant in enumerate(names)
        for serial in range(orders_per_tenant)
    ]
    stock = [
        inventory_row(rng, tenant, serial)
        for tenant in names
        for serial in range(inventory_per_tenant)
    ]
    connection = connect(engine, "v1", autocommit=True)
    if orders:
        connection.executemany(
            "INSERT INTO Orders(tenant, order_no, qty, status) VALUES (?, ?, ?, ?)",
            orders,
        )
    if stock:
        connection.executemany(
            "INSERT INTO Inventory(sku, stock, reserved) VALUES (?, ?, ?)", stock
        )
    connection.close()
    for script in ORDERS_SCRIPTS[1:versions]:
        engine.execute(script)
    return OrdersScenario(
        engine=engine,
        tenants=names,
        orders_per_tenant=orders_per_tenant,
        inventory_per_tenant=inventory_per_tenant,
        rng=rng,
        seed=seed,
        versions=list(engine.version_names()),
    )
