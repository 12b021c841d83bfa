"""The acceptance property: randomized SMO chains and materializations,
evolved and written through a file-backed engine, survive process
restarts — after every ``repro.open`` the recovered side answers the
differential read/write suite identically to an in-memory engine that
never restarted."""

from __future__ import annotations

import random

import pytest

from repro.catalog.materialization import enumerate_valid_materializations
from tests.backend.test_differential import (
    CHAINS,
    WORDS,
    _apply_materialization,
    _fuzz_ops,
)
from tests.testing import DualSystem


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_roundtrip_chain(tmp_path, name):
    create, load, evolutions = CHAINS[name]
    rng = random.Random(13)
    ds = DualSystem(database=str(tmp_path / "roundtrip.db"))
    try:
        ds.execute_ddl(f"CREATE SCHEMA VERSION v1 WITH {create};")
        ds.attach()
        for table, columns in load.items():
            rows = [
                tuple(
                    rng.choice(WORDS)
                    if c in ("author", "task", "w", "word")
                    else rng.randint(0, 6)
                    for c in columns
                )
                for _ in range(6)
            ]
            ds.runmany(
                "v1",
                f"INSERT INTO {table}({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                rows,
            )
        for step, evolution in enumerate(evolutions, start=2):
            source = f"v{step - 1}"
            if isinstance(evolution, tuple):
                evolution, source = evolution
            ds.execute_ddl(
                f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};"
            )
        ds.reopen()
        ds.check(f"{name}/reopen-after-evolutions")
        _fuzz_ops(ds, rng, 6, f"{name}/post-reopen")

        schemas = enumerate_valid_materializations(ds.mem.genealogy)
        indexes = [0] if len(schemas) == 1 else [0, len(schemas) - 1]
        for index in indexes:
            _apply_materialization(ds, index)
            ds.reopen()
            ds.check(f"{name}/reopen-after-mat-{index}")
            _fuzz_ops(ds, rng, 4, f"{name}/mat-{index}")

        ds.reopen()
        ds.check(f"{name}/final")
    finally:
        ds.close()
