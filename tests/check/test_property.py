"""Property test: the delta-code verifier must run clean over the
differential suite's randomized SMO chains, under every valid
materialization, for both view emissions.

This is the other half of the seeded-defect suite's contract: defects
are flagged (test_delta_verifier), and correct generator output is never
flagged — no matter which chain or which physical layout produced it.
"""

from __future__ import annotations

import pytest

from repro.backend import codegen
from repro.catalog.materialization import enumerate_valid_materializations
from repro.check.delta import verify_delta_code
from repro.core.engine import InVerDa
from tests.backend.test_differential import CHAINS


def _build(chain_name: str) -> InVerDa:
    create, _loaders, evolutions = CHAINS[chain_name]
    engine = InVerDa()
    engine.execute(f"CREATE SCHEMA VERSION v1 WITH {create};")
    for index, step in enumerate(evolutions, start=2):
        script, source = step if isinstance(step, tuple) else (step, f"v{index - 1}")
        engine.execute(
            f"CREATE SCHEMA VERSION v{index} FROM {source} WITH {script};"
        )
    return engine


@pytest.mark.parametrize("chain_name", sorted(CHAINS))
def test_verifier_clean_over_chain_and_materializations(chain_name):
    engine = _build(chain_name)
    schemas = enumerate_valid_materializations(engine.genealogy)
    assert schemas, "every chain must admit at least one materialization"
    for schema in schemas:
        engine.apply_materialization(schema)
        nested = codegen.view_statements(engine, flatten=False)
        for label, views in (("composed", None), ("nested", nested)):
            findings = verify_delta_code(engine, view_statements=views)
            assert findings == [], (
                f"{chain_name}, {label} emission, "
                f"materialization={sorted(s.uid for s in schema)}: "
                + "; ".join(d.render() for d in findings)
            )
