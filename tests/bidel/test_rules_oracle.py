"""The rule sets the memory engine evaluates agree with the rule-free oracle.

Over every single-SMO form pre-flight is checked against
(``tests/check/test_preflight.py::SINGLE_SMO_FORMS``), seeded random
sources of at most four rows over {0, 1, NULL} go through ``map_forward``;
what the oracle's forward map makes of them, aux and ``ID`` included, goes
through ``map_backward``, once as it is and once with random target rows
written under new keys; and what the oracle's backward map makes of the
latter, source-side aux included, through ``map_forward`` again.  Each
time the product and the oracle must build the same side, and the product
asked for a few keys must build those keys' rows of it (a key-local rule
set reads just those rows, any other the whole extents).
"""

from __future__ import annotations

import random

import pytest

from repro.bidel.parser import parse_script
from repro.bidel.smo.base import FixedContext, SideState
from repro.core.engine import InVerDa, bind_smo
from repro.errors import ReproError
from tests.bidel.lens_oracle import oracle_backward, oracle_forward
from tests.check.test_preflight import SINGLE_SMO_FORMS

TRIALS = 60
VALUES = (0, 1, None)


def _bind(scripts: list[str]):
    """The semantics of the last script's SMO over the schema before it."""
    engine = InVerDa()
    for script in scripts[:-1]:
        engine.execute(script)
    (statement,) = parse_script(scripts[-1])
    version = engine.genealogy.schema_version(statement.source)
    schemas = {name: tv.schema for name, tv in version.tables.items()}
    return bind_smo(statement.smos[0], schemas)[0]


def _agree(product: SideState, oracle: SideState, context) -> None:
    assert set(product) == set(oracle), context
    for role, rows in product.items():
        expected = oracle[role]
        if role == "Rminus":  # keyed by a row number: compare the pairs
            rows, expected = set(rows.values()), set(expected.values())
        assert rows == expected, (context, role)


@pytest.mark.parametrize("form", sorted(SINGLE_SMO_FORMS))
def test_rules_agree_with_the_oracle(form):
    scripts = SINGLE_SMO_FORMS[form]
    try:
        semantics = _bind(scripts)
    except ReproError:
        # A refused form has no semantics to compare; the engine must
        # refuse it as a whole, too.
        engine = InVerDa()
        with pytest.raises(ReproError):
            for script in scripts:
                engine.execute(script)
        return
    rng = random.Random(f"rules-oracle-{form}")

    def extents(roles, schemas, keys=range(1, 7)) -> SideState:
        return {
            role: {
                key: tuple(rng.choice(VALUES) for _ in range(schema.arity))
                for key in rng.sample(keys, rng.randint(0, 4))
            }
            for role, schema in zip(roles, schemas)
        }

    def both(state: SideState, forward: bool, context) -> SideState:
        """The side both maps build from ``state``, once they agree; the
        map asked for a few keys builds those keys' rows of it."""
        product = (semantics.map_forward if forward else semantics.map_backward)
        oracle = (oracle_forward if forward else oracle_backward)(semantics, FixedContext(state))
        _agree(product(FixedContext(state)), oracle, context)
        keys = set(rng.sample(range(1, 13), 3))
        keyed = product(FixedContext(state), keys)
        for role in semantics.target_roles if forward else semantics.source_roles:
            expected = {key: row for key, row in oracle[role].items() if key in keys}
            assert keyed[role] == expected, (context, sorted(keys), role)
        return oracle

    for trial in range(TRIALS):
        source = extents(semantics.source_roles, semantics.source_schemas)
        target = both(source, True, (form, trial, "forward"))
        both(target, False, (form, trial, "backward"))
        # Rows written at the target under new keys, beside the rows, aux
        # and ID the forward map made: the backward map then records aux
        # that the forward map reads.
        written = extents(semantics.target_roles, semantics.target_schemas(), range(7, 13))
        for role, rows in written.items():
            target[role] = {**target.get(role, {}), **rows}
        back = both(target, False, (form, trial, "backward, written target"))
        both(back, True, (form, trial, "forward again"))
