"""Mechanical reproduction of the Section-5 / Appendix-A proofs, run on the
rule sets the SMO instances compile into views and triggers."""

import pytest

from repro.core.engine import InVerDa
from repro.datalog.ast import RuleSet
from repro.datalog.symbolic import find_renaming
from repro.errors import VerificationError
from repro.verification import verify_smo
from repro.workloads.tasky import build_tasky
from tests.backend.test_differential import CHAINS
from tests.backend.test_sargable import CHAIN

# One single-column instance of each SMO shape of the paper the prover takes.
KINDS = {
    "split": ("T(a INTEGER)", "SPLIT TABLE T INTO R WITH a > 0, S WITH a < 5"),
    "merge": ("R(a INTEGER); CREATE TABLE S(a INTEGER)", "MERGE TABLE R (a > 0), S (a < 5) INTO T"),
    "add_column": ("R(a INTEGER)", "ADD COLUMN b AS a + 1 INTO R"),
    "drop_column": ("R(a INTEGER, b INTEGER)", "DROP COLUMN b FROM R DEFAULT 0"),
    "decompose_pk": ("R(a INTEGER, b INTEGER)", "DECOMPOSE TABLE R INTO S(a), T(b) ON PK"),
    "outer_join_pk": ("S(a INTEGER); CREATE TABLE T(b INTEGER)", "OUTER JOIN TABLE S, T INTO R ON PK"),
    "inner_join_pk": ("S(a INTEGER); CREATE TABLE T(b INTEGER)", "JOIN TABLE S, T INTO R ON PK"),
}


def _smos(engine):
    return [smo.semantics for smo in engine.genealogy.evolution_smos()]


def _run(*scripts):
    engine = InVerDa()
    for script in scripts:
        engine.execute(script)
    return _smos(engine)


def _kind(name):
    create, smo = KINDS[name]
    (semantics,) = _run(
        f"CREATE SCHEMA VERSION v1 WITH CREATE TABLE {create};",
        f"CREATE SCHEMA VERSION v2 FROM v1 WITH {smo};",
    )
    return semantics


def _chain(create, evolutions):
    scripts = [f"CREATE SCHEMA VERSION v1 WITH {create};"]
    for step, evolution in enumerate(evolutions, start=2):
        evolution, source = evolution if isinstance(evolution, tuple) else (evolution, f"v{step - 1}")
        scripts.append(f"CREATE SCHEMA VERSION v{step} FROM {source} WITH {evolution};")
    return _run(*scripts)


def _instances():
    """Every provable SMO instance of the paper's shapes, the differential
    chains, the benchmark's S0–S8 chain and the TasKy genealogy."""
    found = [(name, _kind(name)) for name in KINDS]
    for chain, (create, _, evolutions) in sorted(CHAINS.items()):
        found += [(f"{chain}: {s.describe()}", s) for s in _chain(create, evolutions)]
    found += [(f"S0-S8: {s.describe()}", s) for s in _run(*CHAIN)]
    found += [(f"TasKy: {s.describe()}", s) for s in _smos(build_tasky(0).engine)]
    return [(key, s) for key, s in found if not s.aux_shared()]


INSTANCES = dict(_instances())


@pytest.mark.parametrize("name", list(INSTANCES))
def test_condition_27_identity(name):
    """D_src = γ_src^data(γ_tgt(D_src)) — the Section 5 derivation."""
    c27, _ = verify_smo(INSTANCES[name])
    assert c27.holds, c27.problems


@pytest.mark.parametrize("name", list(INSTANCES))
def test_condition_26_identity(name):
    """D_tgt = γ_tgt^data(γ_src(D_tgt)) — the Appendix A derivation."""
    _, c26 = verify_smo(INSTANCES[name])
    assert c26.holds, c26.problems


def test_every_input_set_contributes():
    assert sum(key.startswith("S0-S8") for key in INSTANCES) == 8
    assert sum(key.startswith("TasKy") for key in INSTANCES) == 3
    assert any("T(b, c) ON PK" in key for key in INSTANCES)


def test_split_simplifies_to_single_identity_rule():
    c27, c26 = verify_smo(_kind("split"))
    # Condition 27: exactly U(p, x0) <- U_D(p, x0) among the data rules.
    assert len([r for r in c27.simplified if r.head.pred == "U"]) == 1
    # Condition 26: identity for both R and S.
    assert len([r for r in c26.simplified if r.head.pred == "R"]) == 1
    assert len([r for r in c26.simplified if r.head.pred == "S"]) == 1


def test_add_column_aux_rule_survives():
    """Rule 131: the round trip populates B (the paper's 'aux tables are
    always empty except for SMOs that calculate new values')."""
    c27, _ = verify_smo(_kind("add_column"))
    assert [r for r in c27.simplified if r.head.pred == "B"], (
        "expected the computed-value aux rule to remain"
    )


def test_trace_collection():
    c27, _ = verify_smo(_kind("split"), collect_trace=True)
    assert c27.trace, "expected a non-empty simplification trace"


def test_merge_is_mirrored_split():
    split, merge = _run(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER, b INTEGER);",
        "CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE T INTO R WITH a > 0, S WITH b < 5;",
        "CREATE SCHEMA VERSION v3 FROM v2 WITH MERGE TABLE R (a > 0), S (b < 5) INTO T;",
    )
    # Wildcards differ between instances; compare rule by rule modulo renaming.
    for merge_rules, split_rules in [
        (merge.gamma_tgt_rules(), split.gamma_src_rules()),
        (merge.gamma_src_rules(), split.gamma_tgt_rules()),
    ]:
        assert len(merge_rules) == len(split_rules)
        for m_rule, s_rule in zip(merge_rules, split_rules):
            assert find_renaming(m_rule, s_rule, exact=True) is not None


def test_an_smo_with_shared_aux_is_refused():
    (fk,) = _chain("CREATE TABLE R(a INTEGER, w TEXT)", ["DECOMPOSE TABLE R INTO S(a), T(w) ON FK ref"])
    assert isinstance(fk.gamma_tgt_rules(), RuleSet)
    with pytest.raises(VerificationError, match="shared aux tables"):
        verify_smo(fk)


SPLITS = {
    "1 column": ("T(a INTEGER)", "a > 0, S WITH a < 5"),
    "3 columns": ("T(a INTEGER, b INTEGER, c INTEGER)", "c % 2 = 0, S WITH c % 2 = 1"),
}


# A two-partition SPLIT has 6 γ_tgt rules and 8 γ_src rules.
SEEDED = [
    pytest.param(width, side, index, id=f"{width}-{side}-{index}")
    for width in SPLITS
    for side, count in (("gamma_tgt_rules", 6), ("gamma_src_rules", 8))
    for index in range(count)
]


@pytest.mark.parametrize("width, side, index", SEEDED)
def test_deleting_any_split_rule_fails_the_proof(width, side, index, monkeypatch):
    create, partitions = SPLITS[width]
    (split,) = _run(
        f"CREATE SCHEMA VERSION v1 WITH CREATE TABLE {create};",
        f"CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE T INTO R WITH {partitions};",
    )
    rules = getattr(split, side)().rules
    assert len(rules) == (6 if side == "gamma_tgt_rules" else 8)
    seeded = RuleSet(rules[:index] + rules[index + 1 :])
    monkeypatch.setattr(split, side, lambda: seeded)
    c27, c26 = verify_smo(split)
    assert not (c27.holds and c26.holds), f"proof passed without {rules[index]}"
