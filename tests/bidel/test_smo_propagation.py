"""Cross-check: incremental delta propagation == full state remapping.

For each SMO with a fast path, apply a random change via propagate_* and
compare against re-running the full map on the changed input state. This is
the correctness triangle: Datalog rules ≙ state maps ≙ delta propagation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bidel.parser import parse_smo
from repro.bidel.smo.base import FixedContext, TableChange
from repro.bidel.smo.registry import build_semantics
from repro.relational.schema import TableSchema

VALUES = st.integers(min_value=0, max_value=4)
KEYS = st.integers(min_value=1, max_value=12)


def rows(arity, **kwargs):
    return st.dictionaries(KEYS, st.tuples(*([VALUES] * arity)), **kwargs)


def change_strategy(arity):
    return st.builds(
        lambda ups, dels: TableChange(upserts=ups, deletes=dels),
        rows(arity, max_size=4),
        st.sets(KEYS, max_size=3),
    )


def apply_and_compare_forward(semantics, source_role, extent, change, aux=None):
    """propagate_forward(change) must equal diff(map_forward(new state))."""
    base_state = {source_role: dict(extent)}
    if aux:
        base_state.update(aux)
    before = semantics.map_forward(FixedContext(base_state))

    new_extent = dict(extent)
    change.apply_to(new_extent)
    new_state = {source_role: new_extent}
    if aux:
        new_state.update(aux)
    expected = semantics.map_forward(FixedContext(new_state))

    out = semantics.propagate_forward({source_role: change}, FixedContext(new_state))
    assert out is not None
    for role in semantics.target_roles:
        derived = dict(before.get(role, {}))
        out.get(role, TableChange()).apply_to(derived)
        assert derived == expected.get(role, {}), f"role {role}"


class TestSplitDeltaVsMap:
    @settings(max_examples=40, deadline=None)
    @given(extent=rows(1, max_size=8), change=change_strategy(1))
    def test_forward(self, extent, change):
        node = parse_smo("SPLIT TABLE T INTO R WITH v <= 2, S WITH v >= 2")
        semantics = build_semantics(node, (TableSchema.of("T", ["v"]),))
        apply_and_compare_forward(semantics, "U", extent, change)


class TestAddColumnDeltaVsMap:
    @settings(max_examples=40, deadline=None)
    @given(extent=rows(1, max_size=8), change=change_strategy(1))
    def test_forward(self, extent, change):
        node = parse_smo("ADD COLUMN w AS v + 1 INTO T")
        semantics = build_semantics(node, (TableSchema.of("T", ["v"]),))
        apply_and_compare_forward(semantics, "R", extent, change)


class TestDropColumnDeltaVsMap:
    @settings(max_examples=40, deadline=None)
    @given(extent=rows(2, max_size=8), change=change_strategy(2))
    def test_forward(self, extent, change):
        node = parse_smo("DROP COLUMN w FROM T DEFAULT 0")
        semantics = build_semantics(node, (TableSchema.of("T", ["v", "w"]),))
        base = {"R": dict(extent)}
        before = semantics.map_forward(FixedContext(base))
        new_extent = dict(extent)
        change.apply_to(new_extent)
        expected = semantics.map_forward(FixedContext({"R": new_extent}))
        out = semantics.propagate_forward({"R": change}, FixedContext({"R": new_extent}))
        for role in ("R2", "B"):
            derived = dict(before.get(role, {}))
            out.get(role, TableChange()).apply_to(derived)
            assert derived == expected.get(role, {})


class TestDecomposePkDeltaVsMap:
    @settings(max_examples=40, deadline=None)
    @given(extent=rows(2, max_size=8), change=change_strategy(2))
    def test_forward(self, extent, change):
        node = parse_smo("DECOMPOSE TABLE T INTO L(a), R(b) ON PK")
        semantics = build_semantics(node, (TableSchema.of("T", ["a", "b"]),))
        apply_and_compare_forward(semantics, "R", extent, change)


class TestRulesAgreeWithMaps:
    """The declared Datalog rules evaluate to the same state the maps build."""

    @pytest.mark.parametrize(
        "smo_text,schemas,source_roles,facts",
        [
            (
                "SPLIT TABLE T INTO R WITH v <= 2, S WITH v >= 2",
                [TableSchema.of("T", ["v"])],
                ["U"],
                {"U": {(1, 1), (2, 3), (3, 2)}},
            ),
            (
                "MERGE TABLE R (v <= 2), S (v >= 2) INTO T",
                [TableSchema.of("R", ["v"]), TableSchema.of("S", ["v"])],
                ["R", "S"],
                {"R": {(1, 1)}, "S": {(2, 4)}},
            ),
            (
                "ADD COLUMN w AS v + 1 INTO T",
                [TableSchema.of("T", ["v"])],
                ["R"],
                {"R": {(1, 5), (2, 7)}},
            ),
            (
                "JOIN TABLE L, R INTO T ON PK",
                [TableSchema.of("L", ["a"]), TableSchema.of("R", ["b"])],
                ["R", "S"],
                {"R": {(1, 10), (2, 20)}, "S": {(1, 99)}},
            ),
        ],
    )
    def test_gamma_tgt_rules_match_map_forward(
        self, smo_text, schemas, source_roles, facts
    ):
        from repro.datalog.evaluate import evaluate

        node = parse_smo(smo_text)
        semantics = build_semantics(node, tuple(schemas))
        rules = semantics.gamma_tgt_rules()
        assert rules is not None
        derived = evaluate(rules, facts)
        extents = {
            role: {key: tuple(rest) for key, *rest in fact_set}
            for role, fact_set in facts.items()
        }
        state = semantics.map_forward(FixedContext(extents))
        for role in semantics.target_roles:
            rule_rows = {key: tuple(rest) for key, *rest in derived.get(role, set())}
            assert rule_rows == state.get(role, {}), role

    # States where ID records every row, as eager repair guarantees.  FK:
    # a null FK (row 3), an identifier kept for an ω payload (row 4), a
    # dangling FK (S row 3 → 99), an unreferenced T row (11), and one
    # whose identifier an S row also is (3: S wins).  Condition: a pair
    # suppressed by Rminus ((2, 12), recorded before its deletion),
    # unmatched Splus / Tplus rows (3; 13, 14), stored plus rows their
    # wide rows shadow (1; 11), a matching pair without a wide row (3, 14).
    FK_WIDE = {
        "R": {1: (1, "x"), 2: (2, "x"), 3: (3, None), 4: (4, None)},
        "ID": {1: (10,), 2: (10,), 3: (None,), 4: (12,)},
    }
    FK_NARROW = {
        "S": {1: (1, 10), 2: (2, None), 3: (3, 99)},
        "T": {10: (10, "x"), 11: (11, "y"), 3: (3, "z")},
    }
    COND_NARROW = {
        "S": {1: (1, 5), 2: (2, 6), 3: (3, 7)},
        "T": {11: (11, 5), 12: (12, 6), 13: (13, 9)},
        "ID": {21: (1, 11), 22: (2, 12)},
        "Rminus": {1: (2, 12)},
    }
    COND_WIDE = {
        "R": {21: (5, 5), 22: (6, 6)},
        "ID": {21: (1, 11), 22: (2, 12)},
        "Splus": {3: (3, 7), 1: (1, 8)},
        "Tplus": {13: (13, 9), 11: (11, 4), 14: (14, 7)},
    }

    @pytest.mark.parametrize(
        "smo_text,schemas,forward,backward",
        [
            (
                "DECOMPOSE TABLE R INTO S(a), T(w) ON FK ref",
                [TableSchema.of("R", ["a", "w"])],
                FK_WIDE,
                FK_NARROW,
            ),
            (
                # The fk column first: S's layout is the source's.
                "OUTER JOIN TABLE S, T INTO R ON FK ref",
                [TableSchema.of("S", ["ref", "a"]), TableSchema.of("T", ["id", "w"])],
                {"S": {k: (fk, a) for k, (a, fk) in FK_NARROW["S"].items()}, "T": FK_NARROW["T"]},
                FK_WIDE,
            ),
            (
                # The wide columns in another order than S(a), T(b).
                "DECOMPOSE TABLE R INTO S(a), T(b) ON a = b",
                [TableSchema.of("R", ["b", "a"])],
                COND_WIDE,
                COND_NARROW,
            ),
            (
                "JOIN TABLE S, T INTO R ON a = b",
                [TableSchema.of("S", ["id", "a"]), TableSchema.of("T", ["id", "b"])],
                COND_NARROW,
                COND_WIDE,
            ),
        ],
        ids=["decompose_fk", "outer_join_fk", "decompose_cond", "inner_join_cond"],
    )
    def test_identifier_generating_rules_match_both_maps(
        self, smo_text, schemas, forward, backward
    ):
        """γ_tgt ≡ ``map_forward`` and γ_src ≡ ``map_backward``: every data
        and side-aux role, Rminus compared as the set of pairs it holds
        (its stored key is a row number)."""
        from repro.datalog.evaluate import evaluate

        semantics = build_semantics(parse_smo(smo_text), tuple(schemas))
        for rules, extents, map_side, roles in (
            (semantics.gamma_tgt_rules(), forward, semantics.map_forward,
             (*semantics.target_roles, *semantics.aux_tgt())),
            (semantics.gamma_src_rules(), backward, semantics.map_backward,
             (*semantics.source_roles, *semantics.aux_src())),
        ):
            facts = {role: {(key, *row) for key, row in rows.items()} for role, rows in extents.items()}
            derived = evaluate(rules, facts)
            state = map_side(FixedContext(extents))
            for role in roles:
                got = derived[role]
                expected = {(key, *row) for key, row in state[role].items()}
                if role == "Rminus":
                    got = {fact[1:] for fact in got}
                    expected = set(state[role].values())
                assert got == expected, (rules.name, role)
