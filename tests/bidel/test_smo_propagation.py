"""Cross-check: incremental delta propagation == full state remapping.

For each SMO with a fast path, apply a random change via propagate_* and
compare against re-running the full map on the changed input state. This is
the correctness triangle: the rule-free oracle ≙ the maps the memory engine
runs (the rule sets, evaluated) ≙ delta propagation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bidel.parser import parse_smo
from repro.bidel.smo.base import FixedContext, TableChange
from repro.bidel.smo.registry import build_semantics
from repro.relational.schema import TableSchema
from tests.bidel.lens_oracle import oracle_backward, oracle_forward

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
    """The maps the memory engine runs — the rule sets, evaluated — build
    the state the rule-free oracle builds."""

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
        node = parse_smo(smo_text)
        semantics = build_semantics(node, tuple(schemas))
        extents = {
            role: {key: tuple(rest) for key, *rest in fact_set}
            for role, fact_set in facts.items()
        }
        state = semantics.map_forward(FixedContext(extents))
        expected = oracle_forward(semantics, FixedContext(extents))
        for role in (*semantics.target_roles, *semantics.aux_tgt()):
            assert state.get(role, {}) == expected.get(role, {}), role

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
        """``map_forward`` ≡ the oracle's γ_tgt and ``map_backward`` ≡ its
        γ_src: every data and side-aux role and ``ID``, Rminus compared as
        the set of pairs it holds (its stored key is a row number)."""
        semantics = build_semantics(parse_smo(smo_text), tuple(schemas))
        for extents, product, oracle, roles in (
            (forward, semantics.map_forward, oracle_forward,
             (*semantics.target_roles, *semantics.aux_tgt(), "ID")),
            (backward, semantics.map_backward, oracle_backward,
             (*semantics.source_roles, *semantics.aux_src(), "ID")),
        ):
            state = product(FixedContext(extents))
            expected = oracle(semantics, FixedContext(extents))
            for role in roles:
                got, want = state[role], expected[role]
                if role == "Rminus":
                    got, want = set(got.values()), set(want.values())
                assert got == want, (product.__name__, role)
