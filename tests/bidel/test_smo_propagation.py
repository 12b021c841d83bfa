"""The keyed put against the whole-extent put, and the rules against the
rule-free oracle.

A rule set is key-local when every body atom carries the head's key, so a
write to the keys K changes the other side at K alone, and the put the
memory engine runs (:meth:`SmoSemantics.put`) evaluates the rules over the
rows of K only.  On every key-local single-SMO form, in both directions and
with either side stored, it must change the state exactly as the same put
over whole extents does.  The triangle's other edge: the maps the memory
engine runs — the rule sets, evaluated — build the state the rule-free
oracle builds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bidel.parser import parse_smo
from repro.bidel.smo.base import FixedContext, TableChange
from repro.bidel.smo.registry import build_semantics
from repro.relational.schema import TableSchema
from tests.bidel.lens_oracle import oracle_backward, oracle_forward
from tests.conftest import keyed

VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
KEYS = st.integers(min_value=1, max_value=12)
FRESH = (13, 14, 15, 16)

T_VW = [TableSchema.of("T", ["v", "w"])]
PARTS = [TableSchema.of("L", ["v"]), TableSchema.of("R", ["w"])]

#: Every key-local single-SMO form.  The SPLIT and MERGE conditions leave
#: v = 2 and NULL to neither partition.
KEY_LOCAL_FORMS = {
    "split": ("SPLIT TABLE T INTO R WITH v <= 1, S WITH v >= 3", T_VW),
    "split_overlapping": ("SPLIT TABLE T INTO R WITH v <= 2, S WITH v >= 2", T_VW),
    "split_one_partition": ("SPLIT TABLE T INTO R WITH v <= 1", T_VW),
    "merge": (
        "MERGE TABLE R (v <= 1), S (v >= 3) INTO T",
        [TableSchema.of("R", ["v", "w"]), TableSchema.of("S", ["v", "w"])],
    ),
    "add_column": ("ADD COLUMN x AS v + 1 INTO T", T_VW),
    "drop_column": ("DROP COLUMN w FROM T DEFAULT 0", T_VW),
    "decompose_pk": ("DECOMPOSE TABLE T INTO L(v), R(w) ON PK", T_VW),
    "outer_join_pk": ("OUTER JOIN TABLE L, R INTO T ON PK", PARTS),
    "join_pk": ("JOIN TABLE L, R INTO T ON PK", PARTS),
    "rename_table": ("RENAME TABLE T INTO U", T_VW),
    "rename_column": ("RENAME COLUMN v IN T TO x", T_VW),
    "drop_table": ("DROP TABLE T", T_VW),
}


def rows(arity):
    return st.dictionaries(KEYS, st.tuples(*([VALUES] * arity)), max_size=8)


def _semantics(form):
    smo_text, schemas = KEY_LOCAL_FORMS[form]
    return build_semantics(parse_smo(smo_text), tuple(schemas))


def _arities(semantics, source):
    if source:
        return dict(zip(semantics.source_roles, (s.arity for s in semantics.source_schemas)))
    return dict(zip(semantics.target_roles, (s.arity for s in semantics.target_schemas())))


def _state(semantics, data, source_stored, loaded):
    """Both sides as the engine reads them with one side stored: that
    side's data and aux — ``loaded`` there, or else put there from rows on
    the other side as that side shows them (an all-NULL part, say, drops
    out) — and the other side's data derived from it."""
    stored_roles = _arities(semantics, source_stored)
    other_roles = _arities(semantics, not source_stored)
    put = semantics.map_backward if source_stored else semantics.map_forward
    derive = semantics.map_forward if source_stored else semantics.map_backward

    def shown(stored):
        derived = derive(FixedContext(stored))
        return {role: derived.get(role, {}) for role in other_roles}

    if loaded:
        stored = {role: data.draw(rows(arity), label=role) for role, arity in stored_roles.items()}
    else:
        other = {role: data.draw(rows(arity), label=role) for role, arity in other_roles.items()}
        stored = put(FixedContext(shown(put(FixedContext(other)))))
    return {**stored, **shown(stored)}


def _puts(semantics, forward, changes, extents):
    """The keyed put and the whole-extent put of ``changes``."""
    ctx = FixedContext(extents)
    return semantics.put(forward, changes, ctx), semantics._put(forward, changes, ctx, None)


@pytest.mark.parametrize(
    "form,forward",
    [
        pytest.param(form, forward, id=f"{form}-{'forward' if forward else 'backward'}")
        for form in KEY_LOCAL_FORMS
        for forward in (True, False)
        if form != "drop_table" or forward  # no target table to write at
    ],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_keyed_put_is_the_whole_put(form, forward, data):
    semantics = _semantics(form)
    assert semantics._rule_sets()[forward].key_local
    source_stored = data.draw(st.booleans(), label="source side stored")
    # An unstored written side's aux reads empty, so the whole put derives
    # the stored side afresh from the written side's data alone: it holds
    # what was put there from such data, and any stored state otherwise.
    loaded = source_stored == forward and data.draw(st.booleans(), label="loaded")
    extents = _state(semantics, data, source_stored, loaded)
    # Updates of shown rows and inserts at fresh keys: a key the written
    # table does not show may be held on the other side.
    changes = {
        role: TableChange(
            upserts=data.draw(
                st.dictionaries(
                    st.sampled_from([*sorted(extents.get(role, {})), *FRESH]),
                    st.tuples(*([VALUES] * arity)),
                    max_size=4,
                ),
                label=f"{role} upserts",
            ),
            deletes=data.draw(st.sets(KEYS, max_size=3), label=f"{role} deletes"),
        )
        for role, arity in _arities(semantics, forward).items()
    }
    keyed, whole = _puts(semantics, forward, changes, extents)
    # The other side's data, and its aux when it is the stored side (an
    # unstored side's aux is not kept).
    compared = list(_arities(semantics, not forward))
    if source_stored != forward:
        compared += semantics.aux_src() if not forward else semantics.aux_tgt()
    for role in compared:
        by_key, by_whole = dict(extents.get(role, {})), dict(extents.get(role, {}))
        keyed[role].apply_to(by_key)
        whole[role].apply_to(by_whole)
        assert by_key == by_whole, role


@pytest.mark.parametrize(
    "changes",
    [
        {"R": TableChange(upserts={5: (1, 50)}, deletes={1})},
        {"S": TableChange(deletes={2})},
    ],
    ids=["elsewhere", "at_the_kept_key"],
)
def test_a_put_at_a_partition_keeps_a_unified_row_no_partition_shows(changes):
    """With the unified side stored, ``U(2)`` matches neither condition:
    no partition shows it, so no write there removes it."""
    semantics = _semantics("split")
    unified = {1: (0, 10), 2: (2, 20), 3: (4, 30)}
    partitions = semantics.map_forward(FixedContext({"U": unified}))
    extents = {"U": unified, "R": partitions["R"], "S": partitions["S"]}
    for put in _puts(semantics, False, changes, extents):
        state = dict(unified)
        put["U"].apply_to(state)
        assert state[2] == (2, 20)


def test_a_put_at_a_partition_deletes_a_unified_row_it_showed_by_its_mark():
    """``U(2)`` matches neither condition, but ``Rstar`` marks it: R shows it,
    so gamma_tgt's ``Uprime`` rule does not keep it, and deleting it at R
    deletes it from the unified table."""
    semantics = _semantics("split")
    unified = {1: (0, 10), 2: (2, 20)}
    partitions = semantics.map_forward(FixedContext({"U": unified, "Rstar": {2: ()}}))
    assert partitions["R"][2] == (2, 20)
    extents = {"U": unified, "Rstar": {2: ()}, "R": partitions["R"], "S": partitions["S"]}
    for put in _puts(semantics, False, {"R": TableChange(deletes={2})}, extents):
        state = dict(unified)
        put["U"].apply_to(state)
        assert state == {1: (0, 10)}


def test_split_inserts_build_no_aux_schema(monkeypatch):
    """A put's map context reads the SMO's aux roles from one mapping built
    per semantics instance: one-row inserts through a SPLIT into its stored
    partitions construct no ``TableSchema``, however many there are."""
    engine = repro.InVerDa()
    engine.execute(
        "CREATE SCHEMA VERSION v1 WITH CREATE TABLE T(a INTEGER, b INTEGER);"
        " CREATE SCHEMA VERSION v2 FROM v1 WITH SPLIT TABLE T INTO P WITH b = 0, Q WITH b = 1;"
        " MATERIALIZE 'v2';"
    )
    conn = repro.connect(engine, "v1", autocommit=True)
    built = []
    post_init = TableSchema.__post_init__
    monkeypatch.setattr(
        TableSchema, "__post_init__", lambda schema: built.append(schema) or post_init(schema)
    )
    counts = []
    for rows in (5, 50):
        built.clear()
        for index in range(rows):
            conn.execute("INSERT INTO T(a, b) VALUES (?, ?)", (index, index % 3))
        counts.append(len(built))
    assert counts[1] <= counts[0], counts
    assert sorted(keyed(engine, "v2", "Q").values()) == sorted(
        (index, 1) for rows in (5, 50) for index in range(rows) if index % 3 == 1
    )


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
