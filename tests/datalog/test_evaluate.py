import pytest

from repro.datalog.ast import Assign, Atom, Compare, CondLit, Const, Rule, RuleSet, Var, wildcard
from repro.datalog.evaluate import evaluate
from repro.errors import DatalogError
from repro.expr import parse_expression

p, a, b = Var("p"), Var("a"), Var("b")


class TestBasics:
    def test_projection_rule(self):
        rules = RuleSet((Rule(Atom("Out", (p, a)), (Atom("In", (p, a, wildcard())),)),))
        result = evaluate(rules, {"In": {(1, "x", 10), (2, "y", 20)}})
        assert result["Out"] == {(1, "x"), (2, "y")}

    def test_join_on_key(self):
        rules = RuleSet(
            (Rule(Atom("J", (p, a, b)), (Atom("L", (p, a)), Atom("R", (p, b)))),)
        )
        result = evaluate(rules, {"L": {(1, "x"), (2, "y")}, "R": {(1, 10)}})
        assert result["J"] == {(1, "x", 10)}

    def test_union_of_rules(self):
        rules = RuleSet(
            (
                Rule(Atom("U", (p, a)), (Atom("L", (p, a)),)),
                Rule(Atom("U", (p, a)), (Atom("R", (p, a)),)),
            )
        )
        result = evaluate(rules, {"L": {(1, "x")}, "R": {(2, "y")}})
        assert result["U"] == {(1, "x"), (2, "y")}

    def test_missing_extensional_is_empty(self):
        rules = RuleSet((Rule(Atom("Out", (p, a)), (Atom("Nothing", (p, a)),)),))
        assert evaluate(rules, {})["Out"] == set()

    def test_constants_filter(self):
        rules = RuleSet((Rule(Atom("Out", (p,)), (Atom("In", (p, Const("x"))),)),))
        result = evaluate(rules, {"In": {(1, "x"), (2, "y")}})
        assert result["Out"] == {(1,)}


class TestNegation:
    def test_negative_atom(self):
        rules = RuleSet(
            (
                Rule(
                    Atom("Only", (p, a)),
                    (Atom("L", (p, a)), Atom("R", (p, wildcard()), False)),
                ),
            )
        )
        result = evaluate(rules, {"L": {(1, "x"), (2, "y")}, "R": {(2, 99)}})
        assert result["Only"] == {(1, "x")}

    def test_negation_of_derived_predicate(self):
        rules = RuleSet(
            (
                Rule(Atom("Mid", (p,)), (Atom("In", (p, Const(1))),)),
                Rule(
                    Atom("Out", (p, a)),
                    (Atom("In", (p, a)), Atom("Mid", (p,), False)),
                ),
            )
        )
        result = evaluate(rules, {"In": {(1, 1), (2, 2)}})
        assert result["Out"] == {(2, 2)}

    def test_recursion_rejected(self):
        rules = RuleSet((Rule(Atom("X", (p,)), (Atom("X", (p,)),)),))
        with pytest.raises(DatalogError):
            evaluate(rules, {})

    def test_cycle_between_predicates_rejected(self):
        rules = RuleSet(
            (
                Rule(Atom("X", (p,)), (Atom("Y", (p,)),)),
                Rule(Atom("Y", (p,)), (Atom("X", (p,)),)),
            )
        )
        with pytest.raises(DatalogError):
            evaluate(rules, {})


class TestConditionsAndFunctions:
    def test_condition_literal(self):
        cond = parse_expression("v >= 10")
        rules = RuleSet(
            (
                Rule(
                    Atom("Big", (p, a)),
                    (Atom("In", (p, a)), CondLit("c", cond, (("v", a),))),
                ),
            )
        )
        result = evaluate(rules, {"In": {(1, 5), (2, 15)}})
        assert result["Big"] == {(2, 15)}

    def test_negated_condition_includes_null(self):
        cond = parse_expression("v >= 10")
        rules = RuleSet(
            (
                Rule(
                    Atom("Small", (p, a)),
                    (Atom("In", (p, a)), CondLit("c", cond, (("v", a),), positive=False)),
                ),
            )
        )
        # NULL does not satisfy the condition, so it lands in the negation.
        result = evaluate(rules, {"In": {(1, 5), (2, 15), (3, None)}})
        assert result["Small"] == {(1, 5), (3, None)}

    def test_assign(self):
        rules = RuleSet(
            (
                Rule(
                    Atom("Out", (p, a, b)),
                    (Atom("In", (p, a)), Assign(b, lambda x: x * 2, (a,))),
                ),
            )
        )
        result = evaluate(rules, {"In": {(1, 3)}})
        assert result["Out"] == {(1, 3, 6)}

    def test_tuple_compare(self):
        rules = RuleSet(
            (
                Rule(
                    Atom("Diff", (p,)),
                    (
                        Atom("L", (p, a)),
                        Atom("R", (p, b)),
                        Compare("!=", (a,), (b,)),
                    ),
                ),
            )
        )
        result = evaluate(rules, {"L": {(1, "x"), (2, "y")}, "R": {(1, "x"), (2, "z")}})
        assert result["Diff"] == {(2,)}

    def test_unbound_head_variable_rejected(self):
        rules = RuleSet((Rule(Atom("Out", (p, b)), (Atom("In", (p,)),)),))
        with pytest.raises(DatalogError):
            evaluate(rules, {"In": {(1,)}})


class TestSplitRules:
    """The paper's SPLIT γ_tgt evaluated as plain Datalog."""

    def test_split_partition(self):
        from repro.bidel.parser import parse_smo
        from repro.bidel.smo.registry import build_semantics
        from repro.relational.schema import TableSchema

        node = parse_smo("SPLIT TABLE T INTO R WITH v = 1, S WITH v = 2")
        semantics = build_semantics(node, (TableSchema.of("T", ["v"]),))
        rules = semantics.gamma_tgt_rules()
        facts = {"U": {(1, 1), (2, 2), (3, 3)}}
        result = evaluate(rules, facts)
        assert result["R"] == {(1, 1)}
        assert result["S"] == {(2, 2)}
        assert result["Uprime"] == {(3, 3)}


class TestPlannedEdgeCases:
    """Shapes the planner must bind, index and check exactly as written."""

    def test_variable_repeated_inside_one_positive_atom(self):
        rules = RuleSet((Rule(Atom("Out", (p,)), (Atom("In", (p, a, a)),)),))
        result = evaluate(rules, {"In": {(1, "x", "x"), (2, "x", "y"), (3, None, None)}})
        assert result["Out"] == {(1,), (3,)}

    def test_negated_atom_with_a_repeated_unbound_variable(self):
        # No N fact for p whose last two values agree: "a" is unbound there.
        rules = RuleSet(
            (Rule(Atom("Out", (p,)), (Atom("L", (p,)), Atom("N", (p, a, a), False))),)
        )
        result = evaluate(
            rules, {"L": {(1,), (2,), (3,)}, "N": {(1, 5, 5), (2, 5, 6), (2, 7, 8)}}
        )
        assert result["Out"] == {(2,), (3,)}

    def test_assign_to_an_already_bound_variable_filters(self):
        rules = RuleSet(
            (
                Rule(
                    Atom("Out", (p, a)),
                    (Atom("In", (p, a)), Assign(a, lambda x: x * 2, (p,))),
                ),
            )
        )
        result = evaluate(rules, {"In": {(1, 2), (2, 5), (3, 6)}})
        assert result["Out"] == {(1, 2), (3, 6)}

    def test_negated_self_reference_reads_the_extensional_facts(self):
        rules = RuleSet((Rule(Atom("P", (p,)), (Atom("Q", (p,)), Atom("P", (p,), False))),))
        assert evaluate(rules, {"Q": {(1,), (2,)}, "P": {(2,)}})["P"] == {(1,)}
        assert evaluate(rules, {"Q": {(1,), (2,)}})["P"] == {(1,), (2,)}

    def test_a_compiled_rule_set_keeps_no_facts_between_runs(self):
        rules = RuleSet((Rule(Atom("Out", (p,)), (Atom("In", (p,)),)),))
        assert evaluate(rules, {"In": {(1,)}})["Out"] == {(1,)}
        assert evaluate(rules, {"In": [(2,), (2,)]})["Out"] == {(2,)}
