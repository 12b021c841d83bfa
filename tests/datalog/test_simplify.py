"""Lemma-level tests plus the end-to-end Section 5 / Appendix A checks."""

from repro.datalog.ast import Atom, Compare, CondLit, Rule, Var, wildcard
from repro.datalog.compose import unfold_literal
from repro.datalog.simplify import (
    drop_empty_predicates,
    normalize_rule,
    simplify_rules,
    subsumption_pass,
    tautology_merge_pass,
)
from repro.datalog.symbolic import OMEGA, find_renaming
from repro.expr import parse_expression

p, A, A2, B = Var("p"), Var("A"), Var("A2"), Var("B")
x0, x1, y0, y1 = Var("x0"), Var("x1"), Var("y0"), Var("y1")
b0, b1 = Var("b0"), Var("b1")


def atom(pred, *terms, positive=True):
    return Atom(pred, terms, positive)


def cond(term, positive=True):
    """The opaque condition ``c(a)``: ``a > 0`` over the column ``a``."""
    return CondLit("c", parse_expression("a > 0"), (("a", term),), positive)


def compare(op, left, right):
    return Compare(op, tuple(left), tuple(right))


class TestNormalizeRule:
    def test_lemma4_direct_contradiction(self):
        rule = Rule(atom("H", p, A), (atom("T", p, A), atom("T", p, A, positive=False)))
        assert normalize_rule(rule) is None

    def test_lemma4_wildcard_contradiction(self):
        rule = Rule(
            atom("H", p, A), (atom("T", p, A), atom("T", p, wildcard(), positive=False))
        )
        assert normalize_rule(rule) is None

    def test_lemma4_condition_contradiction(self):
        rule = Rule(
            atom("H", p, A),
            (atom("T", p, A), cond(A), cond(A, False)),
        )
        assert normalize_rule(rule) is None

    def test_lemma5_unique_key_unification(self):
        rule = Rule(atom("H", p, A), (atom("T", p, A), atom("T", p, A2), compare("!=", [A], [A2])))
        # unification makes A = A2, contradicting A != A2 (paper Rule 38)
        assert normalize_rule(rule) is None

    def test_lemma5_merges_duplicates(self):
        rule = Rule(atom("H", p, A), (atom("T", p, A), atom("T", p, wildcard())))
        normalized = normalize_rule(rule)
        assert normalized is not None
        assert len(normalized.body) == 1

    def test_ground_compare_false_removes_rule(self):
        rule = Rule(atom("H", p), (atom("T", p), compare("!=", [OMEGA], [OMEGA])))
        assert normalize_rule(rule) is None

    def test_ground_compare_true_dropped(self):
        rule = Rule(atom("H", p), (atom("T", p), compare("=", [OMEGA], [OMEGA])))
        assert normalize_rule(rule) == Rule(atom("H", p), (atom("T", p),))

    def test_local_constant_equality_dropped(self):
        x = Var("x")
        rule = Rule(atom("H", p), (atom("T", p), compare("=", [x], [OMEGA])))
        normalized = normalize_rule(rule)
        assert normalized == Rule(atom("H", p), (atom("T", p),))

    def test_duplicate_negatives_deduped_modulo_local_vars(self):
        rule = Rule(
            atom("H", p, A),
            (
                atom("T", p, A),
                atom("R", p, wildcard(), positive=False),
                atom("R", p, Var("zz"), positive=False),
            ),
        )
        normalized = normalize_rule(rule)
        assert normalized is not None
        assert len(normalized.body) == 2


class TestLemma2:
    def test_positive_on_empty_removes_rule(self):
        rules = [Rule(atom("H", p), (atom("Aux", p),))]
        assert drop_empty_predicates(rules, {"Aux"}) == []

    def test_negative_on_empty_is_pruned(self):
        rules = [Rule(atom("H", p, A), (atom("T", p, A), atom("Aux", p, positive=False)))]
        out = drop_empty_predicates(rules, {"Aux"})
        assert out == [Rule(atom("H", p, A), (atom("T", p, A),))]


class TestLemma3:
    def test_condition_complement_merge(self):
        r1 = Rule(atom("H", p, A), (atom("T", p, A), cond(A)))
        r2 = Rule(atom("H", p, A), (atom("T", p, A), cond(A, False)))
        merged = tautology_merge_pass([r1, r2])
        assert merged == [Rule(atom("H", p, A), (atom("T", p, A),))]

    def test_atom_complement_merge_with_local_vars(self):
        r1 = Rule(atom("H", p, A), (atom("S", p, A), atom("R", p, wildcard(), positive=False)))
        r2 = Rule(atom("H", p, A), (atom("S", p, A), atom("R", p, Var("w"))))
        merged = tautology_merge_pass([r1, r2])
        assert merged == [Rule(atom("H", p, A), (atom("S", p, A),))]

    def test_no_unsound_merge_with_bound_var(self):
        # R(p, A) with A bound in the head is NOT the complement of ¬R(p, _).
        r1 = Rule(atom("H", p, A), (atom("S", p, A), atom("R", p, wildcard(), positive=False)))
        r2 = Rule(atom("H", p, A), (atom("S", p, A), atom("R", p, A)))
        merged = tautology_merge_pass([r1, r2])
        assert len(merged) == 2

    def test_equality_variant_rule118_120(self):
        # H <- S(p,A), R(p,A)   merged with   H <- S(p,A), R(p,A2), A != A2
        r118 = Rule(atom("H", p, A), (atom("S", p, A), atom("R", p, A)))
        r120 = Rule(
            atom("H", p, A),
            (atom("S", p, A), atom("R", p, A2), compare("!=", [A], [A2])),
        )
        merged = tautology_merge_pass([r118, r120])
        assert len(merged) == 1
        (rule,) = merged
        assert len(rule.body) == 2  # S(p,A), R(p,_)


    def test_equality_variant_two_column_twins(self):
        # A multi-column SPLIT compares twin rows tuple-wise; the merge
        # unifies them component by component.
        same = Rule(atom("H", p, x0, x1), (atom("S", p, x0, x1), atom("R", p, x0, x1)))
        differs = Rule(
            atom("H", p, x0, x1),
            (atom("S", p, x0, x1), atom("R", p, y0, y1), compare("!=", [x0, x1], [y0, y1])),
        )
        (rule,) = tautology_merge_pass([same, differs])
        assert find_renaming(
            Rule(atom("H", p, x0, x1), (atom("S", p, x0, x1), atom("R", p, y0, y1))), rule
        )


class TestOmega:
    """A stored row is never all ω, also when a part has several columns."""

    def test_all_omega_part_is_contradictory(self):
        rule = Rule(
            atom("H", p, b0, b1),
            (atom("T_D", p, b0, b1), compare("=", [b0, b1], [OMEGA, OMEGA])),
        )
        assert simplify_rules([rule], stored={"T_D"}) == []
        assert simplify_rules([rule]) != []

    def test_two_column_part_cases_merge_under_the_completeness_axiom(self):
        # DECOMPOSE R INTO S(a), T(b0, b1) ON PK, round trip at R: the
        # joined rows (a twice: a ≠ ω, a = ω) and the S-only rows, whose
        # T part is the ω filler.
        a = Var("a")
        joined = Rule(
            atom("R", p, a, b0, b1),
            (atom("R_D", p, a, b0, b1), compare("!=", [b0, b1], [OMEGA, OMEGA])),
        )
        s_only = Rule(
            atom("R", p, a, OMEGA, OMEGA),
            (
                atom("R_D", p, a, b0, b1),
                compare("!=", [a], [OMEGA]),
                compare("=", [b0, b1], [OMEGA, OMEGA]),
            ),
        )
        identity = Rule(atom("R", p, a, b0, b1), (atom("R_D", p, a, b0, b1),))
        (merged,) = simplify_rules([joined, s_only], stored={"R_D"})
        assert find_renaming(identity, merged)
        # Without the axiom the all-ω row is a case no rule covers.
        assert len(simplify_rules([joined, s_only])) == 2


class TestSubsumption:
    def test_more_specific_rule_removed(self):
        general = Rule(atom("H", p, A), (atom("T", p, A),))
        specific = Rule(atom("H", p, A), (atom("T", p, A), cond(A)))
        assert subsumption_pass([general, specific]) == [general]

    def test_duplicates_removed_modulo_renaming(self):
        r1 = Rule(atom("H", p, A), (atom("T", p, A),))
        r2 = Rule(atom("H", p, B), (atom("T", p, B),))
        assert len(subsumption_pass([r1, r2])) == 1


class TestUnfolding:
    def test_positive_unfold(self):
        rule = Rule(atom("Out", p, A), (atom("Mid", p, A),))
        definition = Rule(atom("Mid", p, A), (atom("In", p, A), cond(A)))
        unfolded = unfold_literal(rule, rule.body[0], [definition])
        assert len(unfolded) == 1
        assert any(isinstance(lit, CondLit) for lit in unfolded[0].body)

    def test_negative_unfold_produces_alternatives(self):
        rule = Rule(atom("Out", p, A), (atom("In", p, A), atom("Mid", p, wildcard(), positive=False)))
        definition = Rule(atom("Mid", p, B), (atom("In2", p, B), cond(B)))
        unfolded = unfold_literal(rule, rule.body[1], [definition])
        # one alternative negates the atom, one negates the condition
        assert len(unfolded) == 2


class TestMatching:
    def test_find_renaming_bijective(self):
        r1 = Rule(atom("H", p, A), (atom("T", p, A),))
        r2 = Rule(atom("H", p, B), (atom("T", p, B),))
        assert find_renaming(r1, r2) is not None

    def test_find_renaming_rejects_non_bijective(self):
        r1 = Rule(atom("H", p, A, A2), (atom("T", p, A), atom("T2", p, A2)))
        r2 = Rule(atom("H", p, B, B), (atom("T", p, B), atom("T2", p, B)))
        assert find_renaming(r1, r2, exact=True) is None

    def test_subset_embedding(self):
        small = Rule(atom("H", p, A), (atom("T", p, A),))
        big = Rule(atom("H", p, A), (atom("T", p, A), cond(A)))
        assert find_renaming(small, big, exact=False) is not None
        assert find_renaming(big, small, exact=False) is None
