import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logicrel.equivalence import (
    default_universe,
    entails,
    equivalent,
    is_contradiction,
    is_tautology,
)
from logicrel.formula import Imp, Not, Or, Universe
from logicrel.parser import parse
from logicrel.semantics import Mode, eval_material, eval_relational

from strategies import formulas, imp_free_formulas

U = Universe(("p", "q"))


def witness_dict(verdict):
    return verdict.witness.as_dict() if verdict.witness else None


class TestEquivalent:
    def test_de_morgan(self):
        assert equivalent(parse("~(p & q)"), parse("~p | ~q"), Mode.MATERIAL, U).holds

    def test_material_replacement_rule(self):
        assert equivalent(parse("p -> q"), parse("~p | q"), Mode.MATERIAL, U).holds

    def test_relational_replacement_fails(self):
        v = equivalent(parse("p -> q"), parse("~p | q"), Mode.RELATIONAL, U)
        assert not v.holds
        assert witness_dict(v) == {"p": False, "q": False}

    def test_default_universe_is_first_occurrence_order(self):
        v = equivalent(parse("q | p"), parse("p | q"), Mode.MATERIAL)
        assert v.holds
        assert default_universe(parse("q | p"), parse("p | q")).letters == ("q", "p")


class TestIsTautology:
    def test_excluded_middle(self):
        assert is_tautology(parse("p | ~p"), Mode.MATERIAL).holds

    def test_material_paradox_disjunction(self):
        assert is_tautology(parse("(p -> q) | (q -> p)"), Mode.MATERIAL, U).holds

    def test_same_formula_fails_relationally(self):
        v = is_tautology(parse("(p -> q) | (q -> p)"), Mode.RELATIONAL, U)
        assert not v.holds
        assert witness_dict(v) == {"p": False, "q": False}


class TestIsContradiction:
    def test_conjunction_with_negation(self):
        assert is_contradiction(parse("p & ~p"), Mode.MATERIAL).holds

    def test_paradox_schema_is_relational_contradiction(self):
        assert is_contradiction(parse("~p -> (p -> q)"), Mode.RELATIONAL, U).holds

    def test_letter_is_not_a_contradiction(self):
        v = is_contradiction(parse("p"), Mode.MATERIAL)
        assert not v.holds
        assert witness_dict(v) == {"p": True}


class TestEntails:
    def test_conjunction_elimination(self):
        assert entails(parse("p & q"), parse("p"), Mode.MATERIAL, U).holds

    def test_relational_implication_entails_its_expansion(self):
        assert entails(parse("p -> q"), parse("~p | q"), Mode.RELATIONAL, U).holds

    def test_expansion_does_not_entail_relational_implication(self):
        v = entails(parse("~p | q"), parse("p -> q"), Mode.RELATIONAL, U)
        assert not v.holds
        assert witness_dict(v) == {"p": False, "q": False}

    def test_default_universe_is_first_occurrence_order(self):
        assert entails(parse("p & q"), parse("p"), Mode.MATERIAL).holds
        v = entails(parse("q"), parse("p"), Mode.MATERIAL)
        assert not v.holds
        assert list(v.witness.as_dict().items()) == [("q", True), ("p", False)]


@given(imp_free_formulas(), imp_free_formulas())
def test_entailment_matches_relational_implication_tautology(a, b):
    u = Universe(("p", "q", "r"))
    assert entails(a, b, Mode.MATERIAL, u).holds == is_tautology(Imp(a, b), Mode.RELATIONAL, u).holds


@given(imp_free_formulas(), imp_free_formulas())
def test_mutual_implication_is_material_equivalence(a, b):
    u = Universe(("p", "q", "r"))
    both = (
        is_tautology(Imp(a, b), Mode.RELATIONAL, u).holds
        and is_tautology(Imp(b, a), Mode.RELATIONAL, u).holds
    )
    assert both == equivalent(a, b, Mode.MATERIAL, u).holds


@given(imp_free_formulas(), imp_free_formulas())
def test_replacement_is_sound_exactly_for_tautological_expansions(a, b):
    u = Universe(("p", "q", "r"))
    expansion_taut = is_tautology(Or(Not(a), b), Mode.MATERIAL, u).holds
    relation_holds = is_tautology(Imp(a, b), Mode.RELATIONAL, u).holds
    assert expansion_taut == relation_holds


@given(formulas(), formulas())
def test_implication_node_is_materially_its_expansion(a, b):
    u = Universe(("p", "q", "r"))
    assert equivalent(Imp(a, b), Or(Not(a), b), Mode.MATERIAL, u).holds


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_inference_rule_forward_direction_always_safe(a, b):
    # The arrow always entails its classical expansion, whatever the operands.
    u = Universe(("p", "q"))
    assert entails(Imp(a, b), Or(Not(a), b), Mode.RELATIONAL, u).holds


@given(imp_free_formulas(), imp_free_formulas())
def test_inference_rule_back_direction_requires_tautological_expansion(a, b):
    u = Universe(("p", "q", "r"))
    expansion = Or(Not(a), b)
    back = entails(expansion, Imp(a, b), Mode.RELATIONAL, u).holds
    taut = is_tautology(expansion, Mode.MATERIAL, u).holds
    if is_contradiction(expansion, Mode.MATERIAL, u).holds:
        # Unsatisfiable expansion: the entailment holds vacuously even though
        # the expansion is no tautology, so the biconditional is only claimed
        # for satisfiable expansions.
        assert back and not taut
    else:
        assert back == taut


@settings(deadline=None)
@given(formulas(("p", "q")), formulas(("p", "q")), st.sampled_from(list(Mode)))
def test_witnesses_refute_what_they_accompany(a, b, mode):
    u = Universe(("p", "q"))
    ev = eval_material if mode is Mode.MATERIAL else eval_relational

    v = equivalent(a, b, mode, u)
    if not v.holds:
        assert ev(a, v.witness) != ev(b, v.witness)

    v = is_tautology(a, mode, u)
    if not v.holds:
        assert ev(a, v.witness) is False

    v = is_contradiction(a, mode, u)
    if not v.holds:
        assert ev(a, v.witness) is True

    v = entails(a, b, mode, u)
    if not v.holds:
        assert ev(a, v.witness) is True and ev(b, v.witness) is False


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_verdict_truthiness_tracks_holds(a, b):
    v = equivalent(a, b, Mode.MATERIAL, U)
    assert bool(v) == v.holds
