from collections import Counter

import pytest
from hypothesis import given, settings

from logicrel import relation
from logicrel.equivalence import equivalent, is_tautology
from logicrel.errors import LimitError
from logicrel.formula import And, Imp, Letter, Not, Or, Universe
from logicrel.parser import parse
from logicrel.relation import (
    FIRST_IS_BOTTOM,
    FIRST_IS_TOP,
    SECOND_IS_BOTTOM,
    SECOND_IS_TOP,
    RelationClass,
    RelationKind,
    audit_paradoxes,
    classify_relation,
    criteria_report,
    hasse_edges,
    implies_rel,
    paradox_formula,
    verify_lattice,
)
from logicrel.semantics import Mode

from strategies import formulas

P, Q = Letter("p"), Letter("q")
U = Universe(("p", "q"))


class TestImpliesRel:
    def test_join(self):
        assert implies_rel(parse("p"), parse("p | q"))

    def test_unrelated_letters(self):
        assert not implies_rel(parse("p"), parse("q"))

    def test_bottom(self):
        assert implies_rel(parse("F"), parse("p"))

    def test_meet(self):
        assert implies_rel(parse("p & q"), parse("p"))

    def test_top(self):
        assert implies_rel(parse("p"), parse("T"))


class TestCriteriaReport:
    def test_meet_all_true(self):
        r = criteria_report(parse("p & q"), parse("p"))
        assert (r.and_absorb, r.conj_bottom, r.disj_top, r.agree) == (True, True, True, True)
        assert r.witness is None

    def test_unrelated_all_false(self):
        r = criteria_report(parse("p"), parse("q"))
        assert (r.and_absorb, r.conj_bottom, r.disj_top, r.agree) == (False, False, False, True)
        assert r.witness == equivalent(parse("p & q"), parse("p"), Mode.RELATIONAL).witness
        assert r.witness.as_dict() == {"p": True, "q": False}

    def test_top_consequent_all_true(self):
        r = criteria_report(parse("p"), parse("T"))
        assert (r.and_absorb, r.conj_bottom, r.disj_top, r.agree) == (True, True, True, True)

    def test_holds_mirrors_absorption(self):
        assert criteria_report(parse("p & q"), parse("p")).holds
        assert not criteria_report(parse("p"), parse("q")).holds


class TestClassifyRelation:
    def test_disjoint(self):
        rc = classify_relation(parse("p"), parse("~p"))
        assert rc.kind is RelationKind.DISJOINT
        assert rc.degenerate == frozenset()

    def test_joint(self):
        rc = classify_relation(P, Q)
        assert rc.kind is RelationKind.JOINT
        assert rc.degenerate == frozenset()

    def test_inclusion_forward(self):
        rc = classify_relation(parse("p & q"), P)
        assert rc.kind is RelationKind.INCLUSION_FORWARD

    def test_inclusion_backward(self):
        rc = classify_relation(P, parse("p & q"))
        assert rc.kind is RelationKind.INCLUSION_BACKWARD

    def test_equivalent_idempotence(self):
        rc = classify_relation(P, parse("p | p"))
        assert rc.kind is RelationKind.EQUIVALENT
        assert rc.degenerate == frozenset()

    def test_degenerate_bottom_first(self):
        rc = classify_relation(parse("F"), P)
        assert rc.kind is RelationKind.INCLUSION_FORWARD
        assert rc.degenerate == {FIRST_IS_BOTTOM}

    def test_degenerate_contradiction_counts_as_bottom(self):
        rc = classify_relation(parse("p & ~p"), Q)
        assert rc.kind is RelationKind.INCLUSION_FORWARD
        assert rc.degenerate == {FIRST_IS_BOTTOM}

    def test_degenerate_top_second(self):
        rc = classify_relation(P, parse("q | ~q"))
        assert rc.kind is RelationKind.INCLUSION_FORWARD
        assert rc.degenerate == {SECOND_IS_TOP}

    def test_degenerate_both_constants(self):
        rc = classify_relation(parse("T"), parse("F"))
        assert rc.kind is RelationKind.INCLUSION_BACKWARD
        assert rc.degenerate == {FIRST_IS_TOP, SECOND_IS_BOTTOM}


class TestAuditParadoxes:
    def test_distinct_letters_break_all_three_relationally(self):
        reports = audit_paradoxes(P, Q)
        assert [r.schema for r in reports] == ["P1", "P2", "P3"]
        for r in reports:
            assert r.material_tautology is True
            assert r.relational_tautology is False
            assert r.relational_status == "contradiction"
            assert r.relational_witness is not None

    def test_same_letter_makes_all_three_relational_tautologies(self):
        for r in audit_paradoxes(P, P):
            assert r.relational_tautology is True
            assert r.relational_status == "tautology"
            assert r.relational_witness is None

    def test_negated_operand_satisfies_the_failure_preconditions(self):
        # p and ~p: neither operand degenerate, conjunction is a contradiction.
        assert classify_relation(P, Not(P)) == RelationClass(RelationKind.DISJOINT)
        for r in audit_paradoxes(P, Not(P)):
            assert r.relational_tautology is False

    def test_schema_shapes(self):
        assert paradox_formula("P1", P, Q) == parse("~p -> (p -> q)")
        assert paradox_formula("P2", P, Q) == parse("p -> (q -> p)")
        assert paradox_formula("P3", P, Q) == parse("(p -> q) | (q -> p)")
        with pytest.raises(ValueError):
            paradox_formula("P4", P, Q)


class TestVerifyLattice:
    def test_one_letter(self):
        report = verify_lattice(1)
        assert report.class_count == 4
        assert report.failures == ()
        assert report.ok

    def test_two_letters(self):
        report = verify_lattice(2)
        assert report.class_count == 16
        assert report.failures == ()

    def test_four_letters_sampled(self):
        report = verify_lattice(4)
        assert report.class_count == 65536
        assert report.failures == ()
        # seeded sampling keeps the report reproducible
        assert report == verify_lattice(4)

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_out_of_range(self, n):
        with pytest.raises(LimitError):
            verify_lattice(n)

    def test_hasse_edges_for_one_letter(self):
        assert hasse_edges(1) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_hasse_rejects_large_universes(self):
        with pytest.raises(LimitError):
            hasse_edges(3)

    # A broken order must reach every failure path: the law counts and the
    # Hasse covers under four wrong relations, pinned per universe size.
    _BROKEN_ORDERS = {
        "both ways": (
            lambda x, y: x & y == x or x & y == y,
            {1: {"anti-symmetry": 10, "transitivity": 4, "meet": 6, "join": 6},
             2: {"anti-symmetry": 130, "transitivity": 100, "meet": 210, "join": 210},
             4: {"anti-symmetry": 1985, "transitivity": 95}},
        ),
        "reversed": (
            lambda x, y: x & y == y,
            {1: {"top": 3, "bottom": 3, "meet": 12, "join": 12},
             2: {"top": 15, "bottom": 15, "meet": 240, "join": 240},
             4: {"top": 65535, "bottom": 65535, "meet": 99998, "join": 99998}},
        ),
        "5 not below itself": (
            lambda x, y: x & y == x and not x == y == 5,
            {2: {"reflexivity": 1, "meet": 2, "join": 2},
             4: {"reflexivity": 1, "meet": 2}},
        ),
        # A total order in which x & y and x | y are bounds but not the
        # greatest and least ones; at n = 4 every failure is a sampled triple.
        "numeric": (
            lambda x, y: x <= y,
            {1: {"meet": 2, "join": 2},
             2: {"meet": 110, "join": 110},
             4: {"meet": 8351, "join": 8330}},
        ),
    }

    @pytest.mark.parametrize("name", list(_BROKEN_ORDERS))
    def test_broken_order_fails_the_laws(self, monkeypatch, name):
        order, expected = self._BROKEN_ORDERS[name]
        monkeypatch.setattr(relation, "le", order)
        for n, counts in expected.items():
            report = verify_lattice(n)
            assert Counter(law for law, _ in report.failures) == counts, n
            assert not report.ok

    def test_broken_order_changes_the_hasse_covers(self, monkeypatch):
        real = hasse_edges(2)
        assert len(real) == 32
        monkeypatch.setattr(relation, "le", self._BROKEN_ORDERS["both ways"][0])
        assert hasse_edges(1) == []
        monkeypatch.setattr(relation, "le", self._BROKEN_ORDERS["reversed"][0])
        assert hasse_edges(1) == [(1, 0), (2, 0), (3, 1), (3, 2)]
        monkeypatch.setattr(relation, "le", self._BROKEN_ORDERS["numeric"][0])
        assert hasse_edges(1) == [(0, 1), (1, 2), (2, 3)]
        # Irreflexivity at one class must not add or drop a cover.
        monkeypatch.setattr(relation, "le", self._BROKEN_ORDERS["5 not below itself"][0])
        assert hasse_edges(2) == real


def _minterm_formula(cls, u):
    """Formula whose truth table over u is exactly the bit pattern cls."""
    rows = 1 << len(u.letters)
    terms = []
    for row in range(rows):
        if (cls >> row) & 1:
            lits = [
                Letter(name) if (row >> k) & 1 else Not(Letter(name))
                for k, name in enumerate(u.letters)
            ]
            term = lits[0]
            for lit in lits[1:]:
                term = And(term, lit)
            terms.append(term)
    if not terms:
        return parse("F")
    f = terms[0]
    for term in terms[1:]:
        f = Or(f, term)
    return f


def test_class_order_agrees_with_implies_rel_on_minterm_formulas():
    for x in range(16):
        for y in range(16):
            fx, fy = _minterm_formula(x, U), _minterm_formula(y, U)
            assert implies_rel(fx, fy, U) == (x & y == x)


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_criteria_always_agree(a, b):
    assert criteria_report(a, b, U).agree


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_relation_matches_relational_tautology_of_the_arrow(a, b):
    assert implies_rel(a, b, U) == is_tautology(Imp(a, b), Mode.RELATIONAL, U).holds


@given(formulas(("p", "q")))
def test_relation_is_reflexive(a):
    assert implies_rel(a, a, U)


@settings(deadline=None)
@given(formulas(("p", "q")), formulas(("p", "q")), formulas(("p", "q")))
def test_relation_is_transitive(a, b, c):
    if implies_rel(a, b, U) and implies_rel(b, c, U):
        assert implies_rel(a, c, U)


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_mutual_relation_collapses_to_equivalence(a, b):
    if implies_rel(a, b, U) and implies_rel(b, a, U):
        assert equivalent(a, b, Mode.RELATIONAL, U).holds


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_inclusion_forward_is_relation_without_equivalence(a, b):
    rc = classify_relation(a, b, U)
    expected = implies_rel(a, b, U) and not equivalent(a, b, Mode.RELATIONAL, U).holds
    assert (rc.kind is RelationKind.INCLUSION_FORWARD) == expected


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_kinds_are_mutually_exclusive_when_not_degenerate(a, b):
    rc = classify_relation(a, b, U)
    if rc.degenerate:
        return
    conj_bottom = is_tautology(Not(And(a, b)), Mode.RELATIONAL, U).holds
    absorb_fwd = implies_rel(a, b, U)
    absorb_bwd = implies_rel(b, a, U)
    equal = equivalent(a, b, Mode.RELATIONAL, U).holds
    flags = {
        RelationKind.DISJOINT: conj_bottom and not equal,
        RelationKind.EQUIVALENT: equal,
        RelationKind.INCLUSION_FORWARD: absorb_fwd and not equal,
        RelationKind.INCLUSION_BACKWARD: absorb_bwd and not equal,
        RelationKind.JOINT: not (conj_bottom or absorb_fwd or absorb_bwd or equal),
    }
    assert sum(flags.values()) == 1
    assert flags[rc.kind]
