import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from logicrel import formula
from logicrel.errors import LimitError
from logicrel.formula import (
    BOTTOM,
    TOP,
    And,
    Imp,
    Letter,
    Not,
    Or,
    Top,
    Universe,
    letters,
    max_imp_depth,
    subformulas_bottom_up,
)
from logicrel.parser import parse, render

from strategies import formulas, node_count

P, Q = Letter("p"), Letter("q")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p & (q | ~p)", {"p", "q"}),
        ("T -> F", set()),
        ("(p -> q) -> r", {"p", "q", "r"}),
    ],
)
def test_letters(text, expected):
    assert letters(parse(text)) == expected


def test_subformulas_post_order():
    assert subformulas_bottom_up(Not(P)) == [P, Not(P)]
    assert subformulas_bottom_up(Imp(P, Q)) == [P, Q, Imp(P, Q)]
    f = parse("~p -> (p -> q)")
    assert subformulas_bottom_up(f) == [P, Not(P), P, Q, Imp(P, Q), f]


@pytest.mark.parametrize(
    "text,depth",
    [("p | q", 0), ("p -> q", 1), ("~p -> (p -> q)", 2), ("(p -> q) -> (q -> p)", 2)],
)
def test_max_imp_depth(text, depth):
    assert max_imp_depth(parse(text)) == depth


def test_structural_equality_is_syntactic():
    assert parse("p | q") == Or(P, Q)
    assert parse("p | q") != parse("q | p")
    assert TOP == TOP and BOTTOM != TOP
    assert And(P, Q) != Or(P, Q) and Not(P) != P and P != "p"


def test_repr_is_the_dataclass_text():
    assert repr(parse("~p & T -> q | F")) == (
        "Imp(antecedent=And(left=Not(child=Letter(name='p')), right=Top()), "
        "consequent=Or(left=Letter(name='q'), right=Bottom()))"
    )


def test_letter_name_validation():
    with pytest.raises(ValueError):
        Letter("P")
    with pytest.raises(ValueError):
        Letter("1p")
    Letter("pX_2")  # lowercase-initial is enough


def test_universe_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        Universe(("p", "p"))
    with pytest.raises(ValueError):
        Universe(("Q",))


@pytest.mark.parametrize("letters", ["pq", "row_1", ""])
def test_universe_refuses_a_string(letters):
    with pytest.raises(TypeError, match="^universe letters must be a sequence of names, not the string "):
        Universe(letters)


def test_universe_letter_limit(monkeypatch):
    monkeypatch.setenv("LOGICREL_MAX_LETTERS", "3")
    Universe(("a", "b", "c"))
    with pytest.raises(LimitError, match="^universe has 4 letters, limit is 3$"):
        Universe(("a", "b", "c", "d"))


def test_universe_of_first_occurrence_order():
    u = Universe.of(parse("q | p"), parse("r & q"))
    assert u.letters == ("q", "p", "r")


def test_universe_positions():
    u = Universe(("p", "q", "r"))
    assert [u.position(n) for n in "pqr"] == [0, 1, 2]
    assert "q" in u and "z" not in u
    assert list(u) == ["p", "q", "r"]


@given(formulas())
def test_every_letter_appears_as_a_leaf(f):
    subs = subformulas_bottom_up(f)
    leaf_names = {g.name for g in subs if isinstance(g, Letter)}
    assert letters(f) == leaf_names


@given(formulas())
def test_subformula_count_is_node_count(f):
    assert len(subformulas_bottom_up(f)) == node_count(f)


@given(formulas())
def test_imp_depth_zero_iff_no_imp_node(f):
    has_imp = any(isinstance(g, Imp) for g in subformulas_bottom_up(f))
    assert (max_imp_depth(f) == 0) == (not has_imp)


@given(formulas())
def test_formulas_hash_and_compare(f):
    assert f == f
    assert hash(f) == hash(f)
    assert And(f, f) == And(f, f)


@given(formulas(), formulas())
def test_equal_iff_same_rendering(f, g):
    assert (f == g) == (render(f) == render(g))
    if f == g:
        assert hash(f) == hash(g)


def test_nodes_keep_the_dataclass_behaviour():
    f = parse("~p & T -> q | F")
    assert Letter(name="p") == P and Not(child=P) == Not(P)
    assert And(left=P, right=Q) == And(P, right=Q) == And(P, Q)
    assert Imp(antecedent=P, consequent=Q) == Imp(P, Q)
    for build in (lambda: Not(), lambda: Not(P, Q), lambda: And(P), lambda: Imp(P, Q, P),
                  lambda: Top(P), lambda: Letter(), lambda: And(P, left=Q)):
        with pytest.raises(TypeError):
            build()
    for node, name in ((P, "name"), (Not(P), "child"), (And(P, Q), "left"), (f, "consequent")):
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, Q)
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    for g in (f, TOP, BOTTOM, P):
        assert pickle.loads(pickle.dumps(g)) == g
        assert copy.copy(g) == g and copy.deepcopy(g) == g
        assert eval(repr(g), vars(formula)) == g
    match And(P, Not(Q)):
        case And(Letter(name=a), Not(b)):
            assert (a, b) == ("p", Q)
        case _:
            raise AssertionError("positional pattern did not bind")
    assert not isinstance(Or(P, Q), And) and not isinstance(And(P, Q), Or)
