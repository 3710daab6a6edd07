"""Hand-checked anchors for the reference oracle itself."""

from logicrel.parser import parse

from oracle import assignments, oracle_table


def test_assignment_rows_follow_bit_order():
    rows = list(assignments(("p", "q")))
    assert rows == [
        {"p": False, "q": False},
        {"p": True, "q": False},
        {"p": False, "q": True},
        {"p": True, "q": True},
    ]


def test_conjunction_table():
    assert oracle_table(parse("p & q"), ("p", "q")) == [False, False, False, True]


def test_implication_is_global():
    # p & q disagrees with p at the row p=true, q=false, so the arrow is
    # false everywhere, not just at that row.
    assert oracle_table(parse("p -> q"), ("p", "q")) == [False] * 4


def test_reflexive_implication_is_globally_true():
    assert oracle_table(parse("p -> p"), ("p",)) == [True, True]


def test_excluded_middle():
    assert oracle_table(parse("p | ~p"), ("p",)) == [True, True]


def test_constants_ignore_assignments():
    assert oracle_table(parse("T -> F"), ()) == [False]
    assert oracle_table(parse("F -> F"), ()) == [True]


def test_material_implication_is_pointwise():
    assert oracle_table(parse("p -> q"), ("p", "q"), material=True) == [True, False, True, True]
    assert oracle_table(parse("(p -> q) | (q -> p)"), ("p", "q"), material=True) == [True] * 4
    assert oracle_table(parse("T -> F"), (), material=True) == [False]
