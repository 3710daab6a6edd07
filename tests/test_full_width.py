"""Letter row patterns and tables at the full 20-letter universe size.

The cached row patterns are checked row by row against Interpretation, the
definition of what row i means, and seeded 20-letter tables are checked at
sampled rows against the independent oracle.  Implication-free formulas keep
the oracle pointwise, so it stays cheap at 2^20 rows; without implications the
two modes must agree with it and with each other.  Material mode reads an
implication pointwise too, so formulas with implications and many constants,
which the node loop answers without big-int operations, are checked in that
mode at 20 letters, and in both modes over p, q, r.
"""

import random

import pytest
from hypothesis import given

from logicrel.formula import (
    BOTTOM, TOP, And, Bottom, Imp, Letter, Not, Or, Top, Universe, letters, subformulas_bottom_up,
)
from logicrel.parser import parse
from logicrel.semantics import Interpretation, Mode, _letter_patterns, truth_table

from oracle import oracle_eval, oracle_table
from strategies import formulas, gen_imp_free

U20 = Universe(tuple(f"x{k}" for k in range(20)))


def wide_imp_free(seed):
    """The first seeded implication-free formula that uses at least 12 letters."""
    rng = random.Random(seed)
    while True:
        f = gen_imp_free(rng, 8, U20.letters)
        if len(letters(f)) >= 12:
            return f


def sampled_rows(n_letters, count, seed):
    last = (1 << n_letters) - 1
    rng = random.Random(seed)
    return sorted({0, 1, last} | {rng.randrange(last + 1) for _ in range(count)})


def assert_patterns_match(n_letters, rows):
    u = Universe(tuple(f"x{k}" for k in range(n_letters)))
    patterns = _letter_patterns(n_letters)
    assert len(patterns) == n_letters
    for pattern in patterns:
        assert 0 <= pattern < 1 << (1 << n_letters)
    for row in rows:
        expected = Interpretation.from_index(u, row).values
        assert tuple(bool((p >> row) & 1) for p in patterns) == expected, row


@pytest.mark.parametrize("n_letters", range(1, 9))
def test_patterns_match_every_row_up_to_8_letters(n_letters):
    assert_patterns_match(n_letters, range(1 << n_letters))


def test_patterns_match_sampled_rows_at_20_letters():
    assert_patterns_match(20, sampled_rows(20, 2000, seed=20))


def test_pattern_cache_holds_one_universe_size():
    assert _letter_patterns.cache_info().maxsize == 1


@pytest.mark.parametrize("seed", range(6))
def test_tables_match_oracle_at_20_letters(seed):
    f = wide_imp_free(seed)
    names = U20.letters
    tables = {m: truth_table(f, U20, m) for m in Mode}
    for row in sampled_rows(20, 150, seed):
        env = {name: bool((row >> k) & 1) for k, name in enumerate(names)}
        expected = oracle_eval(f, env, names)
        for m in Mode:
            assert tables[m].value_at(row) == expected, (m, row)


# All ones but computed, so not the cached mask object; the node loop must
# take the full operation on it.  Its twin is all zeros.
TAUTOLOGY = parse("x0 | ~x0")
CONTRADICTION = parse("x0 & ~x0")
CONSTANTS = (TOP, BOTTOM, TAUTOLOGY, CONTRADICTION)


def assert_material_matches_oracle(f, seed):
    t = truth_table(f, U20, Mode.MATERIAL)
    names = U20.letters
    for row in sampled_rows(20, 40, seed):
        env = {name: bool((row >> k) & 1) for k, name in enumerate(names)}
        assert t.value_at(row) == oracle_eval(f, env, names, material=True), row


def node_kinds(f):
    return [type(g) for g in subformulas_bottom_up(f)]


def constant_heavy(seed):
    """The first seeded formula over U20 with 3 implications and 6 T or F leaves.

    About half the leaves are constants, drawn from T, F, TAUTOLOGY and
    CONTRADICTION.
    """
    rng = random.Random(seed)

    def gen(budget):
        if budget == 0 or rng.random() < 0.2:
            return rng.choice(CONSTANTS) if rng.random() < 0.5 else Letter(rng.choice(U20.letters))
        op = rng.randrange(4)
        if op == 0:
            return Not(gen(budget - 1))
        return (And, Or, Imp)[op - 1](gen(budget - 1), gen(budget - 1))

    while True:
        f = gen(7)
        kinds = node_kinds(f)
        if kinds.count(Imp) >= 3 and kinds.count(Top) + kinds.count(Bottom) >= 6:
            return f


def test_the_tables_of_a_universe_share_one_mask():
    mask = truth_table(parse("x3"), U20, Mode.MATERIAL).mask
    assert truth_table(TOP, U20, Mode.MATERIAL).bits is mask
    assert truth_table(parse("x3 -> x3"), U20, Mode.RELATIONAL).bits is mask
    tautology = truth_table(TAUTOLOGY, U20, Mode.MATERIAL).bits
    assert tautology == mask and tautology is not mask


@pytest.mark.parametrize("seed", range(8))
def test_constant_heavy_material_tables_match_oracle_at_20_letters(seed):
    assert_material_matches_oracle(constant_heavy(seed), seed)


@pytest.mark.parametrize("constant", CONSTANTS, ids=["T", "F", "tautology", "contradiction"])
def test_constants_in_every_operand_position_at_20_letters(constant):
    g = parse("x3 & ~x19 | x7 -> x12")
    x = truth_table(constant, U20, Mode.MATERIAL).bits
    mask = truth_table(g, U20, Mode.MATERIAL).mask
    cases = {Not(constant): mask ^ x}
    for other in (g, *CONSTANTS):
        y = truth_table(other, U20, Mode.MATERIAL).bits
        for left, right, a, b in ((constant, other, x, y), (other, constant, y, x)):
            cases[And(left, right)] = a & b
            cases[Or(left, right)] = a | b
            cases[Imp(left, right)] = (mask ^ a) | b
    for k, (f, expected) in enumerate(cases.items()):
        assert truth_table(f, U20, Mode.MATERIAL).bits == expected, f
        assert_material_matches_oracle(f, k)


@given(formulas(("p", "q", "r")))
def test_tables_match_the_oracle_in_both_modes(f):
    names = ("p", "q", "r")
    u = Universe(names)
    for m in Mode:
        t = truth_table(f, u, m)
        assert [t.value_at(row) for row in range(t.rows)] == oracle_table(f, names, m is Mode.MATERIAL), m
