"""Letter-local relational evaluation, cross-checked against the plain fold and the oracle.

Over a universe of at least `_LOCAL_MIN_LETTERS` letters, the relational fold
evaluates each implication's operands over the operands' own letters.  Every
relational table over a universe is the cylindrical extension of the same
formula's table over any universe that holds its letters, so the wide table
read at a row must equal the small table read at that row's projection.  The
small tables are checked against the brute-force oracle, and at 20 letters the
letter-local table against the whole-universe fold, bit for bit.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from logicrel import semantics
from logicrel.formula import Universe, max_imp_depth
from logicrel.parser import parse
from logicrel.semantics import Mode, eliminate_implications, gen_random_formula, truth_table

from oracle import oracle_table
from strategies import formulas

SMALL = ("p", "q", "r", "s")
U20 = Universe(tuple(f"x{k}" for k in range(20)))


def projection(row, positions):
    """The small-universe row whose letter j takes bit positions[j] of the wide row."""
    return sum(((row >> pos) & 1) << j for j, pos in enumerate(positions))


def assert_extends(wide, small, positions, rows):
    for row in rows:
        assert wide.value_at(row) == small.value_at(projection(row, positions)), row


def sampled_rows(n_letters, count, rng):
    last = (1 << n_letters) - 1
    return [0, last] + [rng.randrange(last + 1) for _ in range(count)]


@settings(deadline=None, max_examples=60)
@given(
    f=formulas(SMALL, max_leaves=10),
    order=st.permutations(range(semantics._LOCAL_MIN_LETTERS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_table_extends_small_table(f, order, seed):
    n_letters = semantics._LOCAL_MIN_LETTERS
    positions = order[: len(SMALL)]
    assume(positions != list(range(len(SMALL))))
    names = [f"w{k}" for k in range(n_letters)]
    for name, pos in zip(SMALL, positions):
        names[pos] = name
    small = truth_table(f, Universe(SMALL), Mode.RELATIONAL)
    assert [small.value_at(row) for row in range(small.rows)] == oracle_table(f, SMALL)
    wide = truth_table(f, Universe(names), Mode.RELATIONAL)
    assert_extends(wide, small, positions, sampled_rows(n_letters, 200, random.Random(seed)))


CONTEXTS = [
    ("T -> F", ()),
    ("F -> T", ()),
    ("(T -> F) | ~(F -> T)", ("p",)),
    ("p & q & r & s -> p | s", SMALL),
    ("(p -> q) -> (r -> s)", SMALL),
    ("(p & (q -> r)) -> s", SMALL),
    ("~(p -> q) & (r | s -> r) | s", SMALL),
    ("(p -> q -> r -> s) & p", SMALL),
    ("q -> (T -> F)", ("p", "q")),
    ("(s -> p) & (q -> r)", ("s", "r", "q", "p")),
    ("(t -> u) & ((p -> q) -> r)", ("t", "p", "u", "q", "r")),
]


@pytest.mark.parametrize("text,letters", CONTEXTS)
def test_local_contexts_match_oracle_with_the_gate_at_0(monkeypatch, text, letters):
    monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 0)
    f = parse(text)
    u = Universe(letters)
    t = truth_table(f, u, Mode.RELATIONAL)
    assert [t.value_at(row) for row in range(t.rows)] == oracle_table(f, letters)
    # eliminate_implications decides in place whatever the gate; below it, its
    # decisions, read classically, give the table the inline fold gives.
    rebuilt = eliminate_implications(f, u)
    monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 99)
    assert eliminate_implications(f, u) == rebuilt
    assert truth_table(rebuilt, u, Mode.MATERIAL) == truth_table(f, u, Mode.RELATIONAL)


@pytest.mark.parametrize("n_letters", range(5))
def test_seeded_formulas_match_oracle_with_the_gate_at_0(monkeypatch, n_letters):
    monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 0)
    u = Universe(SMALL[:n_letters])
    if n_letters:
        fs = [gen_random_formula(4, u, seed) for seed in range(40)]
    else:  # gen_random_formula needs a letter
        fs = [parse("T -> F"), parse("(F -> T) & ~(T -> T)")]
    for f in fs:
        t = truth_table(f, u, Mode.RELATIONAL)
        assert [t.value_at(row) for row in range(t.rows)] == oracle_table(f, u.letters), f
        rebuilt = eliminate_implications(f, u)
        monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 99)
        assert eliminate_implications(f, u) == rebuilt, f
        assert truth_table(rebuilt, u, Mode.MATERIAL) == truth_table(f, u, Mode.RELATIONAL), f
        monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 0)


def nested_over(letters, seed):
    """The first seeded formula over `letters` with implications nested at least two deep."""
    u = Universe(letters)
    while True:
        f = gen_random_formula(6, u, seed)
        if max_imp_depth(f) >= 2:
            return f
        seed += 1000


@pytest.mark.parametrize("seed", range(4))
def test_nested_implications_at_20_letters_extend_small_tables(seed):
    rng = random.Random(seed)
    positions = sorted(rng.sample(range(20), 5))
    letters = tuple(U20.letters[pos] for pos in positions)
    f = nested_over(letters, seed)
    small = truth_table(f, Universe(letters), Mode.RELATIONAL)
    wide = truth_table(f, U20, Mode.RELATIONAL)
    assert_extends(wide, small, positions, sampled_rows(20, 300, rng))


@pytest.mark.parametrize("seed", range(3))
def test_letter_local_table_equals_whole_universe_fold_at_20_letters(monkeypatch, seed):
    f = nested_over(U20.letters, seed)
    local = truth_table(f, U20, Mode.RELATIONAL)
    monkeypatch.setattr(semantics, "_LOCAL_MIN_LETTERS", 99)
    assert truth_table(f, U20, Mode.RELATIONAL) == local


def test_gate_leaves_narrow_and_material_folds_whole(monkeypatch):
    def refuse(*args):
        raise AssertionError("implications decided in place below the gate or in material mode")

    monkeypatch.setattr(semantics, "_decide_implications", refuse)
    f = parse("(x0 -> x1) & x2")
    narrow = Universe(tuple(f"x{k}" for k in range(semantics._LOCAL_MIN_LETTERS - 1)))
    assert truth_table(f, narrow, Mode.RELATIONAL).bits == 0
    assert truth_table(f, U20, Mode.MATERIAL).bits != 0
    assert semantics._LOCAL_MIN_LETTERS <= 20
