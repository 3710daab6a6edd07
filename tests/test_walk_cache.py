"""The program that `parse` caches on its root, cross-checked against a plain walk.

`parse` emits its formula's post-order as program codes and keeps them, with
the operand's letters, on the root it returns; the root builds its children
from them when they are first read.  Here every post-order that
`subformulas_bottom_up` returns is compared, node by node and by identity,
with a plain explicit-stack walk of the children, and every letter sequence
with the letters that walk finds.  The cache must also leave no reference
cycle: a parsed tree is freed by reference counting alone.
"""

import copy
import gc
import io
import pickle
import random

import pytest
from hypothesis import given

from logicrel.cli import COMMANDS, run
from logicrel.formula import (
    And,
    Imp,
    Letter,
    Not,
    Or,
    Universe,
    letter_sequence,
    letters,
    subformulas_bottom_up,
)
from logicrel.parser import SyntaxStyle, parse, render
from logicrel.relation import paradox_formula
from logicrel.semantics import eliminate_implications, gen_random_formula

from strategies import formulas


def plain_walk(f):
    """All subformulas in post-order, descending into every node: the reference."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(g.children)
    out.reverse()
    return out


def plain_letters(f):
    return list(dict.fromkeys(g.name for g in plain_walk(f) if type(g) is Letter))


def rebuilt(f):
    """The same tree built again by the public constructors, which cache nothing."""
    built = []
    for g in plain_walk(f):
        operands = [built.pop() for _ in g.children][::-1]
        built.append(type(g)(*operands) if operands else g)
    return built[0]


def assert_walks_agree(f):
    order = subformulas_bottom_up(f)
    reference = plain_walk(f)
    assert type(order) is list and len(order) == len(reference)
    assert all(a is b for a, b in zip(order, reference))
    expected = plain_letters(f)
    assert letter_sequence(f) == expected
    assert letters(f) == set(expected)


CORPUS_LETTERS = Universe(("p", "q", "r", "s"))
LONG_LETTERS = ("p", "q", "r", "s", "t", "u", "v", "w")


def corpus_text(seed):
    """A depth-5 formula over four letters, as in a corpus line."""
    return render(gen_random_formula(5, CORPUS_LETTERS, seed))


def long_text(seed, leaves=600):
    """A balanced formula over eight letters, paired level by level, in either spelling."""
    rng = random.Random(seed)
    level = [Letter(rng.choice(LONG_LETTERS)) for _ in range(leaves)]
    while len(level) > 1:
        pairs = [rng.choice((And, Or, Imp))(*level[k:k + 2]) for k in range(0, len(level) - 1, 2)]
        level = [Not(g) if rng.random() < 0.1 else g for g in pairs + level[len(pairs) * 2:]]
    return render(level[0], rng.choice(list(SyntaxStyle)))


OPERAND_TEXTS = [corpus_text(seed) for seed in range(40)] + [long_text(seed) for seed in range(4)]
OPERAND_IDS = [f"corpus{seed}" for seed in range(40)] + [f"long{seed}" for seed in range(4)]


@pytest.mark.parametrize("text", OPERAND_TEXTS, ids=OPERAND_IDS)
def test_parsed_walk_equals_plain_walk(text):
    assert_walks_agree(parse(text))


@pytest.mark.parametrize("text", ["p", "T", "F", "~p", "p & q", "(p -> T) | p"])
def test_small_and_leaf_roots(text):
    f = parse(text)
    assert_walks_agree(f)
    assert (f._walk is None) == (not f.children)
    assert Universe.of(f).letters == tuple(plain_letters(f))


@pytest.mark.parametrize("seed", range(6))
def test_formulas_over_parsed_operands(seed):
    a = parse(OPERAND_TEXTS[seed])
    b = parse(OPERAND_TEXTS[-1 - seed % 4])
    for f in (And(a, Not(b)), Or(Not(a), b), And(a, b), And(a, a), Not(Not(b))):
        assert_walks_agree(f)
    for schema in ("P1", "P2", "P3"):
        assert_walks_agree(paradox_formula(schema, a, b))
    u = Universe.of(a, b)
    assert u.letters == tuple(dict.fromkeys(plain_letters(a) + plain_letters(b)))
    assert_walks_agree(eliminate_implications(Imp(a, Or(b, Not(a))), u))


@pytest.mark.parametrize("duplicate", [lambda f: pickle.loads(pickle.dumps(f)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("k", [2, -2, -1])
def test_copies_carry_no_cache_and_walk_the_same(duplicate, k):
    f = parse(OPERAND_TEXTS[k])
    copied = duplicate(f)
    assert copied._walk is None
    assert_walks_agree(copied)
    assert copied == f and repr(copied) == repr(f)


@pytest.mark.parametrize("k", [0, 2, 5, 6, 7, 9, -2, -1])  # connective roots
def test_only_the_root_of_a_parse_holds_a_walk(k):
    f = parse(OPERAND_TEXTS[k])
    assert [g for g in plain_walk(f) if g._walk is not None] == [f]
    cached_order, cached_names = f._walk
    assert all(g is not f for g in cached_order)
    assert cached_names == tuple(plain_letters(f))


@given(formulas(max_leaves=30))
def test_parsed_formula_compares_hashes_and_prints_as_built(f):
    g = parse(render(f))
    assert_walks_agree(g)
    assert g == f == rebuilt(g)
    assert hash(g) == hash(f) == hash(rebuilt(g))
    assert repr(g) == repr(f) == repr(rebuilt(g))


QUERIES = [
    ["classify", "p & (q | ~p)"],
    ["classify", "--mode", "material", "--json", "p -> (q -> p)"],
    ["implies", "p & q", "p"],
    ["equiv", "--json", "p -> q", "~p | q"],
    ["entails", "p & q", "q | r"],
    ["relate", "p", "p | q"],
    ["table", "p -> q"],
    ["table", "--json", "p & ~q"],
    ["audit", "p", "q"],
    ["lattice", "2"],
]


def test_nothing_is_left_for_the_cyclic_collector():
    assert {argv[0] for argv in QUERIES} == {*COMMANDS, "lattice"}
    texts = OPERAND_TEXTS[:8] + OPERAND_TEXTS[-2:]
    for argv in QUERIES:  # argparse and the regex caches allocate once, before the count
        run(argv)
    gc.collect()
    gc.disable()
    try:
        fs = [parse(text) for text in texts]
        built = [And(a, Not(b)) for a, b in zip(fs, fs[1:])]
        built += [paradox_formula(schema, fs[0], fs[-1]) for schema in ("P1", "P2", "P3")]
        codes = [run(argv)[0] for argv in QUERIES]
        codes.append(run(["equiv", "--corpus", "-"], io.StringIO(f"{texts[0]}; {texts[1]}\n"))[0])
        del fs, built
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert codes.count(0) + codes.count(1) == len(codes)
