"""parse() against the recursive-descent parser it replaced (reference_parser.py).

Both must give a structurally equal formula, or the same error: the same type,
text, UTF-8 byte offset and expected set.  Inputs are seeded token soups, renders
of random formulas (intact and with one edit), flat chains of connectives,
nesting around MAX_NESTING and formulas around a lowered letter limit.
"""

import random

import pytest

from logicrel.errors import LogicError
from logicrel.formula import Universe
from logicrel.parser import MAX_NESTING, SyntaxStyle, parse, render
from logicrel.semantics import gen_random_formula

from reference_parser import parse as reference_parse

_VALID = (
    "->", "→", "|", "∨", "&", "∧", "~", "¬", "T", "⊤", "F", "⊥", "(", ")",
    "p", "q2", "x_long_name", "pXy",
)
_INVALID = ("$", "-", ">", "Xy", "Foo", "T2", "F_", "é", "2", "_", "?")
_SPACES = (" ", "\t", "\u00a0", "\u3000")  # 1, 1, 2 and 3 UTF-8 bytes


def _outcome(parse_fn, text):
    try:
        return ("formula", parse_fn(text))
    except LogicError as e:
        return (type(e), str(e), getattr(e, "offset", None), getattr(e, "expected", None))


def assert_same(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text), text


def _gap(rng, least=1):
    return "".join(rng.choice(_SPACES) for _ in range(rng.randint(least, 3)))


def _token(rng):
    return rng.choice(_INVALID) if rng.random() < 0.1 else rng.choice(_VALID)


@pytest.mark.parametrize("seed", range(40))
def test_token_soups(seed):
    rng = random.Random(f"soup:{seed}")
    for _ in range(50):
        tokens = [_token(rng) for _ in range(rng.randint(0, 30))]
        assert_same("".join(_gap(rng, least=0) + t for t in tokens) + _gap(rng, least=0))


def _spelled(rng, f):
    """A random formula's rendering, each space widened to 1-3 mixed-width spaces."""
    style = rng.choice(list(SyntaxStyle))
    return "".join(_gap(rng) if ch == " " else ch for ch in render(f, style))


@pytest.mark.parametrize("seed", range(40))
def test_renders_and_edited_renders(seed):
    rng = random.Random(f"render:{seed}")
    u = Universe(("p", "q", "r", "s"))
    for k in range(20):
        text = _spelled(rng, gen_random_formula(rng.randint(0, 7), u, seed * 100 + k))
        assert_same(text)
        cut = rng.randint(0, len(text))
        assert_same(text[:cut])  # cut short
        assert_same(text[:cut] + _gap(rng) + _token(rng) + _gap(rng) + text[cut:])  # one insertion
        end = rng.randint(cut, min(len(text), cut + 3))
        assert_same(text[:cut] + text[end:])  # one deletion


_BINARY = ("->", "→", "|", "∨", "&", "∧")
_OPERANDS = ("p", "q", "r", "T", "⊥", "~p", "¬q", "(p -> q)", "(r | s & p)")


@pytest.mark.parametrize("seed", range(20))
def test_flat_operator_chains(seed):
    # Renders never leave nested -> bare; chains without parentheses test
    # precedence and associativity of all three connectives against each other.
    rng = random.Random(f"chain:{seed}")
    for _ in range(50):
        parts = [rng.choice(_OPERANDS)]
        for _ in range(rng.randint(1, 12)):
            parts += [_gap(rng), rng.choice(_BINARY), _gap(rng), rng.choice(_OPERANDS)]
        assert_same("".join(parts))


@pytest.mark.parametrize("levels", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("tail", ["", " & q", " q", " $", ")", " -> (q", " (r)"])
def test_nesting_around_the_limit(levels, tail):
    rng = random.Random(f"nest:{levels}:{tail}")
    for _ in range(10):
        openers = [rng.choice("(~¬") for _ in range(levels)]
        closers = [")" for o in reversed(openers) if o == "("]
        core = "".join(openers) + "p" + "".join(closers)
        assert_same(core + tail)
        assert_same("q & " + core + tail)


@pytest.mark.parametrize("limit", ["1", "2", "3", "0", "x"])
def test_around_the_letter_limit(monkeypatch, limit):
    monkeypatch.setenv("LOGICREL_MAX_LETTERS", limit)
    rng = random.Random(f"letters:{limit}")
    names = ["p", "q", "r", "s", "t"]
    for n in range(1, 6):
        for _ in range(10):
            used = [rng.choice(names[:n]) for _ in range(rng.randint(n, 2 * n))]
            text = " & ".join(used)
            assert_same(text)
            assert_same(f"~({text}) -> T")
            assert_same(text + " $")  # bad input wins over the letter limit
