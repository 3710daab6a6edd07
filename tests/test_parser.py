import copy
import pickle
import random
import re

import pytest
from hypothesis import given

from logicrel import formula
from logicrel.errors import LimitError, LogicError, ParseError
from logicrel.formula import And, Imp, Letter, Not, Or, TOP, BOTTOM, Universe
from logicrel.parser import _TOKENS, SyntaxStyle, _offset, parse, render
from logicrel.semantics import gen_random_formula

from reference_parser import _tokenize as reference_tokenize
from reference_parser import parse as reference_parse
from strategies import formulas

P, Q, R = Letter("p"), Letter("q"), Letter("r")


class TestParse:
    def test_paradox_shape(self):
        assert parse("~p -> (p -> q)") == Imp(Not(P), Imp(P, Q))

    def test_implication_is_right_associative(self):
        assert parse("p -> q -> p") == Imp(P, Imp(Q, P))

    def test_unicode_aliases(self):
        assert parse("¬p ∨ q") == Or(Not(P), Q)
        assert parse("⊤ ∧ ⊥") == And(TOP, BOTTOM)
        assert parse("p → q") == Imp(P, Q)

    def test_precedence_not_and_or_imp(self):
        assert parse("~p & q | r -> p") == Imp(Or(And(Not(P), Q), R), P)

    def test_and_or_left_associative(self):
        assert parse("p & q & r") == And(And(P, Q), R)
        assert parse("p | q | r") == Or(Or(P, Q), R)

    def test_whitespace_insensitive(self):
        assert parse("p->q") == parse("  p  ->   q ")

    def test_double_negation(self):
        assert parse("~~p") == Not(Not(P))

    def test_constants(self):
        assert parse("T") == TOP
        assert parse("F") == BOTTOM


class TestParseErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("p -> -> q")
        assert exc.value.offset == 5
        assert "letter" in exc.value.expected
        assert "'~'" in exc.value.expected

    def test_byte_offsets_count_utf8_bytes(self):
        # "¬" is 2 bytes and "∨" is 3, so the dangling end sits at byte 7.
        with pytest.raises(ParseError) as exc:
            parse("¬p ∨")
        assert exc.value.offset == 7

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as exc:
            parse("(p | q")
        assert "')'" in exc.value.expected

    def test_trailing_junk(self):
        with pytest.raises(ParseError) as exc:
            parse("p q")
        assert exc.value.offset == 2
        assert "end of input" in exc.value.expected

    def test_uppercase_word_is_not_a_letter(self):
        with pytest.raises(ParseError):
            parse("Tx")
        with pytest.raises(ParseError):
            parse("Foo & p")

    def test_stray_minus(self):
        with pytest.raises(ParseError) as exc:
            parse("p - q")
        assert exc.value.offset == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("p ? q")

    def test_letter_limit(self, monkeypatch):
        monkeypatch.setenv("LOGICREL_MAX_LETTERS", "2")
        parse("p & q")
        with pytest.raises(LimitError):
            parse("p & q & r")


_TOKEN_TEXTS = (
    "->", "→", "|", "∨", "&", "∧", "~", "¬", "T", "⊤", "F", "⊥", "(", ")",
    "p", "q2", "x_long_name",
)
_SPACES = (" ", "\t", "\u00a0", "\u3000")  # 1, 1, 2 and 3 UTF-8 bytes
_BAD_TEXTS = ("$", "-", "Xy", "é")  # each stops the tokenizer


def _mixed_source(rng, n_tokens):
    """Token texts joined by 1-3 mixed-width spaces, with each token's text and char position."""
    parts, tokens, pos = [], [], 0
    for _ in range(n_tokens):
        gap = "".join(rng.choice(_SPACES) for _ in range(rng.randint(1, 3)))
        token = rng.choice(_TOKEN_TEXTS)
        parts += [gap, token]
        tokens.append((token, pos + len(gap)))
        pos += len(gap) + len(token)
    return "".join(parts), tokens


def _utf8_offset(text, pos):
    return len(text[:pos].encode("utf-8"))


class TestByteOffsets:
    """Tokens carry char positions; an error turns its position into a UTF-8 byte offset."""

    @pytest.mark.parametrize("seed", range(20))
    def test_token_offsets_are_utf8_bytes(self, seed):
        rng = random.Random(seed)
        text, expected = _mixed_source(rng, rng.randint(1, 300))
        tokens = list(_TOKENS.finditer(text))
        assert [(m[1], m.start()) for m in tokens] == expected
        assert [_offset(text, m.start()) for m in tokens] == [_utf8_offset(text, pos) for _, pos in expected]
        assert _offset(text, len(text)) == len(text.encode("utf-8"))
        # An error raised at each token reports that token's offset: "?" in its
        # place is the first bad token, wherever the parse itself stops.
        for token, pos in expected:
            with pytest.raises(ParseError) as exc:
                parse(text[:pos] + "?" + text[pos + len(token):])
            assert str(exc.value).startswith("unexpected character '?' at offset ")
            assert exc.value.offset == _utf8_offset(text, pos)

    @pytest.mark.parametrize("seed", range(20))
    def test_error_offsets_are_utf8_bytes(self, seed):
        rng = random.Random(seed)
        text, tokens = _mixed_source(rng, rng.randint(1, 300))
        cut = rng.choice([pos for _, pos in tokens] + [len(text)])
        text = text[:cut] + " " + rng.choice(_BAD_TEXTS) + " " + text[cut:]
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == _utf8_offset(text, cut + 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_parser_error_offsets_are_utf8_bytes(self, seed):
        # Errors the parser raises, not the scanner: a valid formula spelled with
        # mixed-width spaces, cut short after an operator or followed by a letter.
        rng = random.Random(seed)
        f = gen_random_formula(6, Universe(("p", "q", "r")), seed)
        text = "".join(
            rng.choice(_SPACES) if ch == " " else ch
            for ch in render(f, rng.choice(list(SyntaxStyle))) + " -> ~p"
        )
        operators = [m.end() for m in re.finditer("->|→|[|∨&∧~¬(]", text)]
        cut = text[:rng.choice(operators)]
        with pytest.raises(ParseError) as exc:
            parse(cut)
        assert str(exc.value).startswith("unexpected end of input at offset ")
        assert exc.value.offset == len(cut.encode("utf-8"))
        followed = text + " q"
        with pytest.raises(ParseError) as exc:
            parse(followed)
        assert str(exc.value).startswith("unexpected 'q' at offset ")
        assert exc.value.offset == _utf8_offset(followed, len(followed) - 1)


_SOUP_TEXTS = _TOKEN_TEXTS + _BAD_TEXTS + ("Foo", "T2", "F_", "Tx", ">", "2", "_", "?", "pé", "pXy")


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except LogicError as e:
        return type(e), str(e), getattr(e, "offset", None), getattr(e, "expected", None)


def _parses_as_the_reference(text):
    """parse and the reference parser give the same formula or the same error.

    Where the reference's character-by-character scan accepts every token, its
    token texts are the ones parse reads.
    """
    assert _outcome(parse, text) == _outcome(reference_parse, text), text
    try:
        scanned = [token.text for token in reference_tokenize(text)[:-1]]
    except ParseError:
        return
    assert _TOKENS.findall(text) == scanned, text


class TestTokenStrings:
    """parse reads the token strings of _TOKENS; errors re-read its matches at the same index."""

    @pytest.mark.parametrize("seed", range(20))
    def test_token_strings_match_the_scan(self, seed):
        rng = random.Random(f"strings:{seed}")
        for _ in range(50):
            gaps = ["".join(rng.choice(_SPACES) for _ in range(rng.randint(0, 3)))
                    for _ in range(rng.randint(0, 30) + 1)]
            _parses_as_the_reference(gaps[0] + "".join(rng.choice(_SOUP_TEXTS) + gap for gap in gaps[1:]))

    @pytest.mark.parametrize("text", [
        "T2", "F_", "Tx", "->x", "-", ">", "é", "pé", "_", "2",
        "\u00a0p", "p\u00a0", "\u3000p & q\u3000", "\u00a0\u3000", "\u3000T2\u00a0", "p -\u00a0> q",
    ])
    def test_edge_inputs(self, text):
        _parses_as_the_reference(text)

    def test_parse_builds_no_node_through_a_constructor(self, monkeypatch):
        rng = random.Random(5)
        f = gen_random_formula(14, Universe(("p", "q", "r", "s")), 5)  # 1367 characters in ASCII
        unicode = {"->": "→", "|": "∨", "&": "∧", "~": "¬", "T": "⊤", "F": "⊥"}
        text = re.sub(r"->|[|&~TF]", lambda m: unicode[m[0]] if rng.random() < 0.5 else m[0], render(f))
        assert len(text) > 1000 and "→" in text and "->" in text

        def refuse(self, *children, **named):
            raise AssertionError("a public constructor was called")

        monkeypatch.setattr(formula._Connective, "__init__", refuse)
        with pytest.raises(AssertionError):
            Not(TOP)
        assert parse(text) == f

    def test_built_nodes_behave_as_constructed_ones(self):
        pairs = [
            ("~p", Not(P)),
            ("p & q", And(P, Q)),
            ("q | ~T", Or(Q, Not(TOP))),
            ("p & F -> q", Imp(And(P, BOTTOM), Q)),
        ]
        for text, tree in pairs:
            root = parse(text)
            assert type(root) is type(tree) and len(root.children) == len(tree.children)
            for built, made in [(root, tree), *zip(root.children, tree.children)]:
                assert type(built) is type(made) and built.children == made.children
                assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
                assert pickle.dumps(built) == pickle.dumps(made)
                assert pickle.loads(pickle.dumps(built)) == made
                assert copy.deepcopy(built) == made


class TestRender:
    def test_precedence_drops_parens(self):
        assert render(Imp(And(P, Q), P)) == "p & q -> p"
        assert render(Or(P, And(Q, R))) == "p | q & r"

    def test_nested_implication_is_parenthesized(self):
        assert render(Imp(Not(P), Imp(P, Q)), SyntaxStyle.UNICODE) == "¬p → (p → q)"
        assert render(Imp(Not(P), Imp(P, Q))) == "~p -> (p -> q)"
        assert render(Imp(Imp(P, Q), R)) == "(p -> q) -> r"

    def test_parens_preserve_reassociated_structure(self):
        assert render(Or(P, Or(Q, R))) == "p | (q | r)"
        assert render(Or(Or(P, Q), R)) == "p | q | r"
        assert render(And(P, Or(Q, R))) == "p & (q | r)"

    def test_negation(self):
        assert render(Not(Not(P))) == "~~p"
        assert render(Not(Imp(P, Q))) == "~(p -> q)"
        assert render(Not(TOP), SyntaxStyle.UNICODE) == "¬⊤"

    def test_unicode_glyphs(self):
        f = parse("~p & q | T -> F")
        assert render(f, SyntaxStyle.UNICODE) == "¬p ∧ q ∨ ⊤ → ⊥"

    def test_non_formula_is_refused(self):
        for f in ("p", Not("p")):
            with pytest.raises(TypeError) as exc:
                render(f)
            assert str(exc.value) == "not a formula: 'p'"


# Each connective and constant: a formula of it, its text with {} for the
# spelling, the ASCII and Unicode spellings, and a text that stops where the
# token is one of those expected.
_SPELLED = [
    (Imp(P, Q), "p {} q", "->", "→", "p q"),
    (Or(P, Q), "p {} q", "|", "∨", "p q"),
    (And(P, Q), "p {} q", "&", "∧", "p q"),
    (Not(P), "{}p", "~", "¬", ""),
    (TOP, "{}", "T", "⊤", ""),
    (BOTTOM, "{}", "F", "⊥", ""),
]


@pytest.mark.parametrize(
    "node, template, ascii, unicode, stop", _SPELLED, ids=[type(row[0]).__name__ for row in _SPELLED]
)
def test_spellings_round_trip(node, template, ascii, unicode, stop):
    assert parse(template.format(ascii)) == parse(template.format(unicode)) == node
    assert render(node, SyntaxStyle.ASCII) == template.format(ascii)
    assert render(node, SyntaxStyle.UNICODE) == template.format(unicode)
    with pytest.raises(ParseError) as exc:
        parse(stop)
    assert f"'{ascii}'" in exc.value.expected
    assert f"'{unicode}'" not in exc.value.expected


@given(formulas())
def test_roundtrip_ascii(f):
    assert parse(render(f, SyntaxStyle.ASCII)) == f


@given(formulas())
def test_roundtrip_unicode(f):
    assert parse(render(f, SyntaxStyle.UNICODE)) == f
