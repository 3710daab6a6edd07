import random
import re

import pytest
from hypothesis import given

from logicrel.errors import LimitError, ParseError
from logicrel.formula import And, Imp, Letter, Not, Or, TOP, BOTTOM, Universe
from logicrel.parser import SyntaxStyle, _offset, _scan, parse, render
from logicrel.semantics import gen_random_formula

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


_KINDS = {
    "->": "IMP", "→": "IMP", "|": "OR", "∨": "OR", "&": "AND", "∧": "AND", "~": "NOT", "¬": "NOT",
    "T": "TOP", "⊤": "TOP", "F": "BOTTOM", "⊥": "BOTTOM", "(": "LPAREN", ")": "RPAREN",
}


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
        tokens = _scan(text)
        assert tokens[:-1] == [(_KINDS.get(token, "LETTER"), token, pos) for token, pos in expected]
        assert tokens[-1] == ("EOF", "", len(text))
        assert [_offset(text, pos) for _, _, pos in tokens] == [
            _utf8_offset(text, pos) for _, pos in expected
        ] + [len(text.encode("utf-8"))]

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


@given(formulas())
def test_roundtrip_ascii(f):
    assert parse(render(f, SyntaxStyle.ASCII)) == f


@given(formulas())
def test_roundtrip_unicode(f):
    assert parse(render(f, SyntaxStyle.UNICODE)) == f
