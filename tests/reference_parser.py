"""The recursive-descent parser that logicrel.parser replaced, kept as a reference.

Its tokenizer, parser and parse() are copied unchanged from the version before
the compiled scanner and the iterative precedence parser.  tests/test_parse_diff.py
checks that both give the same formula, or the same error, on every input.
It recurses once per "(" or negation level, which MAX_NESTING bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from logicrel.errors import LimitError, ParseError
from logicrel.formula import BOTTOM, TOP, And, Formula, Imp, Letter, Not, Or, letters
from logicrel.limits import max_letters

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_LETTER_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

_SINGLE_GLYPHS = {
    "→": "IMP",
    "∨": "OR",
    "|": "OR",
    "∧": "AND",
    "&": "AND",
    "¬": "NOT",
    "~": "NOT",
    "⊤": "TOP",
    "⊥": "BOTTOM",
    "(": "LPAREN",
    ")": "RPAREN",
}

# Canonical spellings used in expected-token sets of parse errors.
_SPELLING = {
    "IMP": "'->'",
    "OR": "'|'",
    "AND": "'&'",
    "NOT": "'~'",
    "TOP": "'T'",
    "BOTTOM": "'F'",
    "LPAREN": "'('",
    "RPAREN": "')'",
    "LETTER": "letter",
    "EOF": "end of input",
}

_ATOM_STARTERS = frozenset(
    _SPELLING[k] for k in ("NOT", "TOP", "BOTTOM", "LPAREN", "LETTER")
)

# Each "(" and each negation opens one level; the recursive descent below
# stays well inside Python's recursion limit up to this depth.
MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int  # UTF-8 byte offset into the source


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    # offset is the UTF-8 byte offset of text[mark], advanced by encoding only
    # the text since the previous token, so tokenizing stays linear.
    mark = offset = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        offset += len(text[mark:pos].encode("utf-8"))
        mark = pos
        if ch == "-":
            if text.startswith("->", pos):
                tokens.append(_Token("IMP", "->", offset))
                pos += 2
                continue
            raise ParseError(f"stray {ch!r}", offset, frozenset({_SPELLING['IMP']}))
        if ch in _SINGLE_GLYPHS:
            tokens.append(_Token(_SINGLE_GLYPHS[ch], ch, offset))
            pos += 1
            continue
        word = _WORD.match(text, pos)
        if word:
            name = word.group()
            if name == "T":
                tokens.append(_Token("TOP", name, offset))
            elif name == "F":
                tokens.append(_Token("BOTTOM", name, offset))
            elif _LETTER_WORD.match(name):
                tokens.append(_Token("LETTER", name, offset))
            else:
                raise ParseError(
                    f"invalid letter name {name!r} (letters start lowercase)", offset
                )
            pos = word.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", offset)
    tokens.append(_Token("EOF", "", offset + len(text[mark:].encode("utf-8"))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def open_level(self) -> None:
        self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LimitError(f"formula nests deeper than {MAX_NESTING} levels")

    def fail(self, expected: frozenset[str]) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else f"{tok.text!r}"
        return ParseError(f"unexpected {what}", tok.offset, expected)

    def imp(self) -> Formula:
        # A loop, not a call per IMP, so a flat chain does not nest Python
        # calls; folding from the right makes -> right-associative.
        operands = [self.disjunction()]
        while self.peek().kind == "IMP":
            self.advance()
            operands.append(self.disjunction())
        f = operands.pop()
        while operands:
            f = Imp(operands.pop(), f)
        return f

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "OR":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.peek().kind == "AND":
            self.advance()
            left = And(left, self.negation())
        return left

    def negation(self) -> Formula:
        if self.peek().kind == "NOT":
            self.open_level()
            inner = self.negation()
            self.depth -= 1
            return Not(inner)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LETTER":
            self.advance()
            return Letter(tok.text)
        if tok.kind == "TOP":
            self.advance()
            return TOP
        if tok.kind == "BOTTOM":
            self.advance()
            return BOTTOM
        if tok.kind == "LPAREN":
            self.open_level()
            inner = self.imp()
            if self.peek().kind != "RPAREN":
                raise self.fail(
                    frozenset({_SPELLING[k] for k in ("RPAREN", "IMP", "OR", "AND")})
                )
            self.advance()
            self.depth -= 1
            return inner
        raise self.fail(_ATOM_STARTERS)


def parse(text: str) -> Formula:
    """Parse per the module grammar; whitespace between tokens is ignored."""
    parser = _Parser(_tokenize(text))
    f = parser.imp()
    if parser.peek().kind != "EOF":
        raise parser.fail(
            frozenset({_SPELLING[k] for k in ("IMP", "OR", "AND", "EOF")})
        )
    used = len(letters(f))
    if used > max_letters():
        raise LimitError(f"formula uses {used} distinct letters, limit is {max_letters()}")
    return f
