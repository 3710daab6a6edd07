"""Text to Formula and back.

Grammar (EBNF), loosest to tightest binding, with -> right-associative and
& | left-associative:

    formula := imp
    imp     := or ( IMP imp )?
    or      := and ( OR and )*
    and     := neg ( AND neg )*
    neg     := NOT neg | atom
    atom    := LETTER | TOP | BOTTOM | "(" formula ")"

Tokens accept ASCII and Unicode spellings interchangeably:
IMP = `->` | `→`, OR = `|` | `∨`, AND = `&` | `∧`, NOT = `~` | `¬`,
TOP = `T` | `⊤`, BOTTOM = `F` | `⊥`.  Letters are lowercase-initial
identifiers, so the uppercase constant tokens stay unambiguous.

Parsing is one scan of the whole text by a compiled regular expression, then
one operator-precedence loop over the tokens with an operand stack and an
operator stack; neither recurses, so time is linear in the input length.  A
ParseError reports the UTF-8 byte offset of the offending token, worked out
only when the error is raised.

Nesting depth is part of the input contract, not a guard for the Python
stack: each "(" and each negation opens one level, and a formula nested
deeper than MAX_NESTING levels is refused with a LimitError (exit code 3).
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import LimitError, ParseError
from .formula import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Formula,
    Imp,
    Letter,
    Not,
    Or,
    Top,
    join_rope,
    subformulas_bottom_up,
)
from .limits import check_letters


class SyntaxStyle(Enum):
    ASCII = "ascii"
    UNICODE = "unicode"


# One alternation, matched in C: the group that matched names the token kind,
# and the whitespace after a token is matched with it.  Every character but
# whitespace starts some group; STRAY, WORD and CHAR are the kinds of bad input.
_SCAN = re.compile(
    r"(?:(?P<IMP>->|→)|(?P<OR>[|∨])|(?P<AND>[&∧])|(?P<NOT>[~¬])|(?P<LPAREN>\()|(?P<RPAREN>\))"
    r"|(?P<LETTER>[a-z][A-Za-z0-9_]*)|(?P<TOP>T(?![A-Za-z0-9_])|⊤)|(?P<BOTTOM>F(?![A-Za-z0-9_])|⊥)"
    r"|(?P<STRAY>-)|(?P<WORD>[A-Z][A-Za-z0-9_]*)|(?P<CHAR>\S))\s*"
)

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


def _expecting(*kinds: str) -> frozenset[str]:
    return frozenset(_SPELLING[k] for k in kinds)


_ATOM_STARTERS = _expecting("NOT", "TOP", "BOTTOM", "LPAREN", "LETTER")
_AFTER_OPERAND = {  # keyed by whether a "(" is open
    True: _expecting("RPAREN", "IMP", "OR", "AND"),
    False: _expecting("IMP", "OR", "AND", "EOF"),
}

# The documented depth contract: each "(" and each negation opens one level,
# and a formula nested deeper than this is refused with a LimitError (exit 3).
# The parser itself has no depth bound; the limit is part of the CLI contract.
MAX_NESTING = 100

# Binding strength.  The parser's operator stack holds these, with 0 for an
# open "(", and render compares them to place parentheses.
_PREC_ATOM = 5
_PREC_NOT = 4
_PREC_AND = 3
_PREC_OR = 2
_PREC_IMP = 1
_STRENGTH = {"IMP": _PREC_IMP, "OR": _PREC_OR, "AND": _PREC_AND}
_BUILD = {_PREC_IMP: Imp, _PREC_OR: Or, _PREC_AND: And}
_CONSTANT = {"TOP": TOP, "BOTTOM": BOTTOM}
_BAD = {  # message and expected set of each kind of bad input
    "STRAY": ("stray {!r}", _expecting("IMP")),
    "WORD": ("invalid letter name {!r} (letters start lowercase)", frozenset()),
    "CHAR": ("unexpected character {!r}", frozenset()),
}

Token = tuple[str, str, int]  # (kind, text, char position)


def _scan(text: str) -> list[Token]:
    """Every token of text, then ("EOF", "", len(text)); bad input is a token too."""
    # finditer skips the whitespace before the first token.
    tokens = [(m.lastgroup, m[m.lastgroup], m.start()) for m in _SCAN.finditer(text)]
    tokens.append(("EOF", "", len(text)))
    return tokens


def _offset(text: str, pos: int) -> int:
    """UTF-8 byte offset of the character at pos; computed only for an error."""
    return len(text[:pos].encode("utf-8"))


def _bad_input(text: str, tokens: list[Token], i: int) -> ParseError | None:
    """The error of the first bad token at or after tokens[i], if there is one.

    The parser has read every token before i, so this is the first bad token of
    the whole input.  Bad input anywhere is reported before a parse or nesting
    error, so this wins over the error found at i.
    """
    for kind, word, pos in tokens[i:]:
        if kind in _BAD:
            message, expected = _BAD[kind]
            return ParseError(message.format(word), _offset(text, pos), expected)
    return None


def _unexpected(text: str, tokens: list[Token], i: int, expected: frozenset[str]) -> ParseError:
    kind, word, pos = tokens[i]
    what = "end of input" if kind == "EOF" else f"{word!r}"
    return _bad_input(text, tokens, i) or ParseError(
        f"unexpected {what}", _offset(text, pos), expected
    )


def parse(text: str) -> Formula:
    """Parse per the module grammar; whitespace between tokens is ignored.

    One operator-precedence loop over the scanned tokens, with an operand
    stack and an operator stack, so nothing here recurses.
    """
    tokens = _scan(text)
    names: dict[str, Letter] = {}  # one Letter per distinct name
    operands: list[Formula] = []  # left operand of each binary connective on ops
    ops: list[int] = []  # 0 for "(", else the binding strength of ~ or a connective
    depth = 0  # "(" and negations on ops
    i = 0
    while True:
        # Expecting an operand: prefix openers, then an atom.
        kind, word, _ = tokens[i]
        while kind == "NOT" or kind == "LPAREN":
            depth += 1
            if depth > MAX_NESTING:
                raise _bad_input(text, tokens, i) or LimitError(
                    f"formula nests deeper than {MAX_NESTING} levels"
                )
            ops.append(_PREC_NOT if kind == "NOT" else 0)
            i += 1
            kind, word, _ = tokens[i]
        if kind == "LETTER":
            f = names.get(word)
            if f is None:
                f = names[word] = Letter(word)
        elif kind in _CONSTANT:
            f = _CONSTANT[kind]
        else:
            raise _unexpected(text, tokens, i, _ATOM_STARTERS)
        i += 1
        # Expecting an operator: close negations and groups, then a connective.
        while True:
            while ops and ops[-1] == _PREC_NOT:
                ops.pop()
                depth -= 1
                f = Not(f)
            # A negation left on ops sits under a "(", so depth > 0 now means a
            # "(" is open, and only connectives lie above the innermost one.
            kind = tokens[i][0]
            strength = _STRENGTH.get(kind)
            if strength:
                # -> is right-associative: an open -> stays open for the next.
                while ops and ops[-1] >= strength + (kind == "IMP"):
                    f = _BUILD[ops.pop()](operands.pop(), f)
                ops.append(strength)
                operands.append(f)
                i += 1
                break
            if kind == "RPAREN" and depth:
                while ops[-1]:
                    f = _BUILD[ops.pop()](operands.pop(), f)
                ops.pop()
                depth -= 1
                i += 1
            elif kind == "EOF" and not depth:
                while ops:
                    f = _BUILD[ops.pop()](operands.pop(), f)
                check_letters(len(names), "formula uses {} distinct letters")
                return f
            else:
                raise _unexpected(text, tokens, i, _AFTER_OPERAND[depth > 0])


_GLYPHS = {
    SyntaxStyle.ASCII: {"not": "~", "and": "&", "or": "|", "imp": "->", "top": "T", "bottom": "F"},
    SyntaxStyle.UNICODE: {"not": "¬", "and": "∧", "or": "∨", "imp": "→", "top": "⊤", "bottom": "⊥"},
}

# Glyph, binding strength, and the strength a left operand needs to go bare;
# a right operand must always bind strictly tighter than its connective.
_BINARY = {
    And: ("and", _PREC_AND, _PREC_AND),
    Or: ("or", _PREC_OR, _PREC_OR),
    Imp: ("imp", _PREC_IMP, _PREC_IMP + 1),
}


def _wrap(item: tuple[str | list, int], needs: int) -> str | list:
    rope, prec = item
    return ["(", rope, ")"] if prec < needs else rope


def render(f: Formula, style: SyntaxStyle = SyntaxStyle.ASCII) -> str:
    """Minimal-parentheses text that reparses to a structurally equal formula.

    The one extra pair: a nested implication is always parenthesized, on either
    side, so chains read the way they group instead of leaning on the grammar's
    right-associativity.
    """
    g = _GLYPHS[style]
    stack: list[tuple[str | list, int]] = []  # (rope, binding strength) per rendered operand
    for node in subformulas_bottom_up(f):
        kind = type(node)
        if kind is Letter:
            stack.append((node.name, _PREC_ATOM))
        elif kind is Top:
            stack.append((g["top"], _PREC_ATOM))
        elif kind is Bottom:
            stack.append((g["bottom"], _PREC_ATOM))
        elif kind is Not:
            stack[-1] = ([g["not"], _wrap(stack[-1], _PREC_NOT)], _PREC_NOT)
        else:
            glyph, prec, left_needs = _BINARY[kind]
            right = _wrap(stack.pop(), prec + 1)
            stack[-1] = ([_wrap(stack[-1], left_needs), f" {g[glyph]} ", right], prec)
    return join_rope(stack[0][0])
