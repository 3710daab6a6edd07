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

Parsing is one `findall` of the whole text by a compiled regular expression,
which gives the token strings alone, then one operator-precedence loop over
them with an operand stack and an operator stack; neither recurses, so time
is linear in the input length.  The loop reads each token's role from small
dicts keyed by its text.  Token kinds and positions are worked out only when
an error is raised, by a second scan that gives the same token sequence; a
ParseError reports the UTF-8 byte offset of the offending token.

The loop makes each node after its operands, so the order it makes them in is
the tree's post-order.  parse records that order and the letters in order of
first occurrence, and keeps both on the root it returns (formula.cache_walk),
so later walks of the query splice them in instead of walking the tree again.

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
    build,
    cache_walk,
    join_rope,
    subformulas_bottom_up,
)
from .limits import check_letters


class SyntaxStyle(Enum):
    ASCII = "ascii"
    UNICODE = "unicode"


# The token strings parse reads: "->", a word, or any other single character,
# each with the whitespace after it.  Tokens have the same extents as _SCAN's.
_TOKENS = re.compile(r"(->|[A-Za-z][A-Za-z0-9_]*|\S)\s*")

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
# Roles of token texts, in both spellings.  A token that none of these names
# is a letter if it starts lowercase, else an error; "" is the end sentinel.
_OPENS = {"~": _PREC_NOT, "¬": _PREC_NOT, "(": 0}
_STRENGTH = {"->": _PREC_IMP, "→": _PREC_IMP, "|": _PREC_OR, "∨": _PREC_OR, "&": _PREC_AND, "∧": _PREC_AND}
_BUILD = {_PREC_IMP: Imp, _PREC_OR: Or, _PREC_AND: And}
_CONSTANT = {"T": TOP, "⊤": TOP, "F": BOTTOM, "⊥": BOTTOM}
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

    One operator-precedence loop over the token strings, with an operand
    stack and an operator stack, so nothing here recurses.  An error rescans
    the text with _scan and is reported from the token at the same index.
    """
    tokens = _TOKENS.findall(text)
    tokens.append("")
    names: dict[str, Letter] = {}  # one Letter per distinct name
    order: list[Formula] = []  # every node as it is made, which is post-order
    made = order.append
    operands: list[Formula] = []  # left operand of each binary connective on ops
    ops: list[int] = []  # 0 for "(", else the binding strength of ~ or a connective
    depth = 0  # "(" and negations on ops
    i = 0
    while True:
        # Expecting an operand: prefix openers, then an atom.
        word = tokens[i]
        opens = _OPENS.get(word)
        while opens is not None:
            depth += 1
            if depth > MAX_NESTING:
                raise _bad_input(text, _scan(text), i) or LimitError(
                    f"formula nests deeper than {MAX_NESTING} levels"
                )
            ops.append(opens)
            i += 1
            word = tokens[i]
            opens = _OPENS.get(word)
        f = names.get(word)
        if f is None:
            f = _CONSTANT.get(word)
            if f is None:
                if not "a" <= word < "{":  # a word starting with a-z
                    raise _unexpected(text, _scan(text), i, _ATOM_STARTERS)
                f = names[word] = Letter(word)
        made(f)
        i += 1
        # Expecting an operator: close negations and groups, then a connective.
        while True:
            while ops and ops[-1] == _PREC_NOT:
                ops.pop()
                depth -= 1
                f = build(Not, (f,))
                made(f)
            # A negation left on ops sits under a "(", so depth > 0 now means a
            # "(" is open, and only connectives lie above the innermost one.
            word = tokens[i]
            strength = _STRENGTH.get(word)
            if strength:
                # -> is right-associative: an open -> stays open for the next.
                while ops and ops[-1] >= strength + (strength == _PREC_IMP):
                    f = build(_BUILD[ops.pop()], (operands.pop(), f))
                    made(f)
                ops.append(strength)
                operands.append(f)
                i += 1
                break
            if word == ")" and depth:
                while ops[-1]:
                    f = build(_BUILD[ops.pop()], (operands.pop(), f))
                    made(f)
                ops.pop()
                depth -= 1
                i += 1
            elif word == "" and not depth:
                while ops:
                    f = build(_BUILD[ops.pop()], (operands.pop(), f))
                    made(f)
                check_letters(len(names), "formula uses {} distinct letters")
                order.pop()  # the root; its cache must not refer to it
                cache_walk(f, order, tuple(names))
                return f
            else:
                raise _unexpected(text, _scan(text), i, _AFTER_OPERAND[depth > 0])


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
