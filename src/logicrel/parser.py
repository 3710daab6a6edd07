"""Text to Formula and back.

Grammar (EBNF), loosest to tightest binding, with -> right-associative and
& | left-associative:

    formula := imp
    imp     := or ( IMP imp )?
    or      := and ( OR and )*
    and     := neg ( AND neg )*
    neg     := NOT neg | atom
    atom    := LETTER | TOP | BOTTOM | "(" formula ")"

Each connective and constant has an ASCII and a Unicode spelling, which parse
accepts interchangeably; the table _SPELLINGS below lists them (IMP is `->` or
`→`).  Letters are lowercase-initial identifiers, so the uppercase constant
tokens stay unambiguous.

Parsing is one `findall` of the whole text by a compiled regular expression,
which gives the token strings alone, then one operator-precedence loop over
them with an operator stack; neither recurses, so time is linear in the input
length.  The loop reads each token's role from small dicts keyed by its text,
built at import from _SPELLINGS.  Token positions are worked out only when an
error is raised: _error runs the same regular expression again with
`finditer`, whose matches are the same tokens, and a ParseError reports the
UTF-8 byte offset of the offending token.

The loop emits each subformula's code after its operands', so what it emits
is the formula's program (formula.program): its post-order as small ints, a
letter as its index in the letters in order of first occurrence and each
constant and connective as its code in formula.CODES.  parse builds no node:
it returns a leaf itself, and otherwise a root that holds the program and
builds its children only when something reads them (formula.parsed_root).

Nesting depth is part of the input contract, not a guard for the Python
stack: each "(" and each negation opens one level, and a formula nested
deeper than MAX_NESTING levels is refused with a LimitError (exit code 3).
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import LimitError, LogicError, ParseError
from .formula import (
    CODES,
    And,
    Bottom,
    Formula,
    Imp,
    Letter,
    Not,
    Or,
    Top,
    join_rope,
    parsed_root,
    subformulas_bottom_up,
)
from .limits import check_letters


class SyntaxStyle(Enum):
    ASCII = "ascii"
    UNICODE = "unicode"


# Each connective and constant, spelled in ASCII and in Unicode: one column per
# SyntaxStyle, in its order.  Error messages quote the ASCII spelling.
_SPELLINGS = {
    Imp: ("->", "→"),
    Or: ("|", "∨"),
    And: ("&", "∧"),
    Not: ("~", "¬"),
    Top: ("T", "⊤"),
    Bottom: ("F", "⊥"),
}

# The token strings parse reads: IMP's ASCII spelling, the one spelling that is
# neither a word nor a single character; a word; or any other single character;
# each with the whitespace after it.
_TOKENS = re.compile(r"(%s|[A-Za-z][A-Za-z0-9_]*|\S)\s*" % re.escape(_SPELLINGS[Imp][0]))

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
# Binding strength of each connective, and the strength a left operand needs to
# go bare in render; a right operand must always bind strictly tighter.
_BINARY = {
    And: (_PREC_AND, _PREC_AND),
    Or: (_PREC_OR, _PREC_OR),
    Imp: (_PREC_IMP, _PREC_IMP + 1),
}
# Roles of token texts, in both spellings.  A token that none of these names
# is a letter if it starts lowercase, else an error; "" is the end sentinel.
_OPENS = {**dict.fromkeys(_SPELLINGS[Not], _PREC_NOT), "(": 0}
_STRENGTH = {text: prec for kind, (prec, _) in _BINARY.items() for text in _SPELLINGS[kind]}
_CODE = {prec: CODES[kind] for kind, (prec, _) in _BINARY.items()}
_CONSTANT = {text: CODES[kind] for kind in (Top, Bottom) for text in _SPELLINGS[kind]}
_NOT = CODES[Not]


def _quoted(kind: type) -> str:
    """How an expected-token set names a connective or constant."""
    return repr(_SPELLINGS[kind][0])


# Expected-token sets of parse errors.
_END = "end of input"
_CONNECTIVES = frozenset(map(_quoted, _BINARY))
_ATOM_STARTERS = frozenset({*map(_quoted, (Not, Top, Bottom)), "'('", "letter"})
_AFTER_OPERAND = {  # keyed by whether a "(" is open
    True: _CONNECTIVES | {"')'"},
    False: _CONNECTIVES | {_END},
}


def _offset(text: str, pos: int) -> int:
    """UTF-8 byte offset of the character at pos; computed only for an error."""
    return len(text[:pos].encode("utf-8"))


def _error(text: str, i: int, expected: frozenset[str] | None) -> LogicError:
    """The error that stops parse at token i; expected is None past MAX_NESTING.

    Bad input anywhere is reported before a parse or nesting error.  parse has
    read every token before i, so the first bad token at or after i is the
    first of the whole input; failing that, the error is the nesting limit or
    the token at i.  The tokens are _TOKENS's matches again, with positions.
    """
    tokens = list(_TOKENS.finditer(text))
    for m in tokens[i:]:
        word = m[1]
        if "a" <= word < "{" or word in _OPENS or word in _STRENGTH or word in _CONSTANT or word == ")":
            continue  # a letter, or a token with a role
        offset = _offset(text, m.start())
        if word == "-":
            return ParseError(f"stray {word!r}", offset, frozenset({_quoted(Imp)}))
        if "A" <= word < "[":
            return ParseError(f"invalid letter name {word!r} (letters start lowercase)", offset)
        return ParseError(f"unexpected character {word!r}", offset)
    if expected is None:
        return LimitError(f"formula nests deeper than {MAX_NESTING} levels")
    if i < len(tokens):
        return ParseError(f"unexpected {tokens[i][1]!r}", _offset(text, tokens[i].start()), expected)
    return ParseError(f"unexpected {_END}", _offset(text, len(text)), expected)


def parse(text: str) -> Formula:
    """Parse per the module grammar; whitespace between tokens is ignored.

    One operator-precedence loop over the token strings, with an operator
    stack, so nothing here recurses.  An error is built by _error from the
    index of the token the loop stopped at.
    """
    tokens = _TOKENS.findall(text)
    tokens.append("")
    names: dict[str, int] = {}  # each distinct letter's code, in first-occurrence order
    codes: list[int] = []  # the program, in post-order
    emit = codes.append
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
                raise _error(text, i, None)
            ops.append(opens)
            i += 1
            word = tokens[i]
            opens = _OPENS.get(word)
        code = names.get(word)
        if code is None:
            code = _CONSTANT.get(word)
            if code is None:
                if not "a" <= word < "{":  # a word starting with a-z
                    raise _error(text, i, _ATOM_STARTERS)
                code = names[word] = len(names)
        emit(code)
        i += 1
        # Expecting an operator: close negations and groups, then a connective.
        while True:
            while ops and ops[-1] == _PREC_NOT:
                ops.pop()
                depth -= 1
                emit(_NOT)
            # A negation left on ops sits under a "(", so depth > 0 now means a
            # "(" is open, and only connectives lie above the innermost one.
            word = tokens[i]
            strength = _STRENGTH.get(word)
            if strength:
                # -> is right-associative: an open -> stays open for the next.
                while ops and ops[-1] >= strength + (strength == _PREC_IMP):
                    emit(_CODE[ops.pop()])
                ops.append(strength)
                i += 1
                break
            if word == ")" and depth:
                while ops[-1]:
                    emit(_CODE[ops.pop()])
                ops.pop()
                depth -= 1
                i += 1
            elif word == "" and not depth:
                while ops:
                    emit(_CODE[ops.pop()])
                check_letters(len(names), "formula uses {} distinct letters")
                return parsed_root(codes, tuple(names))
            else:
                raise _error(text, i, _AFTER_OPERAND[depth > 0])


# Each style's spelling of each connective and constant, keyed by node class.
_GLYPHS = {
    style: {kind: spellings[column] for kind, spellings in _SPELLINGS.items()}
    for column, style in enumerate(SyntaxStyle)
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
        elif kind is Top or kind is Bottom:
            stack.append((g[kind], _PREC_ATOM))
        elif kind is Not:
            stack[-1] = ([g[Not], _wrap(stack[-1], _PREC_NOT)], _PREC_NOT)
        else:
            prec, left_needs = _BINARY[kind]
            right = _wrap(stack.pop(), prec + 1)
            stack[-1] = ([_wrap(stack[-1], left_needs), f" {g[kind]} ", right], prec)
    return join_rope(stack[0][0])
