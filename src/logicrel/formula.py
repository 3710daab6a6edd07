"""Formula AST and universe of letters.

Formulas are immutable trees over the connectives {T, F, ~, &, |, ->}.
Structural equality (``==``) is decidable syntax identity and is distinct
from logical equivalence, which lives in the equivalence module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Union

from .limits import check_letters

LETTER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class _Node:
    """Structural ==, hash() and repr() as folds over subformulas_bottom_up.

    The dataclass versions recurse through the fields, so they fail on formulas
    nested deeper than Python's recursion limit.  The post-order of (kind,
    letter name) pairs fixes the tree, since each kind fixes its child count.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(
            (type(g), g.name if type(g) is Letter else None) for g in subformulas_bottom_up(self)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        """The dataclass text, e.g. Not(child=Letter(name='p'))."""
        ropes: list[list] = []  # one per finished subformula, see join_rope
        for g in subformulas_bottom_up(self):
            names = [field.name for field in fields(g)]
            if type(g) is Letter:
                values = [repr(g.name)]
            else:
                values = ropes[len(ropes) - len(names):]
                del ropes[len(ropes) - len(names):]
            rope = [type(g).__qualname__, "("]
            for k, (name, value) in enumerate(zip(names, values)):
                rope += [", " if k else "", name, "=", value]
            ropes.append(rope + [")"])
        return join_rope(ropes[0])


@dataclass(frozen=True, eq=False, repr=False)
class Letter(_Node):
    name: str

    def __post_init__(self) -> None:
        if not LETTER_NAME.match(self.name):
            raise ValueError(f"invalid letter name {self.name!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Top(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Bottom(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Node):
    child: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, eq=False, repr=False)
class Imp(_Node):
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[Letter, Top, Bottom, Not, And, Or, Imp]

TOP = Top()
BOTTOM = Bottom()


def join_rope(rope: "str | list") -> str:
    """Concatenate a rope: a string, or a list of ropes, read left to right.

    A fold that builds each node's text from its children's ropes copies no
    text, and this one join writes each character once, so printing a long
    chain takes linear time, where concatenating per node would be quadratic.
    """
    pieces: list[str] = []
    todo = [rope]
    while todo:
        item = todo.pop()
        if type(item) is str:
            pieces.append(item)
        else:
            todo += item
    pieces.reverse()  # popping read the rope right to left
    return "".join(pieces)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.child,)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    if isinstance(f, Imp):
        return (f.antecedent, f.consequent)
    return ()


def subformulas_bottom_up(f: Formula) -> list[Formula]:
    """All subformulas in post-order (duplicates retained); f itself is last.

    The one walk over formulas, on an explicit stack: every other walker folds
    over this list, popping one value per child of each node off a value stack.
    """
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(children(g))
    out.reverse()  # node, right, left reversed is left, right, node
    return out


def letters(f: Formula) -> set[str]:
    """Set of letter names occurring in f; empty for constant formulas."""
    return {g.name for g in subformulas_bottom_up(f) if isinstance(g, Letter)}


def letter_sequence(f: Formula) -> list[str]:
    """Letter names in first-occurrence (left-to-right) order, deduplicated."""
    return list(dict.fromkeys(g.name for g in subformulas_bottom_up(f) if isinstance(g, Letter)))


def max_imp_depth(f: Formula) -> int:
    """Maximum nesting depth of implication nodes; 0 iff f is implication-free."""
    depths: list[int] = []
    for g in subformulas_bottom_up(f):
        inner = max((depths.pop() for _ in children(g)), default=0)
        depths.append(inner + isinstance(g, Imp))
    return depths[0]


@dataclass(frozen=True)
class Universe:
    """Ordered set of distinct letters; order fixes bit positions in interpretations."""

    letters: tuple[str, ...]

    def __init__(self, letters: "tuple[str, ...] | list[str]"):
        letters = tuple(letters)
        for name in letters:
            if not LETTER_NAME.match(name):
                raise ValueError(f"invalid letter name {name!r}")
        if len(set(letters)) != len(letters):
            raise ValueError(f"duplicate letters in universe {letters!r}")
        check_letters(len(letters), "universe has {} letters")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def of(cls, *fs: Formula) -> "Universe":
        """Union of the formulas' letters in first-occurrence order."""
        return cls(tuple(dict.fromkeys(name for f in fs for name in letter_sequence(f))))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.letters)}

    def position(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)
