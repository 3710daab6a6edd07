"""Formula AST and universe of letters.

Formulas are immutable trees over the connectives {T, F, ~, &, |, ->}.
Structural equality (dataclass ``==``) is decidable syntax identity and is
distinct from logical equivalence, which lives in the equivalence module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .errors import LimitError
from .limits import max_letters

LETTER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


@dataclass(frozen=True)
class Letter:
    name: str

    def __post_init__(self) -> None:
        if not LETTER_NAME.match(self.name):
            raise ValueError(f"invalid letter name {self.name!r}")


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    antecedent: "Formula"
    consequent: "Formula"


Formula = Union[Letter, Top, Bottom, Not, And, Or, Imp]

TOP = Top()
BOTTOM = Bottom()


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
        if len(letters) > max_letters():
            raise LimitError(
                f"universe has {len(letters)} letters, limit is {max_letters()}"
            )
        object.__setattr__(self, "letters", letters)

    @classmethod
    def of(cls, *fs: Formula) -> "Universe":
        """Union of the formulas' letters in first-occurrence order."""
        seen: list[str] = []
        for f in fs:
            for name in letter_sequence(f):
                if name not in seen:
                    seen.append(name)
        return cls(tuple(seen))

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
