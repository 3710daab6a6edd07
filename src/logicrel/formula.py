"""Formula AST and universe of letters.

Formulas are immutable trees over the connectives {T, F, ~, &, |, ->}; each node
holds its subformulas in one tuple, `children`.  Structural equality (``==``) is
syntax identity, distinct from logical equivalence (the equivalence module).

A connective that `parse` returned also holds its tree's post-order and
letters, so that the one walk, `subformulas_bottom_up`, does not descend into
a parsed operand again for the universe or any table of a query (`cache_walk`).
The cached order leaves out the root, so nothing in it refers back to the node
that holds it: a parsed tree has no reference cycle and is freed by reference
counting alone.  No other node holds a walk: not TOP, BOTTOM or a Letter,
which may be shared, not a parsed tree's inner nodes, which would cost memory
per node times depth, and not a node made by the constructors, by unpickling
or by copying.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterator, Union

from .limits import check_letters

LETTER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class _Node:
    """Immutability, pickling, and ==, hash() and repr() as folds over subformulas_bottom_up.

    Each kind names its fields once, in __match_args__.  The folds work at any
    nesting depth, where recursing through the fields would not.  The post-order
    of (kind, letter name) pairs fixes the tree: each kind fixes its child count.
    """

    __slots__ = ()
    children: "tuple[Formula, ...]" = ()  # a leaf's; a connective stores its own
    _walk: "tuple[list[Formula], tuple[str, ...]] | None" = None  # a leaf's; see cache_walk for a connective's
    __match_args__: "tuple[str, ...]" = ()

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        """Rebuild from the fields; the default would set each slot, which __setattr__ refuses."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def _key(self) -> tuple:
        return tuple((type(g), getattr(g, "name", None)) for g in subformulas_bottom_up(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        """The constructor text with field names, e.g. Not(child=Letter(name='p'))."""
        ropes: list[list] = []  # one per finished subformula, see join_rope
        for g in subformulas_bottom_up(self):
            first = len(ropes) - len(g.children)  # a leaf pops no ropes: its fields are its values
            values = (ropes[first:] if g.children
                      else [repr(getattr(g, name)) for name in g.__match_args__])
            del ropes[first:]
            rope = [type(g).__qualname__, "("]
            for k, (name, value) in enumerate(zip(g.__match_args__, values)):
                rope += [", " if k else "", name, "=", value]
            ropes.append(rope + [")"])
        return join_rope(ropes[0])


class Letter(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        if not LETTER_NAME.match(name):
            raise ValueError(f"invalid letter name {name!r}")
        object.__setattr__(self, "name", name)


class Top(_Node):
    __slots__ = ()


class Bottom(_Node):
    __slots__ = ()


class _Connective(_Node):
    """A node whose fields are its children, kept in one tuple and read by name."""

    __slots__ = ("children", "_walk")

    def __init_subclass__(cls) -> None:
        for k, name in enumerate(cls.__match_args__):
            setattr(cls, name, property(lambda self, k=k: self.children[k]))

    def __init__(self, *children: "Formula", **named: "Formula") -> None:
        fields = self.__match_args__
        if named:  # keywords fill the fields after the positional ones
            children += tuple(named.pop(name) for name in fields[len(children):] if name in named)
        if named or len(children) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_walk", None)


class Not(_Connective):
    __slots__ = ()
    __match_args__ = ("child",)


class And(_Connective):
    __slots__ = ()
    __match_args__ = ("left", "right")


class Or(_Connective):
    __slots__ = ()
    __match_args__ = ("left", "right")


class Imp(_Connective):
    __slots__ = ()
    __match_args__ = ("antecedent", "consequent")


Formula = Union[Letter, Top, Bottom, Not, And, Or, Imp]

TOP = Top()
BOTTOM = Bottom()

_set_children = _Connective.children.__set__
_set_walk = _Connective._walk.__set__


def build(kind: "type[_Connective]", children: "tuple[Formula, ...]") -> "Formula":
    """A node of connective `kind` over `children`, trusted to be one formula per field.

    For trusted internal callers only, such as the parser: it is not part of
    the `logicrel` API and is absent from `logicrel.__all__`. It skips the
    public constructors' argument binding and checks, so it costs about half
    as much per node, but nothing stops a wrong count. `build(And, (p,))`
    breaks the rule `_Node._key` relies on, that each kind fixes its child
    count, so such a node can compare and hash equal to a different tree,
    and its `.right` raises `IndexError`.
    """
    node = object.__new__(kind)
    _set_children(node, children)
    _set_walk(node, None)
    return node


def cache_walk(root: "Formula", order: "list[Formula]", names: "tuple[str, ...]") -> None:
    """Keep a parsed tree's post-order and letters on its root, if the root is a connective.

    For the parser only, like `build`, and absent from `logicrel.__all__`.
    `order` is the tree's post-order, which ends with the root; the cache
    keeps it without the root, so that it refers to nothing that refers back
    to the root.  `names` are the letters in first-occurrence order.
    """
    if isinstance(root, _Connective):
        order.pop()
        _set_walk(root, (order, names))


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


def subformulas_bottom_up(f: Formula) -> list[Formula]:
    """All subformulas in post-order (duplicates retained); f itself is last.

    The one walk over formulas, on an explicit stack.  Every other walker
    folds over this list, popping one value per child of each node off a
    value stack.  A root that `parse` returned holds its tree's post-order
    (see `cache_walk`), so the walk splices that in and does not descend into
    it: a query that combines parsed operands, like an `audit` schema, visits
    only the nodes above them.  The cached order leaves out that root, so it
    holds no reference cycle.  Other trees, built by the constructors, by
    unpickling or by copying, are walked node by node.
    """
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        out.append(g)
        try:
            cached = g._walk
        except AttributeError:
            raise TypeError(f"not a formula: {g!r}") from None
        if cached is not None:
            out += reversed(cached[0])
        else:
            stack.extend(g.children)
    out.reverse()  # node, right, left reversed is left, right, node
    return out


def letter_sequence(f: Formula) -> list[str]:
    """Letter names in first-occurrence (left-to-right) order, deduplicated."""
    cached = getattr(f, "_walk", None)  # a parsed root's (cache_walk); a non-formula fails the walk
    if cached is not None:
        return list(cached[1])
    return list(dict.fromkeys(g.name for g in subformulas_bottom_up(f) if type(g) is Letter))


def letters(f: Formula) -> set[str]:
    """Set of letter names occurring in f; empty for constant formulas."""
    return set(letter_sequence(f))


def max_imp_depth(f: Formula) -> int:
    """Maximum nesting depth of implication nodes; 0 iff f is implication-free."""
    depths: list[int] = []
    for g in subformulas_bottom_up(f):
        inner = max((depths.pop() for _ in g.children), default=0)
        depths.append(inner + isinstance(g, Imp))
    return depths[0]


@dataclass(frozen=True)
class Universe:
    """Ordered set of distinct letters; order fixes bit positions in interpretations."""

    letters: tuple[str, ...]

    def __init__(self, letters: "tuple[str, ...] | list[str]"):
        if isinstance(letters, str):  # ("pq") for ("pq",) would split into letters
            raise TypeError(f"universe letters must be a sequence of names, not the string {letters!r}")
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
