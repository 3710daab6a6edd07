"""Formula AST and universe of letters.

Formulas are immutable trees over the connectives {T, F, ~, &, |, ->}; each node
holds its subformulas in one tuple, `children`.  Structural equality (``==``) is
syntax identity, distinct from logical equivalence (the equivalence module).

The evaluator reads a formula as its `program`: the post-order as small ints,
a letter as its index in the formula's letters in first-occurrence order and
each constant and connective as its negative code in CODES.  `parse` emits
that program and builds no nodes: a connective it returns holds the program
(`parsed_root`) and builds its children from it, once, when they are first
read, by `render`, `repr`, a field such as `.left`, or the walk
`subformulas_bottom_up`.  ``==`` and `hash` compare programs and build no
node, and neither does a query that only needs tables.  The cache holds ints
and names, never a node, so a parsed tree has no reference cycle and is freed
by reference counting alone.  No other node holds a program: not TOP, BOTTOM
or a Letter, which may be shared, not a parsed tree's inner nodes, and not a
node made by the constructors, by unpickling or by copying.

Universe, and every result type of the other modules, is a `Record`: an
immutable value that behaves as a frozen dataclass does, made without
importing `dataclasses`, which would slow every start of the CLI.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterator, Union

from .limits import check_letters

LETTER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _refuse(self: object, name: str, *value: object) -> None:
    """__setattr__ and __delattr__ of nodes and records: raise dataclasses.FrozenInstanceError.

    dataclasses is imported here, when something tries to assign, and not at
    import: it loads inspect, ast and dis.
    """
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


# How a record's constructor sets a field past _refuse.  Bound once, it is
# looked up faster than object.__setattr__ in the constructors built per table.
set_field = object.__setattr__


class Record:
    """An immutable value whose fields are the class's annotated names, in order.

    As with a frozen dataclass: == (NotImplemented for another class),
    hash() and repr() read the fields in that order, `match` binds them
    positionally through __match_args__, and assigning or deleting an
    attribute raises FrozenInstanceError.  This constructor fills the fields
    positionally, then by keyword, then from the class attribute of the same
    name, which is the field's default; a type built in a hot loop writes its
    own.  Each field is set by set_field, which stores it in the
    instance's inline values, as a dataclass's are, in place of a dict per
    instance.  Pickling and copying restore the fields without __init__, a
    cached_property's value included.
    """

    __match_args__: "tuple[str, ...]" = ()
    __setattr__ = __delattr__ = _refuse

    def __init_subclass__(cls) -> None:
        cls.__match_args__ += tuple(cls.__annotations__)  # a subclass keeps its base's fields first

    def __init__(self, *values: object, **named: object) -> None:
        fields = self.__match_args__
        if named or len(values) != len(fields):
            values = self._complete(values, named)
        for name, value in zip(fields, values):
            set_field(self, name, value)

    @classmethod
    def _complete(cls, values: tuple, named: dict) -> tuple:
        """The positional values, then each later field's keyword value or else its default."""
        fields = cls.__match_args__
        try:
            values += tuple([named.pop(name) if name in named else getattr(cls, name)
                             for name in fields[len(values):]])
        except AttributeError:  # a field with no default was not given
            values = ()
        if named or len(values) != len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        return values

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        """The constructor text with field names, e.g. Universe(letters=('p', 'q'))."""
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Node:
    """Immutability, pickling, ==, hash(), and repr() as a fold over subformulas_bottom_up.

    Each kind names its fields once, in __match_args__.  == and hash() read
    `program`, which fixes the tree because each kind's constructor fixes its
    child count; a root that `parse` returned gives its cached program, so
    they build no node.  Both work at any nesting depth, where recursing
    through the fields would not.
    """

    __slots__ = ()
    children: "tuple[Formula, ...]" = ()  # a leaf's; a connective stores its own
    _walk: "tuple[list[int], tuple[str, ...]] | None" = None  # a leaf's; see parsed_root for a connective's
    __match_args__: "tuple[str, ...]" = ()
    __setattr__ = __delattr__ = _refuse

    def __reduce__(self) -> tuple:
        """Rebuild from the fields; the default would set each slot, which __setattr__ refuses."""
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def _key(self) -> tuple:
        codes, names = program(self)
        return tuple(codes), names

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
    """A node whose fields are its children, kept in one tuple and read by name.

    A root that `parse` returned starts with `children` unset; reading the
    unset slot raises AttributeError, which calls __getattr__, and that builds
    the children from the cached program.  Once set, the slot is read
    directly, so a tree that is already built pays nothing here.
    """

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

    def __getattr__(self, name: str) -> "tuple[Formula, ...]":
        if name != "children":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        codes, names = self._walk
        children = tuple(build_nodes(codes[:-1], names))
        _set_children(self, children)
        return children


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


# The program code of each constant and connective; a letter's code is its
# index, from 0, in the program's names.  T and F are -1 and -2, so a list of
# one value per name followed by F's and T's is indexed by every leaf code, and
# a code above CODES[Not] is a leaf.
CODES = {Top: -1, Bottom: -2, Not: -3, And: -4, Or: -5, Imp: -6}
_KINDS = {code: kind for kind, code in CODES.items()}


def build_nodes(codes: "list[int]", names: "tuple[str, ...]") -> "list[Formula]":
    """The subformulas a run of program codes leaves, in order; a whole program leaves its formula.

    Each connective is made by its constructor, and one Letter per name.  For
    internal callers; absent from `logicrel.__all__`.
    """
    leaves = [*map(Letter, names), BOTTOM, TOP]
    not_code = CODES[Not]
    stack: list[Formula] = []
    for code in codes:
        if code > not_code:
            stack.append(leaves[code])
        elif code == not_code:
            stack[-1] = Not(stack[-1])
        else:
            right = stack.pop()
            stack[-1] = _KINDS[code](stack[-1], right)
    return stack


def parsed_root(codes: "list[int]", names: "tuple[str, ...]") -> "Formula":
    """The formula of a whole program, as `parse` returns it; for the parser only.

    A one-code program is its leaf.  Otherwise the root is a node of the last
    code's kind that holds the program and builds its children when they
    are first read (see _Connective).
    """
    if len(codes) == 1:
        return build_nodes(codes, names)[0]
    root = object.__new__(_KINDS[codes[-1]])
    _set_walk(root, (codes, names))
    return root


def program(f: "Formula") -> "tuple[list[int], tuple[str, ...]]":
    """f's post-order as program codes, and its letters in first-occurrence order.

    A root that `parse` returned gives its cached program, which the caller
    must not change.  Any other formula is folded over
    `subformulas_bottom_up`, so one built over parsed operands builds their
    nodes; `audit` reads its schemas over two placeholder letters instead.
    """
    cached = getattr(f, "_walk", None)  # a non-formula fails the walk
    if cached is not None:
        return cached
    names: dict[str, int] = {}
    codes = [names.setdefault(g.name, len(names)) if type(g) is Letter else CODES[type(g)]
             for g in subformulas_bottom_up(f)]
    return codes, tuple(names)


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

    The one walk over nodes, on an explicit stack.  Every other walker of
    nodes folds over this list, popping one value per child of each node off
    a value stack; the evaluator reads `program` instead.  Reading the
    children of a root that `parse` returned builds them, once.
    """
    out: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        out.append(g)
        try:
            stack += g.children
        except AttributeError:
            raise TypeError(f"not a formula: {g!r}") from None
    out.reverse()  # node, right, left reversed is left, right, node
    return out


def letter_sequence(f: Formula) -> list[str]:
    """Letter names in first-occurrence (left-to-right) order, deduplicated."""
    return list(program(f)[1])


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


class Universe(Record):
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
        self._hold(letters)

    def _hold(self, letters: "tuple[str, ...]") -> None:
        """The core both constructors share: the letter limit, then the field."""
        check_letters(len(letters), "universe has {} letters")
        set_field(self, "letters", letters)

    @classmethod
    def of(cls, *fs: Formula) -> "Universe":
        """Union of the formulas' letters in first-occurrence order.

        Letter and the parser's token pattern checked each name, and
        dict.fromkeys makes them distinct, so only the limit is checked here.
        """
        u = object.__new__(cls)
        u._hold(tuple(dict.fromkeys(name for f in fs for name in letter_sequence(f))))
        return u

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
