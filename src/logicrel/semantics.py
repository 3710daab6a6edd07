"""Dual-mode evaluation and truth tables.

Material mode is classical: an implication node is valued as not-antecedent or
consequent, pointwise per interpretation.  Relational mode instead treats an
implication as a claim about the whole universe: it holds iff
antecedent & consequent is logically equivalent to the antecedent.  That makes
its value global (the same at every interpretation) and a function of the
operands' relational tables a and b alone: all rows if a & b == a, else none.

So one bottom-up pass over the formula computes its table in either mode, the
two differing only at implication nodes.  truth_table is that pass, pointwise
evaluation reads one row of it, and eliminate_implications is the same pass
rebuilding the formula with each implication replaced by T or F.

Truth tables are stored as int bit vectors: bit i is the value at row i, and
row i assigns letter k true iff bit k of i is set.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import UniverseMismatch
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
    Universe,
    subformulas_bottom_up,
)
from .limits import check_letters


class Mode(Enum):
    MATERIAL = "material"
    RELATIONAL = "relational"


@dataclass(frozen=True)
class Interpretation:
    """One truth assignment: values[k] belongs to the k-th universe letter."""

    universe: Universe
    values: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.universe):
            raise ValueError(
                f"{len(self.values)} values for {len(self.universe)} letters"
            )

    @classmethod
    def from_index(cls, universe: Universe, row: int) -> "Interpretation":
        return cls(universe, tuple(bool((row >> k) & 1) for k in range(len(universe))))

    @classmethod
    def lowest(cls, universe: Universe, rows: int) -> "Optional[Interpretation]":
        """The witness row of a row set: its lowest set bit, or None when `rows` is 0."""
        return cls.from_index(universe, (rows & -rows).bit_length() - 1) if rows else None

    @property
    def index(self) -> int:
        return sum(1 << k for k, v in enumerate(self.values) if v)

    def value(self, name: str) -> bool:
        if name not in self.universe:
            raise UniverseMismatch(f"letter {name!r} not in universe {self.universe.letters}")
        return self.values[self.universe.position(name)]

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.universe.letters, self.values))


@dataclass(frozen=True)
class TruthTable:
    """Bit vector of a formula's value at every interpretation of the universe."""

    universe: Universe
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.mask:
            raise ValueError("bit vector out of range for universe size")

    @property
    def rows(self) -> int:
        return 1 << len(self.universe)

    @property
    def mask(self) -> int:
        return (1 << (1 << len(self.universe))) - 1

    def value_at(self, row: int) -> bool:
        return bool((self.bits >> row) & 1)

    @property
    def is_all_true(self) -> bool:
        return self.bits == self.mask

    @property
    def is_all_false(self) -> bool:
        return self.bits == 0

    @property
    def status(self) -> str:
        """One of "tautology", "contradiction" or "contingent"."""
        if self.is_all_true:
            return "tautology"
        return "contradiction" if self.is_all_false else "contingent"

    def bits_hex(self) -> str:
        """Lowercase hex encoding of the bit vector, LSB = row 0."""
        width = max(1, (self.rows + 3) // 4)
        return format(self.bits, f"0{width}x")

    def row_bits(self, row: int) -> str:
        """Row assignment as one 0/1 character per letter, universe order."""
        return "".join("1" if (row >> k) & 1 else "0" for k in range(len(self.universe)))

    def render_text(self) -> str:
        """Header of letters, then one `bits(row) : value` line per row."""
        lines = [" ".join(self.universe.letters)]
        for row in range(self.rows):
            lines.append(f"{self.row_bits(row)} : {1 if self.value_at(row) else 0}")
        return "\n".join(lines)


def le(x: int, y: int) -> bool:
    """The paper's relation on truth tables: x implies y iff x & y == x."""
    return x & y == x


@functools.lru_cache(maxsize=1)
def _letter_patterns(n_letters: int) -> tuple[int, ...]:
    """Row pattern of each letter of an n_letters universe: bit i of pattern k is bit k of i.

    Pattern k is a block of 2^k ones at offset 2^k, OR-ed with itself shifted
    by its current width until it covers all 2^n_letters rows.  The one cached
    universe size holds n_letters * 2^n_letters bits (2.5 MiB at 20 letters).
    """
    n_rows = 1 << n_letters
    patterns = []
    for k in range(n_letters):
        pattern = ((1 << (1 << k)) - 1) << (1 << k)
        width = 1 << (k + 1)
        while width < n_rows:
            pattern |= pattern << width
            width <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def _fold(f: Formula, u: Universe, m: Mode, rebuild: bool = False) -> tuple[int, Optional[Formula]]:
    """The evaluator: f's table over u, each node's bits from its children's on a stack.

    With `rebuild`, f is also rebuilt with each implication replaced by the
    constant its relational value stands for, and returned with the bits.
    """
    order = subformulas_bottom_up(f)
    names = {g.name for g in order if type(g) is Letter}
    missing = names.difference(u.letters)
    if missing:
        raise UniverseMismatch(f"letters {sorted(missing)} not in universe {u.letters}")
    n_letters = len(u)
    check_letters(n_letters, "universe has {} letters")
    # Patterns only after the limit check, which bounds their size, and only if a letter needs one.
    patterns = _letter_patterns(n_letters) if names else ()
    pattern_of = {name: patterns[u.position(name)] for name in names}
    mask = (1 << (1 << n_letters)) - 1
    relational = m is Mode.RELATIONAL
    bits: list[int] = []
    built: list[Formula] = []
    for g in order:
        kind = type(g)
        if kind is Letter:
            value = pattern_of[g.name]
        elif kind is Top:
            value = mask
        elif kind is Bottom:
            value = 0
        elif kind is Not:
            value = mask ^ bits.pop()
        else:
            b, a = bits.pop(), bits.pop()
            if kind is And:
                value = a & b
            elif kind is Or:
                value = a | b
            elif relational:
                value = mask if le(a, b) else 0
            else:
                value = (mask ^ a) | b
        bits.append(value)
        if rebuild:
            operands = [built.pop() for _ in g.children][::-1]
            if kind is Imp:
                built.append(TOP if value else BOTTOM)
            else:
                built.append(kind(*operands) if operands else g)
    return bits[0], built[0] if rebuild else None


def truth_table(f: Formula, u: Universe, m: Mode) -> TruthTable:
    return TruthTable(u, _fold(f, u, m)[0])


def eval_material(f: Formula, i: Interpretation) -> bool:
    """Classical truth value of f at i; implication is not-antecedent-or-consequent."""
    return truth_table(f, i.universe, Mode.MATERIAL).value_at(i.index)


def eval_relational(f: Formula, i: Interpretation) -> bool:
    """Truth value under the relational reading of implication.

    For an implication node the result does not depend on i: it is the same at
    every interpretation of the universe.
    """
    return truth_table(f, i.universe, Mode.RELATIONAL).value_at(i.index)


def eliminate_implications(f: Formula, u: Universe) -> Formula:
    """f with every implication rewritten to the constant T or F.

    An implication becomes T when antecedent & consequent is logically
    equivalent to the antecedent over u, judged on the operands' relational
    tables, F otherwise.  Inner implications are judged before the ones that
    enclose them, in the same single pass that computes the table.
    """
    return _fold(f, u, Mode.RELATIONAL, rebuild=True)[1]


_LEAF_SHARE = 0.25  # chance of cutting a branch short of the depth budget

def gen_random_formula(depth: int, u: Universe, seed: int) -> Formula:
    """Seeded random formula of node depth at most `depth` over u's letters.

    Internal nodes pick uniformly among ~, &, |, ->; leaves pick uniformly
    among the letters plus T and F.  Same (depth, u, seed) gives the same tree.
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if len(u) < 1:
        raise ValueError("need at least one letter to generate formulas")
    rng = random.Random(seed)
    leaves: list[Formula] = [Letter(name) for name in u] + [TOP, BOTTOM]

    def gen(budget: int) -> Formula:
        if budget == 0 or rng.random() < _LEAF_SHARE:
            return rng.choice(leaves)
        op = rng.randrange(4)
        if op == 0:
            return Not(gen(budget - 1))
        if op == 1:
            return And(gen(budget - 1), gen(budget - 1))
        if op == 2:
            return Or(gen(budget - 1), gen(budget - 1))
        return Imp(gen(budget - 1), gen(budget - 1))

    return gen(depth)
