"""Dual-mode evaluation and truth tables.

Material mode is classical: an implication node is valued as not-antecedent or
consequent, pointwise per interpretation.  Relational mode instead treats an
implication as a claim about the whole universe: it holds iff
antecedent & consequent is logically equivalent to the antecedent.  That makes
its value global (the same at every interpretation) and a function of the
operands' relational tables a and b alone: all rows if a & b == a, else none.

So one bottom-up pass over the formula computes its table in either mode, the
two differing only at implication nodes.  truth_table is that pass over
subformulas_bottom_up, pointwise evaluation reads one row of it, and in
relational mode the pass also returns each implication's value in post-order.
eliminate_implications builds the formula again from that list, with each
implication replaced by T or F.

An implication's table is a constant, so it reads no letters, and its verdict
depends only on the letters its operands read.  Relational mode therefore
folds each implication's operands over those letters alone, on tables
2^(|u| - k) times smaller.  This is the paper's equation unchanged: a table
over u is the cylindrical extension of the same formula's table over any
universe that holds its letters, and le(x, y) holds of two tables iff it holds
of their extensions.  The pre-passes that find each node's letters cost more
than they save on narrow universes, so this applies only from
_LOCAL_MIN_LETTERS letters on, the measured crossover; narrower universes and
material mode fold every node over all of u.

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


def _check_row(universe: Universe, row: int) -> None:
    """Refuse a row index that names no interpretation of the universe."""
    if not 0 <= row < 1 << len(universe):
        raise ValueError(f"row {row} out of range for {len(universe)} letters")


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
        _check_row(universe, row)
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
        if self.bits < 0 or self.bits.bit_length() > self.rows:
            raise ValueError("bit vector out of range for universe size")

    @property
    def rows(self) -> int:
        return 1 << len(self.universe)

    @property
    def mask(self) -> int:
        return (1 << (1 << len(self.universe))) - 1

    def value_at(self, row: int) -> bool:
        _check_row(self.universe, row)
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
        _check_row(self.universe, row)
        return "".join("1" if (row >> k) & 1 else "0" for k in range(len(self.universe)))

    def render_text(self) -> str:
        """Header of letters, then one `bits(row) : value` line per row.

        The bits are read once, in one `format`, where `value_at` per row
        would shift the whole 2^n-bit int each time.
        """
        n = len(self.universe)
        values = format(self.bits, f"0{self.rows}b")[::-1]  # values[row] is the value at row
        label = f"0{n}b"
        # A row's label is its index in binary, lowest bit first; [:n] cuts
        # the "0" that format gives with no letters to the empty label.
        rows = (f"{format(row, label)[::-1][:n]} : {value}" for row, value in enumerate(values))
        return "\n".join([" ".join(self.universe.letters), *rows])


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


# Relational folds over at least this many letters evaluate each implication's
# operands over the operands' own letters.  Below it the pre-passes of
# _local_runs cost more than the narrower big-int operations save.  Per size,
# the median over 40 wide20-shaped formulas (every letter once, 10 constants,
# a third of the binary connectives implications) of each relational table's
# best time, whole universe / letter-local, in µs, three rounds, Python 3.11.7
# on a shared 2-core x86-64 host: 12 letters 19-21/39-42, 14 letters
# 24-32/43-47, 16 letters 43-45/54, 17 letters 62-64/56-65, 18 letters
# 103-115/68-85, 20 letters 450-481/175-240.
_LOCAL_MIN_LETTERS = 17


def _local_runs(
    order: list[Formula], u: Universe, patterns: tuple[int, ...], mask: int, pattern_of: dict[str, int],
) -> list[tuple[list[Formula], int, dict[str, int]]]:
    """Split the post-order into runs of nodes sharing a context, each with its mask and patterns.

    A node's context is the set of universe positions its table is folded
    over, as a bitmask.  An implication's operands take the letters the
    operands read, where an implication reads none; every other node takes
    its parent's context, and the root all of u.  A context of k letters uses
    the cached patterns truncated to their low 2^k rows, the context's r-th
    letter in universe order at pattern r; all of u keeps them whole.
    """
    bit_of = {name: 1 << k for k, name in enumerate(u.letters)}
    reads: list[int] = []  # the letters each pending subformula reads
    starts: list[int] = []  # the post-order position where each pending subformula starts
    imps: list[tuple[int, int, int]] = []  # (start, position, operand letters) of each implication
    for i, g in enumerate(order):
        kind = type(g)
        if kind is Letter:
            reads.append(bit_of[g.name])
            starts.append(i)
        elif kind is Top or kind is Bottom:
            reads.append(0)
            starts.append(i)
        elif kind is not Not:
            right = reads.pop()
            starts.pop()
            if kind is Imp:
                imps.append((starts[-1], i, reads[-1] | right))
                reads[-1] = 0
            else:
                reads[-1] |= right
    if not imps:
        return [(order, mask, pattern_of)]
    # Right to left over the implications, outer before inner: each one's
    # operands, from its start up to its own position, are a region of its
    # operand letters inside the region that holds the implication itself.
    everything = (1 << len(u)) - 1
    spans: list[tuple[int, int, int]] = []  # (start, stop, context), right to left
    regions = [(0, everything)]  # (start, context) of the regions that hold the cursor
    cursor = len(order)
    for start, at, context in reversed(imps):
        while regions[-1][0] > at:
            region_start, region_context = regions.pop()
            if region_start < cursor:
                spans.append((region_start, cursor, region_context))
                cursor = region_start
        spans.append((at, cursor, regions[-1][1]))
        cursor = at
        regions.append((start, context))
    for region_start, region_context in reversed(regions):
        if region_start < cursor:
            spans.append((region_start, cursor, region_context))
            cursor = region_start
    local = {everything: (mask, pattern_of)}  # the whole universe keeps its untruncated patterns
    runs = []
    for start, stop, context in reversed(spans):
        if context not in local:
            local_mask = (1 << (1 << context.bit_count())) - 1
            local_patterns = {}
            rest = context
            while rest:
                low = rest & -rest
                local_patterns[u.letters[low.bit_length() - 1]] = patterns[len(local_patterns)] & local_mask
                rest ^= low
            local[context] = local_mask, local_patterns
        runs.append((order[start:stop], *local[context]))
    return runs


def _fold(f: Formula, u: Universe, m: Mode) -> tuple[int, list[int]]:
    """The evaluator: f's table over u, each node's bits from its children's on a stack.

    Also returns the value of each relational implication, mask or 0, in
    post-order; in material mode that list is empty.  A letter outside u fails
    its lookup, here or in _local_runs, and only then is the order scanned.
    """
    order = subformulas_bottom_up(f)
    n_letters = len(u)
    check_letters(n_letters, "universe has {} letters")
    # Patterns only after the limit check, which bounds their size.
    patterns = _letter_patterns(n_letters)
    pattern_of = dict(zip(u.letters, patterns))
    mask = (1 << (1 << n_letters)) - 1
    relational = m is Mode.RELATIONAL
    bits: list[int] = []
    values: list[int] = []
    try:
        if relational and n_letters >= _LOCAL_MIN_LETTERS:
            runs = _local_runs(order, u, patterns, mask, pattern_of)
        else:
            runs = ((order, mask, pattern_of),)
        for run, mask, pattern_of in runs:
            for g in run:
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
                        values.append(value)
                    else:
                        value = (mask ^ a) | b
                bits.append(value)
    except KeyError:
        missing = {g.name for g in order if type(g) is Letter}.difference(u.letters)
        raise UniverseMismatch(f"letters {sorted(missing)} not in universe {u.letters}") from None
    return bits[0], values


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
    tables, F otherwise.  The relational fold judges inner implications before
    the ones that enclose them and returns their values in post-order; a
    second pass over the post-order builds the result from them.
    """
    values = iter(_fold(f, u, Mode.RELATIONAL)[1])
    built: list[Formula] = []
    for g in subformulas_bottom_up(f):
        first = len(built) - len(g.children)
        operands = built[first:]
        del built[first:]
        if type(g) is Imp:
            built.append(TOP if next(values) else BOTTOM)
        else:
            built.append(type(g)(*operands) if operands else g)
    return built[0]


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
