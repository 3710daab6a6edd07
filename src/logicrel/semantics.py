"""Dual-mode evaluation and truth tables.

Material mode is classical: an implication node is valued as not-antecedent or
consequent, pointwise per interpretation.  Relational mode instead treats an
implication as a claim about the whole universe: it holds iff
antecedent & consequent is logically equivalent to the antecedent.  That makes
its value global (the same at every interpretation) and a function of the
operands' relational tables a and b alone: all rows if a & b == a, else none.

So one bottom-up pass over the formula computes its table in either mode, the
two differing only at implication nodes.  truth_table is that pass over the
formula's program (formula.program), its post-order as small ints, and
pointwise evaluation reads one row of it.  eliminate_implications is the
program with each implication decided in place, as below, at every universe
size, built into a formula.

An implication's table is a constant, so it reads no letters, and its verdict
depends only on the letters its operands read.  Below _LOCAL_MIN_LETTERS
letters, the measured crossover, relational mode decides each implication
inline in the pass over all of u.  From the gate on, it decides each one in
place where the walk reaches it, innermost first: its operands, already free
of implications, are evaluated over their own letters alone, on tables
2^(|u| - k) times smaller, and the implication is replaced by T or F; the pass
over all of u then evaluates what is left classically.  This is the paper's
equation unchanged: a table over u is the cylindrical extension of the same
formula's table over any universe that holds its letters, and le(x, y) holds
of two tables iff it holds of their extensions.  Material mode always folds
every node over all of u.

Truth tables are stored as int bit vectors: bit i is the value at row i, and
row i assigns letter k true iff bit k of i is set.  The all-rows mask is one
cached object per universe size, which every table over u, TruthTable.mask
and the node loop share.  The node loop answers a constant operand without a
pass over the table by one rule: an operand that is that mask object
(identity, never `==`) or zero decides `~`, `&`, `|` and a material `->`;
anything else, an all-ones table that is not the mask object included, takes
the full operation.
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
    CODES,
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
    build_nodes,
    program,
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
        """The witness row of a row set: its lowest set bit, or None when `rows` is 0.

        The low 2^6, 2^8, 2^10, ... rows are tried first, each window an `&`
        with a cached all-rows mask at a cost that grows with its width,
        until one holds a set bit.  Windows stop at 1/16 of the table's rows,
        and past them the whole set is read, so the windows add under 1/12 of
        one `&` pass to the worst case.  Either way the bit is found by
        `low ^ (low - 1)` on non-negative ints: a negative operand, as in
        `rows & -rows`, takes the slower two's-complement path.
        """
        if not rows:
            return None
        low = rows
        for k in range(6, len(universe) - 3, 2):
            window = rows & _all_rows(k)
            if window:
                low = window
                break
        return cls.from_index(universe, (low ^ (low - 1)).bit_length() - 1)

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
        """The set of all rows: the cached all-rows mask of the universe's size."""
        return _all_rows(len(self.universe))

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


@functools.lru_cache(maxsize=None)
def _all_rows(n_letters: int) -> int:
    """The all-rows mask of an n_letters universe, one object per size.

    Its subtraction borrows through every digit, so at 20 letters building it
    costs about six `&` passes.  The tables of a query share this object, and
    the node loop tests a table against it by identity.  Every Universe
    passes the letter limit, so the cache holds at most one mask per size up
    to that limit: under 2^(limit + 1) bits in all, 256 KiB at 20 letters.
    """
    return (1 << (1 << n_letters)) - 1


# Relational folds over at least this many letters decide each implication in
# place, over its operands' own letters.  Below it a helper call and the
# context bookkeeping per implication cost more than the narrower big-int
# operations save.  Per size, the median over 40 wide20-shaped formulas (every
# letter once, 10 constants, a third of the binary connectives implications)
# of each relational table's best time, whole universe / in place, in µs,
# three rounds, Python 3.11.7 on a shared 2-core x86-64 host: 12 letters
# 13-24/27-50, 14 letters 19-36/33-59, 16 letters 35-59/39-69, 17 letters
# 58-95/48-85, 18 letters 103-157/63-103, 20 letters 480-637/148-218.
_LOCAL_MIN_LETTERS = 17


_TOP, _BOTTOM, _NOT, _AND, _OR, _IMP = (CODES[kind] for kind in (Top, Bottom, Not, And, Or, Imp))


def _evaluate(codes: list[int], leaves: list[int], relational: bool) -> list[int]:
    """The code loop: each subformula's bits from its operands' on a stack, which is returned.

    `leaves[code]` is the table of a letter or constant code, so
    `leaves[_TOP]` is the all-rows mask.  An operand that is that mask object
    itself or zero answers `~`, `&`, `|` and a material `->` without a big-int
    operation (`x -> 0` with one).  T and every decided implication give that
    object, so a constant costs no pass over the table.  Any other operand
    takes the full operation, a table of all ones that is not the mask object
    included: a table is never compared with the mask by `==`, which scans it
    when the two are equal.
    """
    mask = leaves[_TOP]
    # Locals, not globals and bound methods looked up again for every code.
    not_code, and_code, or_code = _NOT, _AND, _OR
    bits: list[int] = []
    push, pop = bits.append, bits.pop
    for code in codes:
        if code > not_code:
            push(leaves[code])
            continue
        if code == not_code:
            a = pop()
            value = 0 if a is mask else mask ^ a if a else mask
        else:
            b, a = pop(), pop()
            if code == and_code:
                value = b if a is mask or not b else a if b is mask or not a else a & b
            elif code == or_code:
                value = b if b is mask or not a else a if a is mask or not b else a | b
            elif relational:
                value = mask if le(a, b) else 0
            elif b is mask or not a:
                value = mask
            elif a is mask:
                value = b
            else:
                value = (mask ^ a) | b if b else mask ^ a
        push(value)
    return bits


def _decide_implications(codes: list[int], names: tuple[str, ...], u: Universe) -> list[int]:
    """The program with each relational implication replaced by T or F, innermost first.

    An implication is decided where the loop reaches it, by evaluating its
    two operands, already free of implications, over its context: the
    letters they read, as a bitmask of universe positions.  A context of k
    letters uses u's patterns, bounded by the caller's limit check, truncated
    to their low 2^k rows, the context's r-th letter in universe order at
    pattern r.  A name that u lacks raises KeyError.
    """
    patterns = _letter_patterns(len(u))
    position = {name: k for k, name in enumerate(u.letters)}
    bit_of = [1 << position[name] for name in names]
    local: dict[int, list[int]] = {}  # context -> leaves for _evaluate
    out: list[int] = []
    reads: list[int] = []  # the letters each pending subformula reads
    starts: list[int] = []  # where each pending subformula starts in out
    for code in codes:
        if code >= 0:
            reads.append(bit_of[code])
            starts.append(len(out))
        elif code > _NOT:
            reads.append(0)
            starts.append(len(out))
        elif code != _NOT:
            right = reads.pop()
            starts.pop()
            if code == _IMP:
                context = reads[-1] | right
                leaves = local.get(context)
                if leaves is None:
                    local_mask = _all_rows(context.bit_count())
                    # A letter outside the context is not read: 0 holds its place.
                    leaves = local[context] = [
                        patterns[(context & (bit - 1)).bit_count()] & local_mask if bit & context else 0
                        for bit in bit_of
                    ] + [0, local_mask]
                start = starts[-1]  # out[start:] is the two operands, free of implications
                a, b = _evaluate(out[start:], leaves, True)
                out[start:] = (_TOP if le(a, b) else _BOTTOM,)
                reads[-1] = 0
                continue
            reads[-1] |= right
        out.append(code)
    return out


def _stray_letters(names: tuple[str, ...], u: Universe) -> UniverseMismatch:
    """The error for the letters among `names` that u does not hold, named in sorted order."""
    missing = set(names).difference(u.letters)
    return UniverseMismatch(f"letters {sorted(missing)} not in universe {u.letters}")


def _fold(f: Formula, u: Universe, m: Mode) -> int:
    """The evaluator: f's table over u as a bit vector.

    Relational mode decides each implication inline in the code loop below
    the gate, and in place over its operands' letters from the gate on.  The
    program's letters are mapped to u's row patterns once, and a letter
    outside u fails that lookup.
    """
    codes, names = program(f)
    n_letters = len(u)
    check_letters(n_letters, "universe has {} letters")
    # Patterns only after the limit check, which bounds their size.
    pattern_of = dict(zip(u.letters, _letter_patterns(n_letters)))
    try:
        leaves = [pattern_of[name] for name in names]
    except KeyError:
        raise _stray_letters(names, u) from None
    leaves += (0, _all_rows(n_letters))
    relational = m is Mode.RELATIONAL
    if relational and n_letters >= _LOCAL_MIN_LETTERS:
        codes = _decide_implications(codes, names, u)
    return _evaluate(codes, leaves, relational)[0]


def truth_table(f: Formula, u: Universe, m: Mode) -> TruthTable:
    return TruthTable(u, _fold(f, u, m))


def compose(f: Formula, tables: dict[str, int], u: Universe, m: Mode) -> TruthTable:
    """f's table over u when each letter of f has the table over u that `tables` gives its name."""
    codes, names = program(f)
    leaves = [tables[name] for name in names] + [0, _all_rows(len(u))]
    return TruthTable(u, _evaluate(codes, leaves, m is Mode.RELATIONAL)[0])


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
    tables, F otherwise.  _decide_implications judges each implication over
    its operands' own letters, inner ones first, at every size of u; the
    result is built from the program it returns, with no table over all of u.
    """
    codes, names = program(f)
    check_letters(len(u), "universe has {} letters")
    try:
        decided = _decide_implications(codes, names, u)
    except KeyError:
        raise _stray_letters(names, u) from None
    return build_nodes(decided, names)[0]


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
