"""The implication relation proper.

An implication between two formulas holds exactly when their conjunction is
logically equivalent to the first formula.  This module reads that relation
(implies_rel), its three equivalent criteria and the disjoint / joint /
inclusion classifier from the two operands' relational tables.  It audits the
classic paradox schemas under both modes from the operands' tables in each
mode, each schema composed over two placeholder letters, and verifies by brute
force that the relation orders truth-table classes into a bounded lattice.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Optional

from .equivalence import default_universe, operand_tables
from .errors import LimitError
from .formula import Formula, Imp, Letter, Not, Or, Record, Universe
from .semantics import Interpretation, Mode, compose, le, truth_table


class CriteriaReport(Record):
    """The three equivalent ways of stating the relation, computed independently.

    Each is read from the operands' relational tables x and y; mask has every row.
    and_absorb:  first & second  =  first            le(x, y)
    conj_bottom: first & ~second is a contradiction  x & (mask ^ y) == 0
    disj_top:    ~first | second is a tautology      (mask ^ x) | y == mask
    witness:     the lowest row of x & (mask ^ y), where first & second and first differ
    """

    and_absorb: bool
    conj_bottom: bool
    disj_top: bool
    agree: bool
    witness: Optional[Interpretation] = None

    @property
    def holds(self) -> bool:
        return self.and_absorb


class RelationKind(Enum):
    DISJOINT = "disjoint"
    JOINT = "joint"
    INCLUSION_FORWARD = "inclusion_forward"
    INCLUSION_BACKWARD = "inclusion_backward"
    EQUIVALENT = "equivalent"


FIRST_IS_BOTTOM = "first_is_bottom"
FIRST_IS_TOP = "first_is_top"
SECOND_IS_BOTTOM = "second_is_bottom"
SECOND_IS_TOP = "second_is_top"


class RelationClass(Record):
    kind: RelationKind
    degenerate: frozenset[str] = frozenset()


class ParadoxReport(Record):
    """One paradox schema instantiated and judged under both modes."""

    schema: str
    formula: Formula
    material_tautology: bool
    relational_tautology: bool
    relational_status: str  # tautology | contradiction | contingent
    relational_witness: Optional[Interpretation]  # lowest false row when not a tautology


class LatticeReport(Record):
    universe_size: int
    class_count: int
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def implies_rel(a: Formula, b: Formula, u: Optional[Universe] = None) -> bool:
    """Does the implication relation hold from a to b over u?"""
    return criteria_report(a, b, u).holds


def criteria_report(a: Formula, b: Formula, u: Optional[Universe] = None) -> CriteriaReport:
    """Evaluate all three criteria separately and report whether they agree."""
    u, (ta, tb) = operand_tables((a, b), Mode.RELATIONAL, u)
    x, y, mask = ta.bits, tb.bits, ta.mask
    refuting = x & (mask ^ y)  # the rows of first & ~second
    and_absorb = le(x, y)
    conj_bottom = refuting == 0
    disj_top = (mask ^ x) | y == mask
    agree = and_absorb == conj_bottom == disj_top
    return CriteriaReport(and_absorb, conj_bottom, disj_top, agree, Interpretation.lowest(u, refuting))


def classify_relation(a: Formula, b: Formula, u: Optional[Universe] = None) -> RelationClass:
    """Disjoint / joint / inclusion / equivalent, with degeneracy made visible.

    The kinds coincide in the trivial circumstances where an operand is itself
    a contradiction or a tautology; the degenerate flags record that, and the
    kind is then picked so that inclusion-forward still means exactly
    "the relation holds and the operands are not equivalent".
    """
    u, (ta, tb) = operand_tables((a, b), Mode.RELATIONAL, u)

    flags = set()
    if ta.is_all_false:
        flags.add(FIRST_IS_BOTTOM)
    if ta.is_all_true:
        flags.add(FIRST_IS_TOP)
    if tb.is_all_false:
        flags.add(SECOND_IS_BOTTOM)
    if tb.is_all_true:
        flags.add(SECOND_IS_TOP)
    degenerate = frozenset(flags)

    if ta.bits == tb.bits:
        kind = RelationKind.EQUIVALENT
    elif le(ta.bits, tb.bits):
        kind = RelationKind.INCLUSION_FORWARD
    elif le(tb.bits, ta.bits):
        kind = RelationKind.INCLUSION_BACKWARD
    elif ta.bits & tb.bits == 0:
        kind = RelationKind.DISJOINT
    else:
        kind = RelationKind.JOINT
    return RelationClass(kind, degenerate)


_SCHEMAS = ("P1", "P2", "P3")


def paradox_formula(schema: str, a: Formula, b: Formula) -> Formula:
    """Instantiate one of the three classic paradox schemas with first=a, second=b."""
    if schema == "P1":  # a false proposition implies any proposition
        return Imp(Not(a), Imp(a, b))
    if schema == "P2":  # a true proposition is implied by any proposition
        return Imp(a, Imp(b, a))
    if schema == "P3":  # of any two propositions, one implies the other
        return Or(Imp(a, b), Imp(b, a))
    raise ValueError(f"unknown schema {schema!r}")


def audit_paradoxes(a: Formula, b: Formula, u: Optional[Universe] = None) -> list[ParadoxReport]:
    """Judge all three schemas, instantiated with a and b, under both modes, from four tables."""
    if u is None:
        u = default_universe(a, b)
    # a's and b's per mode; a's first, so a's stray letters are named alone, as implies names them.
    tables = {m: {"a": truth_table(a, u, m).bits, "b": truth_table(b, u, m).bits} for m in Mode}
    reports = []
    for schema in _SCHEMAS:
        judged = paradox_formula(schema, Letter("a"), Letter("b"))
        # One relational table gives the status and the lowest false row.
        t = compose(judged, tables[Mode.RELATIONAL], u, Mode.RELATIONAL)
        reports.append(
            ParadoxReport(
                schema=schema,
                formula=paradox_formula(schema, a, b),
                material_tautology=compose(judged, tables[Mode.MATERIAL], u, Mode.MATERIAL).is_all_true,
                relational_tautology=t.is_all_true,
                relational_status=t.status,
                relational_witness=Interpretation.lowest(u, t.mask ^ t.bits),
            )
        )
    return reports


_SAMPLED_CHECKS = 100_000
_SAMPLE_SEED = 20_240_601


def _order(count: int) -> tuple[list[int], list[int]]:
    """Down-sets and up-sets as bitmasks, one le per pair: bit y of up[x] is le(x, y)."""
    down, up = [0] * count, [0] * count
    for x in range(count):
        for y in range(count):
            if le(x, y):
                up[x] |= 1 << y
                down[y] |= 1 << x
    return down, up


def verify_lattice(n: int) -> LatticeReport:
    """Check that the relation partially orders all 2^(2^n) truth-table classes
    into a bounded lattice with & as meet and | as join.

    Classes are the truth tables themselves, encoded as row bit vectors; the
    relation between classes x and y is le(x, y).  For n <= 3 every law is
    checked exhaustively on the down-sets and up-sets of _order, bitmasks that
    cover all class triples (transitivity, greatest lower bound, least
    upper bound) without enumerating them one by one.  For n = 4 the pair and
    triple laws are checked on seeded random samples instead.
    """
    if not 1 <= n <= 4:
        raise LimitError(f"lattice verification supports 1 <= n <= 4, got {n}")

    count = 1 << (1 << n)  # 2^(2^n) classes
    top = count - 1
    failures: list[tuple[str, tuple[int, ...]]] = []

    for x in range(count):
        if not le(x, x):
            failures.append(("reflexivity", (x,)))
        if not le(0, x):
            failures.append(("bottom", (x,)))
        if not le(x, top):
            failures.append(("top", (x,)))

    if n <= 3:
        down, up = _order(count)
        for x in range(count):
            for y in range(count):
                if up[x] >> y & 1:  # x implies y
                    if down[x] >> y & 1 and x != y:
                        failures.append(("anti-symmetry", (x, y)))
                    stray = down[x] & ~down[y]  # classes below x but not below y
                    if stray:
                        lowest = (stray & -stray).bit_length() - 1
                        failures.append(("transitivity", (lowest, x, y)))
                if down[x & y] != down[x] & down[y]:
                    failures.append(("meet", (x, y)))
                if up[x | y] != up[x] & up[y]:
                    failures.append(("join", (x, y)))
    else:
        rng = random.Random(_SAMPLE_SEED)
        for _ in range(_SAMPLED_CHECKS):
            x = rng.randrange(count)
            y = rng.randrange(count)
            z = rng.randrange(count)
            if le(x, y) and le(y, x) and x != y:
                failures.append(("anti-symmetry", (x, y)))
            if le(x, y) and le(y, z) and not le(x, z):
                failures.append(("transitivity", (x, y, z)))
            if not (le(x & y, x) and le(x & y, y)):
                failures.append(("meet", (x, y)))
            if le(z, x) and le(z, y) and not le(z, x & y):
                failures.append(("meet", (z, x, y)))
            if not (le(x, x | y) and le(y, x | y)):
                failures.append(("join", (x, y)))
            if le(x, z) and le(y, z) and not le(x | y, z):
                failures.append(("join", (x, y, z)))

    return LatticeReport(universe_size=n, class_count=count, failures=tuple(failures))


def hasse_edges(n: int) -> list[tuple[int, int]]:
    """Covering pairs (lower, upper) of the class order, for DOT export; n <= 2."""
    if not 1 <= n <= 2:
        raise LimitError(f"Hasse export supports 1 <= n <= 2, got {n}")
    count = 1 << (1 << n)
    down, up = _order(count)
    # y covers x when x implies y and no third class lies between them.
    return [(x, y) for x in range(count) for y in range(count)
            if x != y and up[x] >> y & 1 and not up[x] & down[y] & ~(1 << x | 1 << y)]
