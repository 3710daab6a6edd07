"""Decision procedures over truth tables: equivalence, tautology, entailment.

Every query is parameterized by a Mode and answers with a Verdict.  Failing
verdicts carry the lowest refuting row of the table as a witness, so outputs
are deterministic and directly assertable.
"""

from __future__ import annotations

from typing import Optional

from .formula import Formula, Record, Universe, set_field
from .semantics import Interpretation, Mode, TruthTable, truth_table


class Verdict(Record):
    holds: bool
    witness: Optional[Interpretation]

    def __init__(self, holds: bool, witness: Optional[Interpretation] = None) -> None:
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.holds


def _verdict(u: Universe, refuting_bits: int) -> Verdict:
    return Verdict(not refuting_bits, Interpretation.lowest(u, refuting_bits))


def default_universe(*fs: Formula) -> Universe:
    """Letters of the operands, first-occurrence order."""
    return Universe.of(*fs)


def operand_tables(fs: tuple[Formula, ...], m: Mode, u: Optional[Universe]) -> tuple[Universe, list[TruthTable]]:
    """u, or default_universe(*fs) if u is None, and each operand's table over it under m, first to last."""
    if u is None:
        u = default_universe(*fs)
    return u, [truth_table(f, u, m) for f in fs]


def equivalent(a: Formula, b: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """Do a and b have identical truth tables over u under mode m?"""
    u, (ta, tb) = operand_tables((a, b), m, u)
    return _verdict(u, ta.bits ^ tb.bits)


def is_tautology(f: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """All-ones table; witness is the lowest false row otherwise."""
    u, [t] = operand_tables((f,), m, u)
    return _verdict(u, t.mask ^ t.bits)


def is_contradiction(f: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """All-zeros table; witness is the lowest true row otherwise."""
    u, [t] = operand_tables((f,), m, u)
    return _verdict(u, t.bits)


def entails(a: Formula, b: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """Is b true at every row where a is?  Witness: lowest row with a true, b false."""
    u, (ta, tb) = operand_tables((a, b), m, u)
    return _verdict(u, ta.bits & (ta.mask ^ tb.bits))
