"""Decision procedures over truth tables: equivalence, tautology, entailment.

Every query is parameterized by a Mode and answers with a Verdict.  Failing
verdicts carry the lowest refuting row of the table as a witness, so outputs
are deterministic and directly assertable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formula import Formula, Universe
from .semantics import Interpretation, Mode, truth_table


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[Interpretation] = None

    def __bool__(self) -> bool:
        return self.holds


def _verdict(u: Universe, refuting_bits: int) -> Verdict:
    return Verdict(not refuting_bits, Interpretation.lowest(u, refuting_bits))


def default_universe(*fs: Formula) -> Universe:
    """Letters of the operands, first-occurrence order."""
    return Universe.of(*fs)


def equivalent(a: Formula, b: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """Do a and b have identical truth tables over u under mode m?"""
    if u is None:
        u = default_universe(a, b)
    ta = truth_table(a, u, m)
    tb = truth_table(b, u, m)
    return _verdict(u, ta.bits ^ tb.bits)


def is_tautology(f: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """All-ones table; witness is the lowest false row otherwise."""
    if u is None:
        u = default_universe(f)
    t = truth_table(f, u, m)
    return _verdict(u, t.mask ^ t.bits)


def is_contradiction(f: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """All-zeros table; witness is the lowest true row otherwise."""
    if u is None:
        u = default_universe(f)
    t = truth_table(f, u, m)
    return _verdict(u, t.bits)


def entails(a: Formula, b: Formula, m: Mode, u: Optional[Universe] = None) -> Verdict:
    """Is b true at every row where a is?  Witness: lowest row with a true, b false."""
    if u is None:
        u = default_universe(a, b)
    ta = truth_table(a, u, m)
    tb = truth_table(b, u, m)
    return _verdict(u, ta.bits & (ta.mask ^ tb.bits))
