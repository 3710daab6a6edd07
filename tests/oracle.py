"""Independent brute-force evaluator used as the reference oracle.

Deliberately knows nothing about the package's semantics machinery: it works
on plain dicts and letter lists, and decides an implication by enumerating
every assignment of the universe and re-checking that antecedent-and-consequent
has the same value as the antecedent everywhere.  Exponential and proud of it;
only ever run on tiny universes.  With material set, an implication is
not-antecedent-or-consequent at the one assignment, so that reading stays
pointwise and cheap at any universe size.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from logicrel.formula import And, Bottom, Formula, Imp, Letter, Not, Or, Top


def assignments(names: Sequence[str]) -> Iterator[dict[str, bool]]:
    """All 2^n assignments, in row order: letter k is true iff bit k of the row index."""
    for row in range(1 << len(names)):
        yield {name: bool((row >> k) & 1) for k, name in enumerate(names)}


def oracle_eval(f: Formula, env: dict[str, bool], names: Sequence[str], material: bool = False) -> bool:
    """f's value at env; an implication is global, or pointwise when material is set."""
    if isinstance(f, Letter):
        return env[f.name]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not oracle_eval(f.child, env, names, material)
    if isinstance(f, And):
        return oracle_eval(f.left, env, names, material) and oracle_eval(f.right, env, names, material)
    if isinstance(f, Or):
        return oracle_eval(f.left, env, names, material) or oracle_eval(f.right, env, names, material)
    if isinstance(f, Imp) and material:
        return not oracle_eval(f.antecedent, env, names, True) or oracle_eval(f.consequent, env, names, True)
    if isinstance(f, Imp):
        # Global check, independent of env: antecedent & consequent must agree
        # with the antecedent at every assignment of the universe.
        for other in assignments(names):
            a = oracle_eval(f.antecedent, other, names)
            b = oracle_eval(f.consequent, other, names)
            if (a and b) != a:
                return False
        return True
    raise TypeError(f"not a formula: {f!r}")


def oracle_table(f: Formula, names: Sequence[str], material: bool = False) -> list[bool]:
    """Truth value at every row, row index ascending."""
    return [oracle_eval(f, env, names, material) for env in assignments(names)]
