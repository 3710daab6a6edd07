"""Shared generators for the test suite: hypothesis strategies plus plain
seeded generators for the large deterministic sweeps."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from logicrel.formula import (
    BOTTOM,
    TOP,
    And,
    Formula,
    Imp,
    Not,
    Or,
    Letter,
)

LETTER_POOL = ("p", "q", "r")


def formulas(letters=LETTER_POOL, max_leaves=12, allow_imp=True):
    leaves = st.sampled_from([Letter(name) for name in letters] + [TOP, BOTTOM])

    def extend(sub):
        ops = [
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        ]
        if allow_imp:
            ops.append(st.builds(Imp, sub, sub))
        return st.one_of(*ops)

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def imp_free_formulas(letters=LETTER_POOL, max_leaves=12):
    return formulas(letters, max_leaves, allow_imp=False)


def gen_imp_free(rng: random.Random, depth: int, letters=LETTER_POOL) -> Formula:
    """Seeded random implication-free formula of node depth at most `depth`."""
    pool = [Letter(name) for name in letters] + [TOP, BOTTOM]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(pool)
    op = rng.randrange(3)
    if op == 0:
        return Not(gen_imp_free(rng, depth - 1, letters))
    if op == 1:
        return And(gen_imp_free(rng, depth - 1, letters), gen_imp_free(rng, depth - 1, letters))
    return Or(gen_imp_free(rng, depth - 1, letters), gen_imp_free(rng, depth - 1, letters))


def node_depth(f: Formula) -> int:
    kids = f.children
    if not kids:
        return 0
    return 1 + max(node_depth(k) for k in kids)


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(k) for k in f.children)
