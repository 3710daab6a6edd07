"""Letter row patterns and tables at the full 20-letter universe size.

The cached row patterns are checked row by row against Interpretation, the
definition of what row i means, and seeded 20-letter tables are checked at
sampled rows against the independent oracle.  Implication-free formulas keep
the oracle pointwise, so it stays cheap at 2^20 rows; without implications the
two modes must agree with it and with each other.
"""

import random

import pytest

from logicrel.formula import Universe, letters
from logicrel.semantics import Interpretation, Mode, _letter_patterns, truth_table

from oracle import oracle_eval
from strategies import gen_imp_free

U20 = Universe(tuple(f"x{k}" for k in range(20)))


def wide_imp_free(seed):
    """The first seeded implication-free formula that uses at least 12 letters."""
    rng = random.Random(seed)
    while True:
        f = gen_imp_free(rng, 8, U20.letters)
        if len(letters(f)) >= 12:
            return f


def sampled_rows(n_letters, count, seed):
    last = (1 << n_letters) - 1
    rng = random.Random(seed)
    return sorted({0, 1, last} | {rng.randrange(last + 1) for _ in range(count)})


def assert_patterns_match(n_letters, rows):
    u = Universe(tuple(f"x{k}" for k in range(n_letters)))
    patterns = _letter_patterns(n_letters)
    assert len(patterns) == n_letters
    for pattern in patterns:
        assert 0 <= pattern < 1 << (1 << n_letters)
    for row in rows:
        expected = Interpretation.from_index(u, row).values
        assert tuple(bool((p >> row) & 1) for p in patterns) == expected, row


@pytest.mark.parametrize("n_letters", range(1, 9))
def test_patterns_match_every_row_up_to_8_letters(n_letters):
    assert_patterns_match(n_letters, range(1 << n_letters))


def test_patterns_match_sampled_rows_at_20_letters():
    assert_patterns_match(20, sampled_rows(20, 2000, seed=20))


def test_pattern_cache_holds_one_universe_size():
    assert _letter_patterns.cache_info().maxsize == 1


@pytest.mark.parametrize("seed", range(6))
def test_tables_match_oracle_at_20_letters(seed):
    f = wide_imp_free(seed)
    names = U20.letters
    tables = {m: truth_table(f, U20, m) for m in Mode}
    for row in sampled_rows(20, 150, seed):
        env = {name: bool((row >> k) & 1) for k, name in enumerate(names)}
        expected = oracle_eval(f, env, names)
        for m in Mode:
            assert tables[m].value_at(row) == expected, (m, row)
