import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logicrel import semantics
from logicrel.equivalence import default_universe
from logicrel.errors import LimitError, UniverseMismatch
from logicrel.formula import (
    BOTTOM,
    TOP,
    And,
    Imp,
    Letter,
    Not,
    Or,
    Universe,
    letters,
    max_imp_depth,
    subformulas_bottom_up,
)
from logicrel.parser import parse, render
from logicrel.semantics import (
    Interpretation,
    Mode,
    TruthTable,
    eliminate_implications,
    eval_material,
    eval_relational,
    gen_random_formula,
    truth_table,
)

from oracle import assignments, oracle_eval, oracle_table
from strategies import formulas, imp_free_formulas, node_depth

P, Q = Letter("p"), Letter("q")


def interp(u, **values):
    return Interpretation(u, tuple(values[name] for name in u.letters))


class TestEvalMaterial:
    def test_false_antecedent_makes_implication_true(self, u_pq):
        assert eval_material(parse("p -> q"), interp(u_pq, p=False, q=False)) is True

    def test_only_falsifying_row(self, u_pq):
        assert eval_material(parse("p -> q"), interp(u_pq, p=True, q=False)) is False

    def test_disjunction_of_implications_is_material_tautology(self, u_pq):
        f = parse("(p -> q) | (q -> p)")
        for row in range(4):
            assert eval_material(f, Interpretation.from_index(u_pq, row)) is True

    def test_universe_mismatch(self):
        u = Universe(("q",))
        with pytest.raises(UniverseMismatch):
            eval_material(parse("p"), Interpretation.from_index(u, 0))


class TestEliminateImplications:
    def test_absorption_gives_top(self, u_pq):
        assert eliminate_implications(parse("p & q -> p"), u_pq) == TOP

    def test_plain_implication_is_globally_false(self, u_pq):
        # p & q is not equivalent to p: witness p=true, q=false.
        assert eliminate_implications(parse("p -> q"), u_pq) == BOTTOM

    def test_nested_implication_reduces_inside_out(self, u_pq):
        # Inner p -> q becomes F; then ~p & F is not equivalent to ~p.
        assert eliminate_implications(parse("~p -> (p -> q)"), u_pq) == BOTTOM

    def test_bottom_implies_anything(self):
        u = Universe(("p",))
        assert eliminate_implications(parse("F -> p"), u) == TOP

    def test_non_implication_structure_is_preserved(self, u_pq):
        f = parse("~(p & q) | (p -> q)")
        assert eliminate_implications(f, u_pq) == Or(Not(And(P, Q)), BOTTOM)

    # The stray letter sits inside an implication, outside every implication,
    # or in a formula with none: the fold's checks run before any is judged.
    @pytest.mark.parametrize("text, letters", [
        ("p -> q", ("p",)),
        ("p & (q -> q)", ("q",)),
        ("r", ("p",)),
    ], ids=["inside", "outside", "no_implication"])
    def test_universe_mismatch(self, text, letters):
        with pytest.raises(UniverseMismatch):
            eliminate_implications(parse(text), Universe(letters))

    def test_letter_limit(self, monkeypatch):
        f = parse("p -> q")
        u = Universe(("p", "q"))
        monkeypatch.setenv("LOGICREL_MAX_LETTERS", "1")
        with pytest.raises(LimitError):
            eliminate_implications(f, u)


class TestEvalRelational:
    def test_reflexive_implication_true_everywhere(self):
        u = Universe(("p",))
        assert eval_relational(parse("p -> p"), interp(u, p=False)) is True

    def test_global_value_ignores_the_row(self, u_pq):
        # Material semantics would say true at p=false, q=true.
        i = interp(u_pq, p=False, q=True)
        assert eval_relational(parse("p -> q"), i) is False
        assert eval_material(parse("p -> q"), i) is True

    def test_implication_free_formulas_are_classical(self):
        u = Universe(("p",))
        assert eval_relational(parse("p | ~p"), interp(u, p=True)) is True


class TestTruthTable:
    def test_conjunction_bits(self, u_pq):
        t = truth_table(parse("p & q"), u_pq, Mode.MATERIAL)
        assert t.bits == 0b1000  # rows 00,10,01,11 -> 0,0,0,1
        assert t.bits_hex() == "8"

    def test_relational_implication_is_constant_false(self, u_pq):
        t = truth_table(parse("p -> q"), u_pq, Mode.RELATIONAL)
        assert t.bits == 0
        assert t.is_all_false

    def test_material_implication_bits(self, u_pq):
        t = truth_table(parse("p -> q"), u_pq, Mode.MATERIAL)
        assert t.bits == 0b1101  # false only at row 1 (p=1, q=0)
        assert t.bits_hex() == "d"

    def test_text_rendering(self, u_pq):
        t = truth_table(parse("p -> q"), u_pq, Mode.MATERIAL)
        assert t.render_text() == "p q\n00 : 1\n10 : 0\n01 : 1\n11 : 1"

    def test_row_order_follows_universe_order(self):
        u = Universe(("q", "p"))
        t = truth_table(parse("p -> q"), u, Mode.MATERIAL)
        assert t.bits == 0b1011  # false only where p=1, q=0, now row 2

    def test_tautology_and_contradiction_flags(self, u_pq):
        assert truth_table(parse("p | ~p"), u_pq, Mode.MATERIAL).is_all_true
        assert truth_table(parse("p & ~p"), u_pq, Mode.MATERIAL).is_all_false

    def test_hex_width_grows_with_universe(self, u_pqr):
        t = truth_table(parse("p | ~p"), u_pqr, Mode.MATERIAL)
        assert t.bits_hex() == "ff"

    def test_limit_error(self, monkeypatch):
        u = Universe(("p", "q"))
        monkeypatch.setenv("LOGICREL_MAX_LETTERS", "1")
        with pytest.raises(LimitError, match="^universe has 2 letters, limit is 1$"):
            truth_table(parse("p"), u, Mode.MATERIAL)

    @pytest.mark.parametrize(
        "text,letters,status",
        [
            ("p", ("p", "q"), "contingent"),
            ("T", ("p", "q"), "tautology"),
            ("F", ("p", "q"), "contradiction"),
            ("T", (), "tautology"),
            ("F", (), "contradiction"),
        ],
    )
    def test_status(self, text, letters, status):
        for mode in Mode:
            assert truth_table(parse(text), Universe(letters), mode).status == status

    def test_rejects_out_of_range_bits(self):
        for letters in [(), ("p", "q")]:
            u = Universe(letters)
            mask = (1 << (1 << len(letters))) - 1
            assert TruthTable(u, mask).bits == mask
            assert TruthTable(u, 0).bits == 0
            for bits in (mask + 1, -1, 1 << 16):
                with pytest.raises(ValueError, match="^bit vector out of range for universe size$"):
                    TruthTable(u, bits)

    @pytest.mark.parametrize("n_letters", range(5))
    def test_bits_hex_matches_format_for_every_bit_vector(self, n_letters):
        u = Universe(tuple("pqrs"[:n_letters]))
        width = max(1, ((1 << n_letters) + 3) // 4)
        for bits in range(1 << (1 << n_letters)):
            assert TruthTable(u, bits).bits_hex() == format(bits, f"0{width}x")

    def test_bits_hex_matches_format_at_20_letters(self):
        u = Universe(tuple(f"x{k}" for k in range(20)))
        rng = random.Random(20)
        mask = (1 << (1 << 20)) - 1
        samples = [0, 1, mask, mask >> 4, 1 << ((1 << 20) - 1)]
        samples += [rng.getrandbits(1 << 20) for _ in range(3)]
        samples.append(truth_table(gen_random_formula(8, u, seed=20), u, Mode.MATERIAL).bits)
        for bits in samples:
            assert TruthTable(u, bits).bits_hex() == format(bits, "0262144x")

    @staticmethod
    def text_by_rows(t, labels):
        """The text table line by line, from `labels` (each row's `row_bits`) and `value_at`."""
        rows = [f"{labels[row]} : {1 if t.value_at(row) else 0}" for row in range(t.rows)]
        return "\n".join([" ".join(t.universe.letters), *rows])

    @pytest.mark.parametrize("n_letters", range(5))
    def test_text_rendering_matches_rows_for_every_bit_vector(self, n_letters):
        u = Universe(tuple("pqrs"[:n_letters]))
        labels = [TruthTable(u, 0).row_bits(row) for row in range(1 << n_letters)]
        for bits in range(1 << (1 << n_letters)):
            t = TruthTable(u, bits)
            assert t.render_text() == self.text_by_rows(t, labels)

    def test_text_rendering_matches_rows_at_12_letters(self):
        u = Universe(tuple(f"x{k}" for k in range(12)))
        labels = [TruthTable(u, 0).row_bits(row) for row in range(1 << 12)]
        rng = random.Random(12)
        for bits in [0, (1 << 4096) - 1, *(rng.getrandbits(1 << 12) for _ in range(4))]:
            t = TruthTable(u, bits)
            assert t.render_text() == self.text_by_rows(t, labels)


def test_lowest_interpretation_of_a_row_set(u_pq):
    assert Interpretation.lowest(u_pq, 0) is None
    assert Interpretation.lowest(u_pq, 0b1100).index == 2
    assert Interpretation.lowest(u_pq, 0b1100).as_dict() == {"p": False, "q": True}


@pytest.mark.parametrize("n_letters", [1, 4, 17, 20])
def test_lowest_is_the_lowest_set_bit(n_letters):
    u = Universe(tuple(f"x{k}" for k in range(n_letters)))
    top = (1 << n_letters) - 1
    rng = random.Random(n_letters)
    rows = {0, 63, 64, 65, top, *(1 << k for k in range(n_letters)), *(rng.randrange(top + 1) for _ in range(8))}
    for row in sorted(r for r in rows if r <= top):
        for above in (0, rng.getrandbits(1 << n_letters)):
            row_set = 1 << row | above >> row << row  # no row below row
            assert Interpretation.lowest(u, row_set).index == (row_set & -row_set).bit_length() - 1 == row
    assert Interpretation.lowest(u, 0) is None


class TestInterpretation:
    def test_one_value_per_letter(self, u_pq):
        with pytest.raises(ValueError, match=r"^1 values for 2 letters$"):
            Interpretation(u_pq, (True,))

    def test_value_by_letter_name(self, u_pq):
        i = Interpretation.from_index(u_pq, 2)
        assert i.value("q") is True
        assert i.value("p") is False
        with pytest.raises(UniverseMismatch) as exc:
            i.value("r")
        assert str(exc.value) == "letter 'r' not in universe ('p', 'q')"


# Each entry point hands "p", or a node over it, to the one walk, which refuses it.
@pytest.mark.parametrize("call", [
    lambda: truth_table("p", Universe(()), Mode.MATERIAL),
    lambda: truth_table(Not("p"), Universe(()), Mode.MATERIAL),
    lambda: subformulas_bottom_up("p"),
    lambda: letters("p"),
    lambda: Universe.of("p"),
    lambda: default_universe("p"),
    lambda: render("p"),
    lambda: hash(Not("p")),
], ids=["truth_table", "truth_table_of_not", "subformulas_bottom_up", "letters", "Universe.of",
        "default_universe", "render", "hash_of_not"])
def test_table_of_a_non_formula_is_refused(call):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == "not a formula: 'p'"


LETTERS_17 = tuple("abcdefghijklmnopq")


# At 17 letters a relational fold raises from _decide_implications, every other fold from
# _evaluate; eliminate_implications raises from _decide_implications at every size.
@pytest.mark.parametrize("letters_of_u", [("a",), LETTERS_17], ids=["1_letter", "17_letters"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("text", ["z & (y -> a)", "(z -> y) -> a"])
def test_stray_letters_are_named_in_sorted_order(text, mode, letters_of_u):
    assert semantics._LOCAL_MIN_LETTERS <= len(LETTERS_17)
    u = Universe(letters_of_u)
    with pytest.raises(UniverseMismatch) as exc:
        truth_table(parse(text), u, mode)
    assert str(exc.value) == f"letters ['y', 'z'] not in universe {u.letters}"
    with pytest.raises(UniverseMismatch) as exc:
        eliminate_implications(parse(text), u)
    assert str(exc.value) == f"letters ['y', 'z'] not in universe {u.letters}"


@pytest.mark.parametrize("row", [-1, 4, 7, 9])
@pytest.mark.parametrize("call", [
    lambda u, row: Interpretation.from_index(u, row),
    lambda u, row: TruthTable(u, 0b0110).value_at(row),
    lambda u, row: TruthTable(u, 0b0110).row_bits(row),
], ids=["from_index", "value_at", "row_bits"])
def test_row_outside_the_table_is_refused(u_pq, call, row):
    with pytest.raises(ValueError) as exc:
        call(u_pq, row)
    assert str(exc.value) == f"row {row} out of range for 2 letters"
    for row in range(4):  # every row of the table is accepted
        call(u_pq, row)


class TestGenRandomFormula:
    def test_depth_zero_is_a_leaf(self):
        u = Universe(("p",))
        f = gen_random_formula(0, u, seed=7)
        assert f in (Letter("p"), TOP, BOTTOM)

    def test_deterministic_for_fixed_seed(self, u_pq):
        a = gen_random_formula(5, u_pq, seed=42)
        b = gen_random_formula(5, u_pq, seed=42)
        assert a == b

    def test_depth_bound_and_letter_scope(self, u_pq):
        for seed in range(200):
            f = gen_random_formula(3, u_pq, seed=seed)
            assert node_depth(f) <= 3
            assert max_imp_depth(f) <= 3
            assert letters(f) <= {"p", "q"}
        assert any(gen_random_formula(3, u_pq, seed=s) != gen_random_formula(3, u_pq, seed=s + 1)
                   for s in range(20))

    def test_negative_depth_is_refused(self, u_pq):
        for seed in range(6):
            with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
                gen_random_formula(-1, u_pq, seed=seed)

    def test_needs_a_letter(self):
        with pytest.raises(ValueError):
            gen_random_formula(2, Universe(()), seed=0)


# Non-truth-functionality: at one and the same row the antecedent/consequent
# values agree, yet the two implications get different relational values.
def test_relational_implication_is_not_truth_functional(u_pq):
    i = interp(u_pq, p=True, q=True)
    assert eval_relational(parse("p -> p"), i) is True
    assert eval_relational(parse("p -> q"), i) is False
    assert eval_material(parse("p -> p"), i) is True
    assert eval_material(parse("p -> q"), i) is True


def test_relational_truth_implies_material_truth_but_not_conversely(u_pq):
    i = interp(u_pq, p=False, q=False)
    assert eval_material(parse("p -> q"), i) is True
    assert eval_relational(parse("p -> q"), i) is False


@given(formulas(("p", "q")), formulas(("p", "q")))
def test_globality_of_implication_values(a, b):
    u = Universe(("p", "q"))
    f = Imp(a, b)
    values = {eval_relational(f, Interpretation.from_index(u, row)) for row in range(4)}
    assert len(values) == 1


@given(imp_free_formulas())
def test_modes_agree_without_implications(f):
    u = Universe(("p", "q", "r"))
    assert truth_table(f, u, Mode.MATERIAL) == truth_table(f, u, Mode.RELATIONAL)


@given(formulas(("p", "q")))
def test_relational_table_matches_pointwise_relational_eval(f):
    u = Universe(("p", "q"))
    t = truth_table(f, u, Mode.RELATIONAL)
    for row in range(t.rows):
        assert t.value_at(row) == eval_relational(f, Interpretation.from_index(u, row))


@given(formulas(("p", "q")))
def test_oracle_agrees_with_relational_evaluation(f):
    names = ("p", "q")
    u = Universe(names)
    expected = oracle_table(f, names)
    t = truth_table(f, u, Mode.RELATIONAL)
    assert [t.value_at(row) for row in range(t.rows)] == expected


@given(formulas(("p", "q")))
def test_universe_extension_does_not_change_elimination(f):
    small = Universe(("p", "q"))
    large = Universe(("p", "q", "r", "s"))
    assert eliminate_implications(f, small) == eliminate_implications(f, large)


@given(formulas(("p", "q")))
def test_eliminated_formula_read_classically_is_the_relational_table(f):
    u = Universe(("p", "q"))
    assert truth_table(eliminate_implications(f, u), u, Mode.MATERIAL) == truth_table(f, u, Mode.RELATIONAL)


def _replace_at(f, path, new):
    if not path:
        return new
    k, rest = path[0], path[1:]
    kids = list(f.children)
    kids[k] = _replace_at(kids[k], rest, new)
    if isinstance(f, Not):
        return Not(kids[0])
    if isinstance(f, And):
        return And(kids[0], kids[1])
    if isinstance(f, Or):
        return Or(kids[0], kids[1])
    if isinstance(f, Imp):
        return Imp(kids[0], kids[1])
    raise AssertionError("leaf has no children")


def _node_at(f, path):
    for k in path:
        f = f.children[k]
    return f


def _innermost_imp_paths(f, path=()):
    out = []
    if isinstance(f, Imp) and max_imp_depth(f) == 1:
        out.append(path)
    for k, child in enumerate(f.children):
        out.extend(_innermost_imp_paths(child, path + (k,)))
    return out


def _random_order_eliminate(f, names, rng):
    """Reduce innermost implications one at a time in random order, deciding
    each with the oracle's criterion rather than the library's tables."""
    while True:
        paths = _innermost_imp_paths(f)
        if not paths:
            return f
        path = rng.choice(paths)
        node = _node_at(f, path)
        value = all(
            (oracle_eval(node.antecedent, env, names) and oracle_eval(node.consequent, env, names))
            == oracle_eval(node.antecedent, env, names)
            for env in assignments(names)
        )
        f = _replace_at(f, path, TOP if value else BOTTOM)


@settings(deadline=None)
@given(formulas(("p", "q")), st.integers(0, 2**32 - 1))
def test_elimination_is_order_independent(f, order_seed):
    names = ("p", "q")
    u = Universe(names)
    rng = random.Random(order_seed)
    assert _random_order_eliminate(f, names, rng) == eliminate_implications(f, u)
