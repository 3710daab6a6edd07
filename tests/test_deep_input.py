"""Deep and long inputs: every walk is iterative, and parse depth is an explicit limit.

Formulas here are built directly, thousands of levels deep, far past Python's
recursion limit, or parsed from flat chains thousands of terms long.
"""

import io
import json

import pytest

from logicrel.cli import run
from logicrel.formula import (
    And,
    Imp,
    Letter,
    Not,
    Universe,
    letter_sequence,
    letters,
    max_imp_depth,
    subformulas_bottom_up,
)
from logicrel.parser import MAX_NESTING, SyntaxStyle, parse, render
from logicrel.semantics import (
    Interpretation,
    Mode,
    eliminate_implications,
    eval_material,
    eval_relational,
    truth_table,
)

DEPTH = 5000
P, Q = Letter("p"), Letter("q")
U = Universe(("p", "q"))


def not_chain(depth=DEPTH):
    f = P
    for _ in range(depth):
        f = Not(f)
    return f


def and_chain(terms=DEPTH):
    f = P
    for k in range(1, terms):
        f = And(f, Q if k % 2 else P)
    return f


def imp_chain(depth=DEPTH):
    f = P
    for k in range(depth):
        f = Imp(f, Q if k % 2 else P)
    return f


@pytest.mark.parametrize(
    "build, nodes", [(not_chain, DEPTH + 1), (and_chain, 2 * DEPTH - 1), (imp_chain, 2 * DEPTH + 1)]
)
def test_walks_return_on_deep_formulas(build, nodes):
    f = build()
    assert len(subformulas_bottom_up(f)) == nodes
    assert letters(f) <= {"p", "q"}
    assert letter_sequence(f)[0] == "p"
    assert max_imp_depth(f) == (DEPTH if build is imp_chain else 0)
    for m in Mode:
        table = truth_table(f, U, m)
        for row in range(table.rows):
            i = Interpretation.from_index(U, row)
            ev = eval_material if m is Mode.MATERIAL else eval_relational
            assert ev(f, i) == table.value_at(row)
    eliminated = eliminate_implications(f, U)
    assert max_imp_depth(eliminated) == 0
    assert truth_table(eliminated, U, Mode.MATERIAL) == truth_table(f, U, Mode.RELATIONAL)
    text = render(f)
    assert text.count("p") == sum(isinstance(g, Letter) and g.name == "p" for g in subformulas_bottom_up(f))


def test_deep_values():
    assert truth_table(not_chain(), U, Mode.MATERIAL).bits == 0b1010  # an even chain is p
    assert truth_table(and_chain(), U, Mode.MATERIAL).bits == 0b1000  # p & q
    # Relationally the innermost p -> p is T, then T -> q is F, and F -> anything is T.
    assert render(eliminate_implications(imp_chain(3), U)) == "T"
    assert render(not_chain(3)) == "~~~p"
    assert render(and_chain(3)) == "p & q & p"


def test_flat_conjunction_of_2000_terms_is_classified():
    text = " & ".join("pqr"[k % 3] for k in range(2000))
    code, out, err = run(["classify", text])
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "contingent"


@pytest.mark.parametrize(
    "text",
    ["(" * 1000 + "p" + ")" * 1000, "~" * 1000 + "p", "¬" * 1000 + "p", "~(" * 500 + "p" + ")" * 500],
    ids=["parens", "ascii-negations", "unicode-negations", "mixed"],
)
def test_deep_nesting_is_a_limit_error(text):
    code, out, err = run(["classify", text])
    assert (code, out) == (3, "")
    assert err == f"limit error: formula nests deeper than {MAX_NESTING} levels\n"


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("~", ""), ("¬", "")])
def test_nesting_limit_boundary(opener, closer):
    at_limit = opener * MAX_NESTING + "p" + closer * MAX_NESTING
    past_limit = opener + at_limit + closer
    assert render(parse(at_limit)).lstrip("~") == "p"
    assert run(["classify", at_limit])[0] == 1
    assert run(["classify", past_limit])[:2] == (3, "")


def test_sibling_groups_do_not_add_up():
    nested = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
    assert render(parse(" & ".join([nested] * 3))) == "p & p & p"


def test_deep_corpus_line_is_one_error_record():
    stdin = io.StringIO("p | q\n" + "~" * 1000 + "p\np & ~p\n")
    code, out, _ = run(["classify", "--corpus", "-", "--json"], stdin)
    assert code == 3
    records = json.loads(out)["result"]
    assert [r["line"] for r in records] == [1, 2, 3]
    assert records[0]["result"]["label"] == "contingent"
    assert records[1]["error"] == f"formula nests deeper than {MAX_NESTING} levels"
    assert records[2]["result"]["label"] == "contradiction"


IMP_CHAIN = " -> ".join(["p"] * DEPTH)


def test_flat_implication_chain_answers_through_run():
    # p -> (p -> ... -> (p -> p)): the innermost p -> p is T, and p -> T is T.
    assert run(["classify", IMP_CHAIN]) == (0, "tautology\n", "")
    assert run(["table", IMP_CHAIN, "--mode", "material"]) == (0, "p\n0 : 1\n1 : 1\n", "")
    code, out, err = run(["implies", IMP_CHAIN, "p"])
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "fails"
    code, out, err = run(["audit", IMP_CHAIN, "p"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 9


def test_flat_implication_chain_in_corpus_is_one_record():
    stdin = io.StringIO(f"p | q\n{IMP_CHAIN}\np & ~p\n")
    code, out, _ = run(["classify", "--corpus", "-", "--json"], stdin)
    assert code == 1
    records = json.loads(out)["result"]
    assert [r["result"]["label"] for r in records] == ["contingent", "tautology", "contradiction"]


def test_long_chains_compare_hash_and_print():
    f, g = (parse(" & ".join(["p"] * 20000)) for _ in range(2))
    shorter = parse(" & ".join(["p"] * 19999))
    assert f == g and f is not g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    assert f != shorter
    assert repr(f).count("Letter(name='p')") == 20000


def test_long_chains_print_exactly():
    # Left-deep & and right-deep -> chains, checked against text built here.
    n = 20000
    leaf = "Letter(name='p')"
    conjunction = parse(" & ".join(["p"] * n))
    assert repr(conjunction) == "And(left=" * (n - 1) + leaf + f", right={leaf})" * (n - 1)
    assert render(conjunction) == " & ".join(["p"] * n)
    implication = parse(" → ".join(["p"] * n))
    opening = f"Imp(antecedent={leaf}, consequent="
    assert repr(implication) == opening * (n - 1) + leaf + ")" * (n - 1)
    assert render(implication) == "p -> (" * (n - 2) + "p -> p" + ")" * (n - 2)
    assert render(implication, SyntaxStyle.UNICODE) == "p → (" * (n - 2) + "p → p" + ")" * (n - 2)
