"""The program path: tables read each formula's post-order codes, and nodes are built only when read.

`parse` emits a formula's program and builds no node; the evaluator folds the
program, and a parsed root builds its children only when something reads
them.  Here tables of parsed roots, of trees built by the constructors and of
trees built over parsed operands whose letters come in different
first-occurrence orders are checked against the brute-force oracle in both
modes, at 1-4 letters and at 20 letters, where relational implications are
decided in place.  The query commands other than `audit` must answer with no
node built, inline and per corpus line, and a built tree must be the one the
reference parser gives.
"""

import io
import json
import random

import pytest

from logicrel import formula, semantics
from logicrel.cli import COMMANDS, run
from logicrel.formula import And, Not, Or, Universe, program
from logicrel.parser import parse
from logicrel.relation import paradox_formula
from logicrel.semantics import Mode, eliminate_implications, truth_table

import reference_parser
from cli_cases import CASES, run_case
from oracle import oracle_table
from test_walk_cache import OPERAND_IDS, OPERAND_TEXTS, rebuilt

SMALL = ("p", "q", "r", "s")
TEXTS = [
    "p", "T", "~F", "~p", "T -> F", "p & q -> q", "q -> (T -> F)", "(p -> q) -> (r -> s)",
    "~(p -> q) & (r | s -> r) | s", "(s -> p) & (q -> r)", "r | ~(q -> p -> r) & s",
] + OPERAND_TEXTS[:40]


def refuse_nodes(monkeypatch):
    def refuse(*args, **named):
        raise AssertionError("a node was built")

    monkeypatch.setattr(formula._Connective, "__init__", refuse)


def composites(seed):
    """Trees built over parsed operands whose letters come in different first-occurrence orders."""
    pairs = [("q & p", "p | r"), ("r -> q", "s & ~(p -> r)"), (TEXTS[11 + seed], TEXTS[-1 - seed])]
    fs = [And(parse(a), parse(b)) for a, b in pairs[:2]]
    fs.append(Or(parse(pairs[1][0]), Not(parse(pairs[1][1]))))
    for a, b in pairs:
        fs += [paradox_formula(schema, parse(a), parse(b)) for schema in ("P1", "P2", "P3")]
    return fs


def oracle_rows(f, names, mode):
    return oracle_table(f, names, material=mode is Mode.MATERIAL)


def rows(t):
    return [t.value_at(row) for row in range(t.rows)]


def universes(f):
    """f's own universe, and all of SMALL in an order that is not its first occurrence."""
    return [Universe.of(f), Universe(SMALL[::-1])]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("text", TEXTS)
def test_parsed_and_built_tables_match_the_oracle(monkeypatch, text, mode):
    reference = rebuilt(parse(text))
    for u in universes(reference):
        refuse_nodes(monkeypatch)
        parsed = truth_table(parse(text), u, mode)
        monkeypatch.undo()
        assert rows(parsed) == rows(truth_table(reference, u, mode)) == oracle_rows(reference, u.letters, mode)


def test_comparing_parsed_roots_builds_no_node(monkeypatch):
    """==, != and hash read each root's cached program: no node is built, and no root's children."""
    texts = TEXTS + OPERAND_TEXTS[-1:]
    references = [rebuilt(parse(text)) for text in texts]
    refuse_nodes(monkeypatch)
    roots, again = [parse(text) for text in texts], [parse(text) for text in texts]
    for k, text in enumerate(texts):
        f, g = roots[k], again[k]
        assert f == g and not f != g and hash(f) == hash(g), text
        assert f == references[k] and hash(f) == hash(references[k]), text
        differs = references[k] != references[k - 1]
        assert (f != roots[k - 1]) == differs and (f == roots[k - 1]) != differs, text
    for f in roots + again:
        if f._walk is not None:  # a connective root: its children are still unread
            with pytest.raises(AttributeError):
                object.__getattribute__(f, "children")


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(4))
def test_trees_over_parsed_operands_match_the_oracle(seed, mode):
    for f in composites(seed):
        reference = rebuilt(f)
        assert program(f) == program(reference)
        for u in universes(f):
            assert rows(truth_table(f, u, mode)) == oracle_rows(reference, u.letters, mode), f


def projection(row, positions):
    """The small-universe row whose letter j takes bit positions[j] of the wide row."""
    return sum(((row >> pos) & 1) << j for j, pos in enumerate(positions))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(3))
def test_tables_at_20_letters_extend_the_oracle_at_sampled_rows(seed, mode):
    """Each small letter sits at a random position among 20, so program letters and universe positions differ."""
    assert semantics._LOCAL_MIN_LETTERS <= 20  # relational tables here take the in-place path
    rng = random.Random(seed)
    positions = rng.sample(range(20), len(SMALL))
    names = [f"w{k}" for k in range(20)]
    for name, pos in zip(SMALL, positions):
        names[pos] = name
    wide = Universe(names)
    sampled = [0, (1 << 20) - 1] + [rng.randrange(1 << 20) for _ in range(150)]
    texts = TEXTS[:11] + [TEXTS[11 + seed * 9 + k] for k in range(9)]
    fs = [parse(text) for text in texts] + [rebuilt(parse(text)) for text in texts] + composites(seed)
    for f in fs:
        small = oracle_rows(rebuilt(f), SMALL, mode)
        t = truth_table(f, wide, mode)
        assert all(t.value_at(row) == small[projection(row, positions)] for row in sampled), f


@pytest.mark.parametrize("n_letters", [len(SMALL), 20])
def test_elimination_of_a_parsed_root_equals_that_of_its_rebuilt_tree(n_letters):
    u = Universe(SMALL[::-1] + tuple(f"w{k}" for k in range(n_letters - len(SMALL))))
    for text in TEXTS:
        assert eliminate_implications(parse(text), u) == eliminate_implications(rebuilt(parse(text)), u), text


QUERY_CASES = [case for case in CASES if case.argv[0] in COMMANDS and case.argv[0] != "audit"]


def test_query_commands_build_no_node(monkeypatch):
    assert {case.argv[0] for case in QUERY_CASES} == set(COMMANDS) - {"audit"}
    refuse_nodes(monkeypatch)
    for case in QUERY_CASES:
        code, out, err = run_case(case)
        assert (code, err, out) == (case.code, case.stderr, case.stdout_file.read_text(encoding="utf-8")), case.name


def corpus_twin(case):
    """The argv and stdin that answer an inline case's query as the one line of --corpus -."""
    arity = len(COMMANDS[case.argv[0]].operands)
    line = "; ".join(case.argv[1:1 + arity])
    return [case.argv[0], "--corpus", "-", *case.argv[1 + arity:]], line


INLINE_CASES = [case for case in QUERY_CASES
                if COMMANDS[case.argv[0]].corpus and "--corpus" not in case.argv and case.code in (0, 1)]


def test_corpus_lines_build_no_node_and_answer_as_inline(monkeypatch):
    assert {case.argv[0] for case in INLINE_CASES} == set(COMMANDS) - {"audit", "table"}
    refuse_nodes(monkeypatch)
    for case in INLINE_CASES:
        argv, line = corpus_twin(case)
        code, out, err = run(argv, io.StringIO(line + "\n"))
        golden = case.stdout_file.read_text(encoding="utf-8")
        assert (code, err) == (case.code, ""), case.name
        if "--json" in argv:
            inline, [record] = json.loads(golden), json.loads(out)["result"]
            assert record == {"line": 1, "input": line, "result": inline["result"], "witness": inline["witness"]}
        else:
            assert out == "1: " + "; ".join(golden.splitlines()) + "\n", case.name


@pytest.mark.parametrize("text", OPERAND_TEXTS, ids=OPERAND_IDS)
def test_built_children_are_kept_and_match_the_reference_parser(text):
    f = parse(text)
    children = f.children
    assert f.children is children
    expected = reference_parser.parse(text)
    assert f == expected and repr(f) == repr(expected)
    assert f.children is children
