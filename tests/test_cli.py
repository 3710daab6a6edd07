import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from logicrel import cli, equivalence, relation, semantics
from logicrel.cli import main, run
from logicrel.limits import max_letters
from logicrel.parser import parse, render

from cli_cases import CASES, run_case

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden(case):
    code, out, err = run_case(case)
    assert code == case.code
    assert err == case.stderr
    assert out == case.stdout_file.read_text(encoding="utf-8")


def test_relate_goldens_cover_every_kind_and_degenerate_flag():
    kinds, flags = set(), set()
    for case in CASES:
        if case.argv[0] != "relate" or case.code != 0:
            continue
        out = case.stdout_file.read_text(encoding="utf-8")
        if "--json" in case.argv:
            result = json.loads(out)["result"]
            kinds.add(result["kind"])
            flags.update(result["degenerate"])
        else:
            kind, *rest = out.splitlines()
            kinds.add(kind)
            for line in rest:
                assert line.startswith("degenerate: "), case.name
                flags.update(line.split()[1:])
    assert kinds == {kind.value for kind in relation.RelationKind}
    assert flags == {relation.FIRST_IS_BOTTOM, relation.FIRST_IS_TOP,
                     relation.SECOND_IS_BOTTOM, relation.SECOND_IS_TOP}


def test_json_envelope_key_order():
    code, out, _ = run(["classify", "p", "--json"])
    assert code == 1
    env = json.loads(out)
    assert list(env.keys()) == ["command", "mode", "universe", "result", "witness", "version"]
    assert env["version"]


def test_json_is_deterministic():
    first = run(["audit", "--json"])
    second = run(["audit", "--json"])
    assert first == second


def test_unknown_subcommand_is_usage_error():
    code, out, err = run(["frobnicate"])
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_help_exits_zero():
    code, out, err = run(["--help"])
    assert code == 0
    assert "classify" in out and "lattice" in out


def test_inline_and_corpus_are_mutually_exclusive():
    code, _, err = run(["classify", "p", "--corpus", "whatever.txt"])
    assert code == 2
    assert "not both" in err


def test_missing_corpus_file_is_input_error():
    code, _, err = run(["classify", "--corpus", "/nonexistent/corpus.txt"])
    assert code == 2
    assert "input error" in err


def test_corpus_stdin_requires_stdin():
    code, _, err = run(["classify", "--corpus", "-"], stdin=None)
    assert code == 2
    assert "stdin" in err


def test_dot_conflicts_with_json():
    code, _, err = run(["lattice", "1", "--dot", "--json"])
    assert code == 2
    assert "mutually exclusive" in err


def test_bad_universe_letters_are_input_errors():
    code, _, err = run(["classify", "p", "--universe", "p,P"])
    assert code == 2
    assert "input error" in err


def test_mode_material_vs_relational_default():
    rel = run(["classify", "p -> q"])
    mat = run(["classify", "p -> q", "--mode", "material"])
    assert rel[0] == 1 and "contradiction" in rel[1]
    assert mat[0] == 1 and "contingent" in mat[1]


def _tables_built(monkeypatch, argv: list[str]) -> tuple[int, str, int]:
    """Run argv, counting truth tables built: (exit code, stdout, table count)."""
    original = semantics.truth_table
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, equivalence, relation, semantics):
        if getattr(module, "truth_table", None) is original:
            monkeypatch.setattr(module, "truth_table", counting)
    code, out, _ = run(argv)
    return code, out, len(calls)


@pytest.mark.parametrize("command", ["implies", "equiv", "entails", "relate"])
def test_implies_builds_two_tables(monkeypatch, command):
    # Every pair command is judged from one table per operand; implies reads
    # its three criteria and its witness from those two tables.
    code, out, tables = _tables_built(monkeypatch, [command, "p & q", "p"])
    assert (code, out.splitlines()[0]) == {
        "implies": (0, "holds"), "equiv": (1, "fails"), "entails": (0, "holds"),
        "relate": (0, "inclusion_forward"),
    }[command]
    assert tables == 2


PAIR_COMMANDS = ["implies", "equiv", "entails", "relate", "audit"]


@pytest.mark.parametrize("command", PAIR_COMMANDS)
def test_pair_commands_report_the_first_operands_stray_letters(command):
    # The first operand's table is built first, so its lookup reports the
    # letters outside the universe; the second operand is never folded.
    assert run([command, "x & p", "y", "--universe", "p"]) == (
        2, "", "universe error: letters ['x'] not in universe ('p',)\n"
    )


@pytest.mark.parametrize("command", PAIR_COMMANDS)
def test_pair_commands_report_the_second_operands_stray_letters(command):
    assert run([command, "p", "y", "--universe", "p"]) == (
        2, "", "universe error: letters ['y'] not in universe ('p',)\n"
    )


def test_audit_builds_four_tables(monkeypatch):
    # One table per operand and mode; each schema is composed from them over
    # two placeholder letters, and none is folded over the universe.
    original, folded = semantics._fold, []

    def recording(f, u, m):
        folded.append((render(f), m))
        return original(f, u, m)

    monkeypatch.setattr(semantics, "_fold", recording)
    code, out, tables = _tables_built(monkeypatch, ["audit", "p", "q"])
    assert code == 0
    assert out.startswith("P1 ")
    assert tables == 4
    assert len(folded) == 4
    assert set(folded) == {(name, m) for name in "pq" for m in semantics.Mode}


# Help, usage errors, answers and an input error, each answered through argparse.
REUSE_ARGVS = [
    ["--help"],
    ["classify", "--help"],
    ["implies", "--help"],
    ["lattice", "--help"],
    ["audit", "--help"],
    ["frobnicate"],
    [],
    ["classify"],
    ["table"],
    ["classify", "p", "--mode", "fuzzy"],
    ["lattice", "x"],
    ["classify", "p", "--frob"],
    ["lattice", "2", "--dot"],
    ["lattice", "1", "--json"],
    ["implies", "p & q", "p", "--json"],
    ["equiv", "p -> q", "~p | q", "--universe", "p,q,r"],
    ["audit"],
    ["table", "p -> q", "--mode", "material", "--json"],
    ["relate", "p", "~p"],
    ["entails", "p & q", "p"],
    ["classify", "p", "--corpus", "x"],
]


def test_reused_parser_answers_as_a_fresh_one(monkeypatch):
    # The reused parser is built at the first width and then answers at all of them.
    def answers(fresh: bool) -> dict:
        got = {}
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in REUSE_ARGVS:
                if fresh:
                    cli._parser.cache_clear()
                got[(columns, *argv)] = run(argv)
        return got

    fresh = answers(fresh=True)
    assert fresh[("40", "classify", "--help")] != fresh[("200", "classify", "--help")]
    cli._parser.cache_clear()
    for _ in range(2):
        assert answers(fresh=False) == fresh


def test_parser_is_built_once(monkeypatch):
    original, built = cli.build_parser, []

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for _ in range(10):
        run(["classify", "p"])
    assert len(built) == 1


def test_patched_handler_is_seen(monkeypatch):
    run(["lattice", "1"])  # the parser exists before the patch
    monkeypatch.setattr(cli, "_lattice", lambda ns, out, stdin: 7)
    assert run(["lattice", "1"]) == (7, "", "")


@pytest.mark.parametrize("command, name", [("equiv", "equivalent"), ("entails", "entails")])
def test_patched_verdict_function_is_seen(monkeypatch, command, name):
    # A wrapper patched into cli after the parser exists, as a tracer does,
    # answers every query of the command.
    run([command, "p", "q"])
    original, calls = getattr(cli, name), []

    def wrapped(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, wrapped)
    expected = run([command, "p & q", "p"])
    monkeypatch.undo()
    assert len(calls) == 1 and calls[0][:2] == (parse("p & q"), parse("p"))
    assert expected == run([command, "p & q", "p"])


# The CLI surface, written out: operands as --help lists them, and the flags
# each subcommand takes.  Only the usage line is read; help wording differs
# across Python versions.
SURFACE = {
    "classify": (["formula"], {"--json", "--universe", "--mode", "--corpus"}),
    "implies": (["first", "second"], {"--json", "--universe", "--corpus"}),
    "equiv": (["first", "second"], {"--json", "--universe", "--mode", "--corpus"}),
    "entails": (["first", "second"], {"--json", "--universe", "--mode", "--corpus"}),
    "relate": (["first", "second"], {"--json", "--universe", "--corpus"}),
    "table": (["formula"], {"--json", "--universe", "--mode"}),
    "audit": (["first", "second"], {"--json", "--universe"}),
    "lattice": (["n"], {"--dot", "--json"}),
}
FLAGS = {"--json", "--universe", "--mode", "--corpus", "--dot"}


@pytest.mark.parametrize("command", SURFACE)
def test_subcommand_surface(command):
    operands, flags = SURFACE[command]
    code, out, err = run([command, "--help"])
    assert (code, err) == (0, "")
    usage = " ".join(out.split("\n\n")[0].split())
    assert usage.startswith(f"usage: logicrel {command} ")
    assert {flag for flag in FLAGS if f"[{flag}" in usage} == flags
    bare = re.sub(r"\[-[^\]]*\]", "", usage.removeprefix(f"usage: logicrel {command} "))
    assert [word.strip("[]") for word in bare.split()] == operands


def test_table_without_formula_is_usage_error():
    code, out, err = run(["table"])
    assert (code, out) == (2, "")
    assert err.startswith("usage:")


def test_main_exits_with_run_code_and_writes_its_output(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["logicrel", "classify", "p & q", "--mode", "material"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == run(["classify", "p & q", "--mode", "material"])[1:]
    assert captured.out.startswith("contingent\n")


def test_readme_invocations():
    # Every `logicrel` line of a README `sh` block runs as its comment says.
    ran, in_sh = set(), False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        if not (in_sh and line.startswith("logicrel ")):
            continue
        command, _, comment = line.partition(" #")
        argv = shlex.split(command)[1:]
        code, out, err = run(argv)
        assert code in (0, 1) and err == "" and out, line
        stated = re.search(r"\bexit (\d+)", comment)
        if stated:
            assert code == int(stated.group(1)), line
        ran.add(" ".join(argv))
    # "Experiments" shows every paradox audit, the failure-case preconditions
    # and the lattice laws for n = 1..4.
    pairs = ["p q", "p ~p", "p p", "p & q p"]
    wanted = {f"audit {pair}" for pair in pairs} | {f"audit {pair} --json" for pair in pairs}
    wanted |= {"relate p ~p"} | {f"lattice {n}" for n in range(1, 5)}
    assert wanted <= ran


def test_readme_library_values():
    # Each expression of the README `python` block has the repr its `# value`
    # comment states, trailing on the same line or alone on the next one.
    scope, pending, checked, in_python = {}, None, 0, False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_python = line == "```python"
            continue
        if not in_python or not line.strip():
            continue
        code, _, stated = (part.strip() for part in line.partition("#"))
        if code:
            assert pending is None, f"no value stated for {pending[0]}"
            try:
                expression = compile(code, "README.md", "eval")
            except SyntaxError:
                exec(code, scope)
                continue
            pending = (code, eval(expression, scope))
        if stated and pending:
            assert repr(pending[1]) == stated, pending[0]
            pending, checked = None, checked + 1
    assert pending is None, f"no value stated for {pending[0]}"
    assert checked >= 6


@pytest.mark.parametrize(
    "formula, code, out, err",
    [("p q", 2, "", "parse error: "), ("p | ~p", 0, "tautology\n", "")],
)
def test_module_entry_point(formula, code, out, err):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "logicrel.cli", "classify", formula],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr.startswith(err) if err else proc.stderr == ""


# Each operand is within the limit in the second case; the universe of both is not.
@pytest.mark.parametrize(
    "argv", [["classify", "p", "--universe", "a,b,c"], ["equiv", "p & q", "r"]]
)
def test_letter_limit_counts_the_whole_universe(monkeypatch, argv):
    monkeypatch.setenv("LOGICREL_MAX_LETTERS", "2")
    assert run(argv) == (3, "", "limit error: universe has 3 letters, limit is 2\n")


def test_letter_limit_setting_has_a_ceiling(monkeypatch):
    def refuse(n_letters):
        raise AssertionError(f"row patterns built for {n_letters} letters")

    monkeypatch.setattr(semantics, "_letter_patterns", refuse)
    monkeypatch.setenv("LOGICREL_MAX_LETTERS", "30")
    assert run(["classify", "p"]) == (
        3, "", "limit error: LOGICREL_MAX_LETTERS must be at most 24, got 30\n"
    )
    monkeypatch.setenv("LOGICREL_MAX_LETTERS", "24")
    assert max_letters() == 24


# Pieces of the argv soups below: every subcommand and flag, the edge
# integers of `lattice`, bad `--universe` lists, good and bad formulas, and
# tokens that no subcommand takes.
_SOUP_INTEGERS = ["0", "-1", "1", "2", "5", str(10**20), "x"]
_SOUP_FORMULAS = ["p", "p -> q", "~p -> (p -> q)", "p & q -> p", "(p -> q) | (q -> p)",
                  "¬p → (p → q)", "⊤ ∧ ⊥", "T", "F", "a1 & b_2 | ~c", "q -> ~(p -> r)"]
_SOUP_BAD_FORMULAS = ["p -> -> q", "", "(", "p q", "P", "p; q", "(" * 101 + "p" + ")" * 101,
                      "~" * 101 + "p", " & ".join(f"a{k}" for k in range(21))]
_SOUP_UNIVERSES = ["p,q,r", "p, q,r,a1,b_2,c", "p", "", ",", "p,,q", "p,p", "P", "1a", "p;q",
                   ",".join(f"a{k}" for k in range(21))]
_SOUP_JUNK = ["frobnicate", "--", "-x", "--dot", "--mode", "--universe", "--corpus", "--help"]
_SOUP_LIMITS = ["abc", "0", "25"]  # or unset, in half of the soups


def _soup(rng, missing):
    """One seeded argv, stdin and letter-limit setting, drawn from the pieces above.

    Most soups are a subcommand with its operands and some of its flags, so
    that they get past argparse; the rest miss an operand or add junk.
    """
    command = rng.choice([*cli.COMMANDS, "lattice"])
    spec = cli.COMMANDS.get(command)

    def formula():
        return rng.choice(_SOUP_BAD_FORMULAS if rng.random() < 0.2 else _SOUP_FORMULAS)

    flags = {"--json": []}
    if spec is None:
        argv = [command, rng.choice(_SOUP_INTEGERS)]
        flags["--dot"] = []
    else:
        argv = [command] + [formula() for _ in spec.operands]
        flags["--universe"] = [rng.choice(_SOUP_UNIVERSES)]
        if spec.mode is None:
            flags["--mode"] = [rng.choice(["material", "relational", "bogus"])]
        if spec.corpus and rng.random() < 0.3:
            argv = [command, "--corpus", rng.choice(["-", "-", str(missing), str(missing.parent)])]
    for flag, value in flags.items():
        if rng.random() < 0.3:
            argv += [flag, *value]
    if rng.random() < 0.1:
        del argv[rng.randrange(1, len(argv))]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_SOUP_JUNK))
    lines = [" ; ".join(formula() for _ in range(rng.randrange(1, 4))) if rng.random() < 0.9
             else "# comment" for _ in range(rng.randrange(4))]
    stdin = rng.choice([None, io.StringIO("\n".join(lines))])
    return argv, stdin, rng.choice(_SOUP_LIMITS) if rng.random() < 0.5 else None


def test_argv_soups_exit_per_the_contract(monkeypatch, tmp_path):
    rng = random.Random(4)
    missing = tmp_path / "missing.txt"
    for _ in range(2000):
        argv, stdin, limit = _soup(rng, missing)
        if limit is None:
            monkeypatch.delenv("LOGICREL_MAX_LETTERS", raising=False)
        else:
            monkeypatch.setenv("LOGICREL_MAX_LETTERS", limit)
        code, _, err = run(argv, stdin)
        assert code in (0, 1, 2, 3), (argv, limit)
        assert "Traceback" not in err, (argv, limit)
