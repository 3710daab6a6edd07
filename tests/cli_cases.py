"""Golden-file CLI cases shared by the CLI tests and the acceptance suite.

Each case pins argv, optional stdin, optional env, the exit code, the exact
stdout (stored under tests/golden/), and the exact stderr (inline: error
output is short).  run_case runs one case; every runner of cases calls it.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from pathlib import Path

from logicrel.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple[str, ...]
    code: int
    stdin: str | None = None
    env: dict[str, str] = field(default_factory=dict)
    stderr: str = ""

    @property
    def stdout_file(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.out"


def run_case(case: CliCase) -> tuple[int, str, str]:
    """Run one case in process with its env and stdin; the environment is restored after."""
    saved = {key: os.environ.get(key) for key in case.env}
    os.environ.update(case.env)
    try:
        stdin = io.StringIO(case.stdin) if case.stdin is not None else None
        return run(list(case.argv), stdin)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


_CORPUS_FORMULAS = str(GOLDEN_DIR / "corpus_formulas.txt")
_CORPUS_PAIRS = str(GOLDEN_DIR / "corpus_pairs.txt")
_LETTERS_17 = ",".join(f"x{k}" for k in range(17))
_LETTERS_20 = ",".join(f"x{k}" for k in range(20))
_AND_20 = " & ".join(f"x{k}" for k in range(20))

CASES = [
    # classify: exit 0 on a tautology, 1 otherwise
    CliCase("classify_material_tautology",
            ("classify", "(p -> q) | (q -> p)", "--mode", "material"), 0),
    CliCase("classify_relational_contradiction",
            ("classify", "(p -> q) | (q -> p)", "--mode", "relational"), 1),
    CliCase("classify_relational_contradiction_json",
            ("classify", "(p -> q) | (q -> p)", "--json"), 1),
    CliCase("classify_contingent_material",
            ("classify", "p & q", "--mode", "material"), 1),
    CliCase("classify_contingent_json",
            ("classify", "p & q", "--mode", "material", "--json"), 1),
    # implies: the three-way criteria report
    CliCase("implies_meet", ("implies", "p & q", "p"), 0),
    CliCase("implies_fails", ("implies", "p", "q"), 1),
    CliCase("implies_fails_json", ("implies", "p", "q", "--json"), 1),
    # equiv / entails and the replacement asymmetry
    CliCase("equiv_material_replacement",
            ("equiv", "p -> q", "~p | q", "--mode", "material"), 0),
    CliCase("equiv_relational_replacement_fails",
            ("equiv", "p -> q", "~p | q"), 1),
    CliCase("entails_relational_forward", ("entails", "p -> q", "~p | q"), 0),
    CliCase("entails_relational_backward_fails",
            ("entails", "~p | q", "p -> q", "--json"), 1),
    # table, both encodings, universe override
    CliCase("table_material", ("table", "p -> q", "--mode", "material"), 0),
    CliCase("table_material_json",
            ("table", "p -> q", "--mode", "material", "--json"), 0),
    CliCase("table_relational_json", ("table", "p -> q", "--json"), 0),
    CliCase("table_universe_override",
            ("table", "p -> q", "--mode", "material", "--universe", "q,p", "--json"), 0),
    # relate
    CliCase("relate_joint", ("relate", "p", "q"), 0),
    CliCase("relate_degenerate_top", ("relate", "p", "T", "--json"), 0),
    CliCase("relate_disjoint", ("relate", "p", "~p"), 0),
    CliCase("relate_inclusion_backward_json", ("relate", "p | q", "p", "--json"), 0),
    CliCase("relate_equivalent", ("relate", "p & q", "q & p"), 0),
    CliCase("relate_degenerate_bottom_top", ("relate", "F", "T"), 0),
    CliCase("relate_degenerate_first_top_json", ("relate", "T", "p", "--json"), 0),
    CliCase("relate_degenerate_second_bottom", ("relate", "p", "F"), 0),
    # audit
    CliCase("audit_default", ("audit",), 0),
    CliCase("audit_same_letter", ("audit", "p", "p"), 0),
    CliCase("audit_json", ("audit", "--json"), 0),
    # operands whose relational and material tables differ: q | (p -> q) is q
    # relationally, q | ~p materially, so only the relational verdicts tell
    # which of the two tables each schema was judged from
    CliCase("audit_implication_operand", ("audit", "q | (p -> q)", "q"), 0),
    # universes from semantics._LOCAL_MIN_LETTERS (17) letters on decide implications in place
    CliCase("audit_17_letters_json", ("audit", "x0", "x1", "--universe", _LETTERS_17, "--json"), 0),
    CliCase("audit_20_letters_implication_json",
            ("audit", "x19 | (x0 -> x19)", "x19", "--universe", _LETTERS_20, "--json"), 0),
    CliCase("classify_17_letters_relational",
            ("classify", "x0 -> (x1 -> x0)", "--universe", _LETTERS_17), 1),
    CliCase("classify_17_letters_material",
            ("classify", "x0 -> (x1 -> x0)", "--universe", _LETTERS_17, "--mode", "material"), 0),
    # the lowest false row and the refuting row are the top row, 2^20 - 1
    CliCase("classify_20_letters_top_row_false",
            ("classify", f"~({_AND_20})", "--mode", "material", "--universe", _LETTERS_20), 1),
    CliCase("entails_20_letters_top_row_json",
            ("entails", _AND_20, "~x0", "--universe", _LETTERS_20, "--json"), 1),
    CliCase("implies_17_letters_json",
            ("implies", "x16 & (x0 -> x0)", "x1", "--universe", _LETTERS_17, "--json"), 1),
    # lattice and the DOT export
    CliCase("lattice_1", ("lattice", "1"), 0),
    CliCase("lattice_2_json", ("lattice", "2", "--json"), 0),
    CliCase("lattice_1_dot", ("lattice", "1", "--dot"), 0),
    # corpus batch mode, one record per line, no global abort
    CliCase("corpus_classify", ("classify", "--corpus", _CORPUS_FORMULAS), 2),
    CliCase("corpus_equiv_json", ("equiv", "--corpus", _CORPUS_PAIRS, "--json"), 1),
    CliCase("corpus_stdin", ("classify", "--corpus", "-"), 0,
            stdin="p | ~p\n# comment\nT\n"),
    CliCase("corpus_pair_separator", ("equiv", "--corpus", "-"), 2,
            stdin="p ; q\np\np ; q ; r\nq ; q\n"),
    # error paths: exit 2 on bad input, 3 on limit violations
    CliCase("error_parse", ("classify", "p -> -> q"), 2,
            stderr="parse error: unexpected '->' at offset 5, expected one of "
                   "'(', 'F', 'T', '~', letter\n"),
    CliCase("error_parse_stray_dash", ("classify", "p - q"), 2,
            stderr="parse error: stray '-' at offset 2, expected one of '->'\n"),
    CliCase("error_parse_uppercase_letter", ("classify", "P & q"), 2,
            stderr="parse error: invalid letter name 'P' (letters start lowercase) at offset 0\n"),
    CliCase("error_parse_unexpected_character", ("classify", "p ? q"), 2,
            stderr="parse error: unexpected character '?' at offset 2\n"),
    # offsets count UTF-8 bytes: the two-byte '¬' puts '?' at offset 4
    CliCase("error_parse_utf8_offset", ("classify", "¬p ? q"), 2,
            stderr="parse error: unexpected character '?' at offset 4\n"),
    CliCase("error_parse_end_of_input", ("classify", "p &"), 2,
            stderr="parse error: unexpected end of input at offset 3, expected one of "
                   "'(', 'F', 'T', '~', letter\n"),
    CliCase("error_parse_after_operand", ("classify", "p q"), 2,
            stderr="parse error: unexpected 'q' at offset 2, expected one of "
                   "'&', '->', '|', end of input\n"),
    CliCase("error_parse_unclosed", ("classify", "(p"), 2,
            stderr="parse error: unexpected end of input at offset 2, expected one of "
                   "'&', ')', '->', '|'\n"),
    CliCase("error_nesting_limit", ("classify", "(" * 101 + "p" + ")" * 101), 3,
            stderr="limit error: formula nests deeper than 100 levels\n"),
    CliCase("error_missing_operand", ("equiv", "p"), 2,
            stderr="input error: missing operand(s): second\n"),
    CliCase("error_limit_env", ("classify", "p & q & r"), 3,
            env={"LOGICREL_MAX_LETTERS": "2"},
            stderr="limit error: formula uses 3 distinct letters, limit is 2\n"),
    # an invalid setting is read once per invocation and refused only at the
    # first letter check: a parse error or a missing operand comes first, and
    # an empty corpus reaches no check
    CliCase("error_limit_env_invalid_after_parse_error", ("classify", "p -> -> q"), 2,
            env={"LOGICREL_MAX_LETTERS": "abc"},
            stderr="parse error: unexpected '->' at offset 5, expected one of "
                   "'(', 'F', 'T', '~', letter\n"),
    CliCase("error_limit_env_invalid_after_missing_operand", ("equiv", "p"), 2,
            env={"LOGICREL_MAX_LETTERS": "abc"},
            stderr="input error: missing operand(s): second\n"),
    CliCase("error_limit_env_invalid_empty_corpus", ("classify", "--corpus", "-"), 0,
            stdin="", env={"LOGICREL_MAX_LETTERS": "abc"}),
    CliCase("error_limit_env_invalid", ("classify", "p"), 3,
            env={"LOGICREL_MAX_LETTERS": "abc"},
            stderr="limit error: LOGICREL_MAX_LETTERS must be an integer, got 'abc'\n"),
    CliCase("error_lattice_range", ("lattice", "0"), 3,
            stderr="limit error: lattice verification supports 1 <= n <= 4, got 0\n"),
    CliCase("error_lattice_dot_huge", ("lattice", "99999999999999999999", "--dot"), 3,
            stderr="limit error: Hasse export supports 1 <= n <= 2, got 99999999999999999999\n"),
    CliCase("error_lattice_dot_negative", ("lattice", "-1", "--dot"), 3,
            stderr="limit error: Hasse export supports 1 <= n <= 2, got -1\n"),
    CliCase("error_universe_mismatch",
            ("classify", "p & q", "--universe", "p"), 2,
            stderr="universe error: letters ['q'] not in universe ('p',)\n"),
    CliCase("error_universe_mismatch_two_letters",
            ("relate", "z & (y -> a)", "(z -> y) -> a", "--universe", "a"), 2,
            stderr="universe error: letters ['y', 'z'] not in universe ('a',)\n"),
    CliCase("error_universe_mismatch_audit",
            ("audit", "x & p", "y", "--universe", "p"), 2,
            stderr="universe error: letters ['x'] not in universe ('p',)\n"),
]
