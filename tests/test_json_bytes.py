"""Every --json line is byte for byte json.dumps(envelope, ensure_ascii=False) + "\\n".

The CLI writes the envelope key by key, and a table's bits_hex without an
encoder pass; these tests re-encode each line with json.dumps and compare
bytes, so a separator, an escape or a key order that differs shows.
"""

import io
import json

import pytest

from logicrel.cli import run
from logicrel.formula import Universe
from logicrel.parser import parse
from logicrel.semantics import Mode, truth_table

_KEYS = ["command", "mode", "universe", "result", "witness", "version"]


def _envelope(argv, stdin=None, code=None):
    """Run argv; check the line against json.dumps of its own envelope and return the envelope."""
    got_code, out, err = run(argv, io.StringIO(stdin) if stdin is not None else None)
    assert err == ""
    if code is not None:
        assert got_code == code
    envelope = json.loads(out)
    assert list(envelope) == _KEYS
    assert out.encode("utf-8") == (json.dumps(envelope, ensure_ascii=False) + "\n").encode("utf-8")
    return envelope


def _letters(n):
    return [f"x{k}" for k in range(n)]


def _table_formulas(n):
    """A contingent table, an all-false one and an all-true one over n letters."""
    names = _letters(n)
    return [" & ".join(names), "x0 & ~x0", f"x0 | ~x0 | {names[-1]}", f"x0 -> {names[-1]}"]


@pytest.mark.parametrize("mode", ["material", "relational"])
@pytest.mark.parametrize("n", range(1, 21))
def test_table_lines_match_json_dumps(n, mode):
    u = Universe(tuple(_letters(n)))
    for text in _table_formulas(n):
        envelope = _envelope(
            ["table", text, "--mode", mode, "--universe", ",".join(u.letters), "--json"], code=0
        )
        t = truth_table(parse(text), u, Mode(mode))
        assert envelope["result"] == {"rows": 1 << n, "bits_hex": t.bits_hex()}
        assert envelope["universe"] == list(u.letters)
        assert envelope["witness"] is None


def test_table_lines_include_all_false_and_all_true_tables():
    for n in (1, 8, 20):
        bits = [
            _envelope(["table", text, "--universe", ",".join(_letters(n)), "--json"])["result"]
            for text in ("x0 & ~x0", "x0 | ~x0")
        ]
        width = max(1, (1 << n) // 4)
        assert [b["bits_hex"] for b in bits] == ["0" * width, format((1 << (1 << n)) - 1, "x")]


_QUERIES = [
    ["classify", "p & q"],
    ["classify", "¬p → (p → q)"],
    ["classify", "p | ~p"],
    ["implies", "p & q", "p"],
    ["implies", "p", "q"],
    ["equiv", "p -> q", "~p | q"],
    ["entails", "~p | q", "p -> q"],
    ["relate", "p", "T"],
    ["relate", "p ∧ q", "q"],
    ["audit"],
    ["audit", "¬p", "q ∨ r"],
    ["audit", "x0", "x1", "--universe", ",".join(_letters(17))],
]


_MODED = {"classify", "equiv", "entails"}


@pytest.mark.parametrize(
    "argv",
    [q + m for q in _QUERIES for m in
     ([[], ["--mode", "material"], ["--mode", "relational"]] if q[0] in _MODED else [[]])],
    ids=" ".join,
)
def test_query_lines_match_json_dumps(argv):
    _envelope(argv + ["--json"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_lines_match_json_dumps(n):
    assert _envelope(["lattice", str(n), "--json"], code=0)["result"]["universe_size"] == n


# Unicode spellings, a letter outside ASCII, quotes and backslashes in error
# messages, and a line that is only whitespace (skipped).
_CORPUS_LINES = [
    "¬p → (p → q)",
    "p ∧ ¬p",
    "⊤ ∨ q",
    "p \"q",
    "p\\q",
    "é & p",
    "p -> -> q",
    "(" * 101 + "p" + ")" * 101,
    "   ",
    "# a comment ∧",
    "p & q",
]
_CORPUS = "\n".join(_CORPUS_LINES)
_PAIR_CORPUS = "\n".join(
    line if not line.strip() or line.startswith("#") else f"{line} ; q" for line in _CORPUS_LINES
)


@pytest.mark.parametrize("command", ["classify", "equiv", "implies", "relate", "entails"])
def test_corpus_lines_match_json_dumps(command):
    stdin = _CORPUS if command == "classify" else _PAIR_CORPUS
    records = _envelope([command, "--corpus", "-", "--json"], stdin)["result"]
    assert len(records) == 9
    assert sum("error" in r for r in records) >= 4
    assert any(not r["input"].isascii() for r in records)


def test_non_ascii_text_is_written_raw():
    code, out, _ = run(["classify", "--corpus", "-", "--json"], io.StringIO("¬p ∨ p\n"))
    assert '"input": "¬p ∨ p"' in out
    assert "\\u" not in out
