"""The letter-limit setting: what it accepts, and how often it is read.

`cli.run` reads LOGICREL_MAX_LETTERS once per invocation and every check in
that invocation uses the read; a library call outside `run` reads it at each
check.
"""

import io
import os
import re
import threading

import pytest

from logicrel import cli, limits
from logicrel.cli import run
from logicrel.errors import LimitError
from logicrel.formula import Universe
from logicrel.parser import parse

_VAR = "LOGICREL_MAX_LETTERS"


@pytest.mark.parametrize("raw", ["2_0", "٣", "²", "0x10", "1e1", "20.0", "", " ", "+", "- 3"])
def test_setting_other_than_ascii_digits_is_refused(monkeypatch, raw):
    monkeypatch.setenv(_VAR, raw)
    with pytest.raises(LimitError, match=re.escape(f"{_VAR} must be an integer, got {raw!r}")):
        limits.max_letters()


@pytest.mark.parametrize("raw", ["2_0", "٣"])
def test_cli_refuses_non_ascii_digit_settings(monkeypatch, raw):
    monkeypatch.setenv(_VAR, raw)
    assert run(["classify", "p & q & r & s"]) == (
        3, "", f"limit error: {_VAR} must be an integer, got {raw!r}\n"
    )


@pytest.mark.parametrize(
    "raw, value", [("3", 3), (" 20 ", 20), ("\t+7\n", 7), ("024", 24), ("+1", 1)]
)
def test_ascii_digits_with_sign_and_whitespace_are_read(monkeypatch, raw, value):
    monkeypatch.setenv(_VAR, raw)
    assert limits.max_letters() == value


@pytest.mark.parametrize("raw, message", [("-3", "at least 1, got -3"), ("-0", "at least 1, got 0")])
def test_signed_settings_below_one_are_refused_by_range(monkeypatch, raw, message):
    monkeypatch.setenv(_VAR, raw)
    with pytest.raises(LimitError, match=f"^{_VAR} must be {message}$"):
        limits.max_letters()


class _CountingEnviron(dict):
    """A copy of os.environ that counts the lookups of the letter-limit setting."""

    def __init__(self, base):
        super().__init__(base)
        self.reads = 0

    def _count(self, key):
        if key == _VAR:
            self.reads += 1

    def get(self, key, default=None):
        self._count(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self._count(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._count(key)
        return super().__contains__(key)


_CORPUS = "p & q\n~p | r\n# comment\np -> q\nx0 & x1 & x2\n(p\n"


@pytest.mark.parametrize("setting", [None, "2", "abc"])
@pytest.mark.parametrize("command", ["classify", "equiv"])
def test_one_corpus_run_reads_the_setting_once(monkeypatch, setting, command):
    environ = _CountingEnviron(os.environ)
    if setting is None:
        environ.pop(_VAR, None)
    else:
        environ[_VAR] = setting
    monkeypatch.setattr(os, "environ", environ)
    stdin = _CORPUS if command == "classify" else _CORPUS.replace("\n", " ; q\n")
    code, out, _ = run([command, "--corpus", "-"], io.StringIO(stdin))
    assert environ.reads <= 1
    # Five query lines, each checked at least once, so a read per check would show.
    assert len(out.splitlines()) == 5
    assert code == {None: 2, "2": 3, "abc": 3}[setting]


def test_counting_environ_sees_each_library_read(monkeypatch):
    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    parse("p & q")
    parse("q | r")
    assert environ.reads == 2


def test_an_invalid_setting_fails_each_corpus_line_with_one_message(monkeypatch):
    monkeypatch.setenv(_VAR, "abc")
    code, out, err = run(["classify", "--corpus", "-"], io.StringIO("p\nq -> -> r\nq\n"))
    message = f"{_VAR} must be an integer, got 'abc'"
    assert (code, err) == (3, "")
    assert out.splitlines() == [
        f"1: error: {message}",
        "2: error: unexpected '->' at offset 5, expected one of '(', 'F', 'T', '~', letter",
        f"3: error: {message}",
    ]


def test_library_calls_outside_run_read_each_change(monkeypatch):
    monkeypatch.setenv(_VAR, "2")
    with pytest.raises(LimitError, match="limit is 2$"):
        parse("p & q & r")
    monkeypatch.setenv(_VAR, "3")
    assert parse("p & q & r") is not None
    with pytest.raises(LimitError, match="limit is 3$"):
        Universe(("a", "b", "c", "d"))
    monkeypatch.setenv(_VAR, "abc")
    with pytest.raises(LimitError, match="must be an integer"):
        parse("p")
    monkeypatch.delenv(_VAR)
    assert limits.max_letters() == limits.DEFAULT_MAX_LETTERS


def test_a_change_during_one_run_is_not_seen_by_it(monkeypatch):
    # The setting changes after the first operand is parsed; the second
    # operand and the universe are still checked against the first read.
    monkeypatch.setenv(_VAR, "3")
    original = cli.parse

    def parse_then_change(text):
        node = original(text)
        os.environ[_VAR] = "1"
        return node

    monkeypatch.setattr(cli, "parse", parse_then_change)
    assert run(["equiv", "p & q", "r"]) == (1, "fails\nwitness: p=true q=true r=false\n", "")
    monkeypatch.setattr(cli, "parse", original)
    assert run(["equiv", "p & q", "r"]) == (
        3, "", "limit error: formula uses 2 distinct letters, limit is 1\n"
    )


def test_concurrent_runs_each_hold_their_own_read(monkeypatch):
    # Run A reads limit 2 and pauses in parse; run B reads limit 3 and pauses
    # in parse; A then finishes while B is still inside its run.  Each answers
    # by its own read.
    monkeypatch.setenv(_VAR, "2")
    gates = {name: (threading.Event(), threading.Event()) for name in "AB"}
    original = cli.parse

    def paused_parse(text):
        entered, resume = gates[threading.current_thread().name]
        entered.set()
        assert resume.wait(timeout=10)
        return original(text)

    monkeypatch.setattr(cli, "parse", paused_parse)
    results = {}
    workers = {
        name: threading.Thread(
            name=name, target=lambda name=name: results.update({name: run(["classify", "p & q & r"])})
        )
        for name in "AB"
    }
    try:
        workers["A"].start()
        assert gates["A"][0].wait(timeout=10)
        os.environ[_VAR] = "3"
        workers["B"].start()
        assert gates["B"][0].wait(timeout=10)
        gates["A"][1].set()
        workers["A"].join(timeout=10)
        assert not workers["A"].is_alive()
    finally:
        for _, resume in gates.values():
            resume.set()
        for worker in workers.values():
            worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers.values())
    assert results == {
        "A": (3, "", "limit error: formula uses 3 distinct letters, limit is 2\n"),
        "B": (1, "contingent\ntrue at: p=true q=true r=true\nfalse at: p=false q=false r=false\n", ""),
    }
