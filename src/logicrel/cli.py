"""Command-line interface.

Every decision procedure is a subcommand; results go to stdout as text or,
with --json, as a single-object envelope with fixed key order:
command, mode, universe, result, witness, version.

Exit codes: 0 the query holds (or a report was generated with no failures),
1 it fails (or the report contains failures), 2 input error, 3 limit error.

Each query subcommand is a row of COMMANDS, and one handler answers them all.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TextIO

from . import __version__
from .equivalence import Verdict, default_universe, entails, equivalent
from .errors import LimitError, LogicError, ParseError, UniverseMismatch
from .formula import Formula, Universe
from .limits import read_once
from .parser import parse, render
from .relation import (
    audit_paradoxes,
    classify_relation,
    criteria_report,
    hasse_edges,
    verify_lattice,
)
from .semantics import Interpretation, Mode, TruthTable, truth_table

HOLDS, FAILS, INPUT_ERROR, LIMIT_ERROR = 0, 1, 2, 3

# The failures a query may end in, reported on stderr with an exit code.
_EXPECTED = (LogicError, ValueError, OSError)
_FAILURES = (
    (ParseError, "parse error", INPUT_ERROR),
    (UniverseMismatch, "universe error", INPUT_ERROR),
    (LimitError, "limit error", LIMIT_ERROR),
)


def _failure(e: Exception) -> tuple[str, int]:
    """The stderr label and exit code of an expected failure: the first match, else input error."""
    for kind, label, code in _FAILURES:
        if isinstance(e, kind):
            return label, code
    return "input error", INPUT_ERROR


def _assignment_text(i: Interpretation) -> str:
    return " ".join(f"{k}={'true' if v else 'false'}" for k, v in i.as_dict().items())


def _witness_json(i: Optional[Interpretation]) -> Optional[dict[str, bool]]:
    return None if i is None else i.as_dict()


@dataclass
class _Outcome:
    """One answer: exit code, text lines, JSON result payload and JSON witness."""

    code: int
    lines: Iterable[str]
    result: object = None
    witness: Optional[dict[str, bool]] = None
    # A table's bits_hex: the last key of the JSON result object, kept out of it
    # so that the writer can pass it through without an escape scan or a copy.
    bits_hex: Optional[str] = None


# Encodes as json.dumps(value, ensure_ascii=False) does, without building an encoder per call.
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def _write(ns, out: io.StringIO, mode: str, universe: Optional[Universe], outcome: _Outcome) -> int:
    """Write an answer as its text lines or as the JSON envelope; return its exit code.

    The envelope line is byte for byte json.dumps(envelope, ensure_ascii=False)
    and a newline: the six keys in their fixed order with json.dumps's
    separators, each value through _ENCODE.  A table's bits_hex comes from
    format(..., "x"), so it holds only hex digits and is written as it is: at
    20 letters it is 256 KiB, which an encoder would scan and then copy.
    """
    if not ns.json:
        out.writelines(f"{line}\n" for line in outcome.lines)
        return outcome.code
    letters = list(universe.letters) if universe is not None else []
    out.write(f'{{"command": {_ENCODE(ns.command)}, "mode": {_ENCODE(mode)}, ')
    out.write(f'"universe": {_ENCODE(letters)}, "result": ')
    result = _ENCODE(outcome.result)
    if outcome.bits_hex is None:
        out.write(result)
    else:
        out.write(f'{result[:-1]}, "bits_hex": "')
        out.write(outcome.bits_hex)
        out.write('"}')
    out.write(f', "witness": {_ENCODE(outcome.witness)}, "version": {_ENCODE(__version__)}}}')
    out.write("\n")
    return outcome.code


def _classify(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    t = truth_table(fs[0], u, mode)
    status = t.status
    if status != "contingent":
        return _Outcome(HOLDS if status == "tautology" else FAILS, [status], {"label": status})
    low_true = Interpretation.lowest(u, t.bits)
    low_false = Interpretation.lowest(u, t.mask ^ t.bits)
    return _Outcome(
        FAILS,
        [
            "contingent",
            f"true at: {_assignment_text(low_true)}",
            f"false at: {_assignment_text(low_false)}",
        ],
        {
            "label": "contingent",
            "lowest_true": _witness_json(low_true),
            "lowest_false": _witness_json(low_false),
        },
    )


def _implies(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    report = criteria_report(fs[0], fs[1], u)
    criteria = {name: getattr(report, name) for name in ("and_absorb", "conj_bottom", "disj_top")}
    lines = ["holds" if report.holds else "fails"]
    lines += [f"{name}: {str(value).lower()}" for name, value in criteria.items()]
    if report.witness is not None:
        lines.append(f"witness: {_assignment_text(report.witness)}")
    result = {"holds": report.holds, "criteria": {**criteria, "agree": report.agree}}
    return _Outcome(HOLDS if report.holds else FAILS, lines, result, _witness_json(report.witness))


def _verdict(verdict: Verdict) -> _Outcome:
    if verdict.holds:
        return _Outcome(HOLDS, ["holds"], {"holds": True})
    lines = ["fails", f"witness: {_assignment_text(verdict.witness)}"]
    return _Outcome(FAILS, lines, {"holds": False}, _witness_json(verdict.witness))


# equivalent and entails are looked up per call, so a wrapper patched into this module sees them.
def _equiv(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    return _verdict(equivalent(fs[0], fs[1], mode, u))


def _entails(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    return _verdict(entails(fs[0], fs[1], mode, u))


def _relate(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    rc = classify_relation(fs[0], fs[1], u)
    flags = sorted(rc.degenerate)
    degenerate = [f"degenerate: {' '.join(flags)}"] if flags else []
    result = {"kind": rc.kind.value, "degenerate": flags}
    return _Outcome(HOLDS, [rc.kind.value, *degenerate], result)


def _table(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    t = truth_table(fs[0], u, mode)
    # map() is lazy: the text, 2^n lines long, is built only if it is written.
    lines = map(TruthTable.render_text, [t])
    return _Outcome(HOLDS, lines, {"rows": t.rows}, bits_hex=t.bits_hex())


def _audit(fs: list[Formula], u: Universe, mode: Mode) -> _Outcome:
    lines, payload = [], []
    for r in audit_paradoxes(fs[0], fs[1], u):
        text = render(r.formula)
        lines.append(f"{r.schema} {text}")
        lines.append(f"  material: {'tautology' if r.material_tautology else 'not a tautology'}")
        lines.append(f"  relational: {r.relational_status}")
        payload.append(
            {
                "schema": r.schema,
                "formula": text,
                "material_tautology": r.material_tautology,
                "relational_tautology": r.relational_tautology,
                "relational_status": r.relational_status,
                "relational_witness": _witness_json(r.relational_witness),
            }
        )
    return _Outcome(HOLDS, lines, payload)


@dataclass(frozen=True)
class _Command:
    """A query subcommand: how argparse builds it and how one query is answered."""

    help: str
    operands: tuple[str, ...]
    evaluate: Callable[[list[Formula], Universe, Mode], _Outcome]
    # The envelope's mode for a command without --mode; None gives it --mode.
    mode: Optional[str] = None
    corpus: bool = True
    # Operand defaults; without them or --corpus the operands are required.
    defaults: tuple[str, ...] = ()


_PAIR = ("first", "second")

COMMANDS = {
    "classify": _Command("tautology / contradiction / contingent", ("formula",), _classify),
    "implies": _Command(
        "does the implication relation hold (three-way criteria report)",
        _PAIR,
        _implies,
        mode="relational",
    ),
    "equiv": _Command("are the two formulas logically equivalent", _PAIR, _equiv),
    "entails": _Command("does every model of the first satisfy the second", _PAIR, _entails),
    "relate": _Command(
        "disjoint / joint / inclusion classification", _PAIR, _relate, mode="relational"
    ),
    "table": _Command("full truth table", ("formula",), _table, corpus=False),
    "audit": _Command(
        "judge the classic paradox schemas under both modes",
        _PAIR,
        _audit,
        mode="both",
        corpus=False,
        defaults=("p", "q"),
    ),
}


def _answer(spec: _Command, texts: list[str], override, mode: Mode) -> tuple[_Outcome, Universe]:
    """Parse the operands, pick the universe and answer."""
    fs = [parse(text) for text in texts]
    u = override if override is not None else default_universe(*fs)
    return spec.evaluate(fs, u, mode), u


def _run_corpus(spec: _Command, source: str, stdin, override, mode: Mode) -> _Outcome:
    """One record per query line; a failing line is an error record, not an abort."""
    if source == "-":
        if stdin is None:
            raise ValueError("no stdin available for --corpus -")
        raw = stdin.read()
    else:
        with open(source, encoding="utf-8") as fh:
            raw = fh.read()
    worst = HOLDS
    text_lines, records = [], []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            texts = [line] if len(spec.operands) == 1 else [t.strip() for t in line.split(";")]
            if len(texts) != len(spec.operands):
                raise ValueError("expected exactly one ';' separating the formula pair")
            outcome, _ = _answer(spec, texts, override, mode)
            record = {"result": outcome.result, "witness": outcome.witness}
        except _EXPECTED as e:
            outcome = _Outcome(_failure(e)[1], [f"error: {e}"])
            record = {"error": str(e)}
        worst = max(worst, outcome.code)
        text_lines.append(f"{lineno}: {'; '.join(outcome.lines)}")
        records.append({"line": lineno, "input": line, **record})
    return _Outcome(worst, text_lines, records)


def _query(ns, out: io.StringIO, stdin: Optional[TextIO]) -> int:
    """The handler of every COMMANDS subcommand."""
    spec = COMMANDS[ns.command]
    texts = [getattr(ns, name) for name in spec.operands]
    corpus = getattr(ns, "corpus", None)
    if corpus and any(text is not None for text in texts):
        raise ValueError("give either inline formulas or --corpus, not both")
    missing = [name for name, text in zip(spec.operands, texts) if text is None]
    if missing and not corpus:
        raise ValueError(f"missing operand(s): {', '.join(missing)}")
    mode = Mode(ns.mode) if spec.mode is None else Mode.RELATIONAL
    override = None
    if ns.universe is not None:
        override = Universe(tuple(name.strip() for name in ns.universe.split(",")))
    if corpus:
        outcome, u = _run_corpus(spec, corpus, stdin, override, mode), None
    else:
        outcome, u = _answer(spec, texts, override, mode)
    return _write(ns, out, spec.mode or mode.value, u, outcome)


def _class_bits(cls: int, rows: int) -> str:
    return "".join("1" if (cls >> row) & 1 else "0" for row in range(rows))


def _lattice(ns, out: io.StringIO, stdin: Optional[TextIO]) -> int:
    if ns.dot and ns.json:
        raise ValueError("--dot and --json are mutually exclusive")
    if ns.dot:
        covers = hasse_edges(ns.n)  # first: it refuses n before 1 << n is built
        rows = 1 << ns.n
        edges = [
            f'  "{_class_bits(lower, rows)}" -> "{_class_bits(upper, rows)}";'
            for lower, upper in covers
        ]
        outcome = _Outcome(HOLDS, ["digraph hasse {", "  rankdir=BT;", *edges, "}"])
    else:
        report = verify_lattice(ns.n)
        lines = [f"classes: {report.class_count}", f"failures: {len(report.failures)}"]
        lines += [f"  {name}: {classes}" for name, classes in report.failures]
        payload = {
            "universe_size": report.universe_size,
            "class_count": report.class_count,
            "failures": [[name, list(classes)] for name, classes in report.failures],
        }
        outcome = _Outcome(HOLDS if report.ok else FAILS, lines, payload)
    return _write(ns, out, "relational", None, outcome)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="logicrel",
        description="Propositional logic with material and relational implication semantics.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help)
        nargs = "?" if spec.corpus or spec.defaults else None
        defaults = spec.defaults or (None,) * len(spec.operands)
        for operand, default in zip(spec.operands, defaults):
            sp.add_argument(operand, nargs=nargs, default=default)
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")
        sp.add_argument(
            "--universe", metavar="LETTERS", help="comma-separated letters fixing the universe"
        )
        if spec.mode is None:
            sp.add_argument("--mode", choices=["material", "relational"], default="relational")
        if spec.corpus:
            sp.add_argument(
                "--corpus", metavar="FILE", help="batch input, one query per line ('-' for stdin)"
            )

    sp = sub.add_parser("lattice", help="verify the bounded-lattice laws over truth-table classes")
    sp.add_argument("n", type=int)
    sp.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT (n <= 2)")
    sp.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")

    return top


# One parser per process.  parse_args returns a fresh Namespace, every default
# is immutable and help is formatted against the terminal width of its call,
# so reuse changes no output; the parser holds no handlers for a patch to miss.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: list[str], stdin: Optional[TextIO] = None) -> tuple[int, str, str]:
    """Dispatch one invocation; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = _parser().parse_args(argv)
    except SystemExit as e:
        return (e.code or 0, out.getvalue(), err.getvalue())

    # Named here, not stored in the parser, so a handler patched in here is seen.
    handler = _lattice if ns.command == "lattice" else _query
    try:
        with read_once():
            code = handler(ns, out, stdin)
    except _EXPECTED as e:
        label, code = _failure(e)
        err.write(f"{label}: {e}\n")
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    code, out, err = run(sys.argv[1:], sys.stdin)
    sys.stdout.write(out)
    sys.stderr.write(err)
    sys.exit(code)


if __name__ == "__main__":
    main()
