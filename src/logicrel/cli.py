"""Command-line interface.

Every decision procedure is a subcommand; results go to stdout as text or,
with --json, as a single-object envelope with fixed key order:
command, mode, universe, result, witness, version.

Exit codes: 0 the query holds (or a report was generated with no failures),
1 it fails (or the report contains failures), 2 input error, 3 limit error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from typing import Optional, TextIO

from . import __version__
from .equivalence import _lowest_row, default_universe, entails, equivalent
from .errors import LimitError, LogicError, ParseError, UniverseMismatch
from .formula import Formula, Universe
from .parser import parse, render
from .relation import (
    audit_paradoxes,
    classify_relation,
    criteria_report,
    hasse_edges,
    verify_lattice,
)
from .semantics import Interpretation, Mode, truth_table

HOLDS, FAILS, INPUT_ERROR, LIMIT_ERROR = 0, 1, 2, 3


def _assignment_text(i: Interpretation) -> str:
    return " ".join(f"{k}={'true' if v else 'false'}" for k, v in i.as_dict().items())


def _witness_json(i: Optional[Interpretation]) -> Optional[dict[str, bool]]:
    return None if i is None else i.as_dict()


def _envelope(command: str, mode: str, universe: Universe | None, result, witness) -> dict:
    return {
        "command": command,
        "mode": mode,
        "universe": list(universe.letters) if universe is not None else [],
        "result": result,
        "witness": witness,
        "version": __version__,
    }


def _parse_universe(arg: Optional[str]) -> Optional[Universe]:
    if arg is None:
        return None
    return Universe(tuple(name.strip() for name in arg.split(",")))


def _pick_universe(override: Optional[Universe], *fs: Formula) -> Universe:
    return override if override is not None else default_universe(*fs)


def _mode(ns: argparse.Namespace) -> Mode:
    return Mode(getattr(ns, "mode", "relational"))


# One evaluated query: exit code, one-line text summary, extra text lines,
# JSON result payload, JSON witness, and the universe it ran over.
class _Outcome:
    def __init__(self, code, summary, extra=(), result=None, witness=None, universe=None):
        self.code = code
        self.summary = summary
        self.extra = list(extra)
        self.result = result
        self.witness = witness
        self.universe = universe

    def text(self) -> str:
        return "\n".join([self.summary, *self.extra])


def _classify_one(text: str, mode: Mode, override: Optional[Universe]) -> _Outcome:
    f = parse(text)
    u = _pick_universe(override, f)
    t = truth_table(f, u, mode)
    if t.is_all_true:
        return _Outcome(HOLDS, "tautology", result={"label": "tautology"}, universe=u)
    if t.is_all_false:
        return _Outcome(FAILS, "contradiction", result={"label": "contradiction"}, universe=u)
    low_true = Interpretation.from_index(u, _lowest_row(t.bits))
    low_false = Interpretation.from_index(u, _lowest_row(t.mask & ~t.bits))
    return _Outcome(
        FAILS,
        "contingent",
        extra=[f"true at: {_assignment_text(low_true)}", f"false at: {_assignment_text(low_false)}"],
        result={
            "label": "contingent",
            "lowest_true": _witness_json(low_true),
            "lowest_false": _witness_json(low_false),
        },
        universe=u,
    )


def _implies_one(a_text: str, b_text: str, override: Optional[Universe]) -> _Outcome:
    a, b = parse(a_text), parse(b_text)
    u = _pick_universe(override, a, b)
    report = criteria_report(a, b, u)
    extra = [
        f"and_absorb: {str(report.and_absorb).lower()}",
        f"conj_bottom: {str(report.conj_bottom).lower()}",
        f"disj_top: {str(report.disj_top).lower()}",
    ]
    if report.witness is not None:
        extra.append(f"witness: {_assignment_text(report.witness)}")
    return _Outcome(
        HOLDS if report.holds else FAILS,
        "holds" if report.holds else "fails",
        extra=extra,
        result={
            "holds": report.holds,
            "criteria": {
                "and_absorb": report.and_absorb,
                "conj_bottom": report.conj_bottom,
                "disj_top": report.disj_top,
                "agree": report.agree,
            },
        },
        witness=_witness_json(report.witness),
        universe=u,
    )


def _verdict_outcome(verdict, u: Universe) -> _Outcome:
    if verdict.holds:
        return _Outcome(HOLDS, "holds", result={"holds": True}, universe=u)
    return _Outcome(
        FAILS,
        "fails",
        extra=[f"witness: {_assignment_text(verdict.witness)}"],
        result={"holds": False},
        witness=_witness_json(verdict.witness),
        universe=u,
    )


def _equiv_one(a_text: str, b_text: str, mode: Mode, override: Optional[Universe]) -> _Outcome:
    a, b = parse(a_text), parse(b_text)
    u = _pick_universe(override, a, b)
    return _verdict_outcome(equivalent(a, b, mode, u), u)


def _entails_one(a_text: str, b_text: str, mode: Mode, override: Optional[Universe]) -> _Outcome:
    a, b = parse(a_text), parse(b_text)
    u = _pick_universe(override, a, b)
    return _verdict_outcome(entails(a, b, mode, u), u)


def _relate_one(a_text: str, b_text: str, override: Optional[Universe]) -> _Outcome:
    a, b = parse(a_text), parse(b_text)
    u = _pick_universe(override, a, b)
    rc = classify_relation(a, b, u)
    flags = sorted(rc.degenerate)
    extra = [f"degenerate: {' '.join(flags)}"] if flags else []
    return _Outcome(
        HOLDS,
        rc.kind.value,
        extra=extra,
        result={"kind": rc.kind.value, "degenerate": flags},
        universe=u,
    )


def _corpus_lines(ns: argparse.Namespace, stdin: Optional[TextIO]) -> list[tuple[int, str]]:
    if ns.corpus == "-":
        if stdin is None:
            raise ValueError("no stdin available for --corpus -")
        raw = stdin.read()
    else:
        with open(ns.corpus, encoding="utf-8") as fh:
            raw = fh.read()
    lines = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    return lines


def _split_pair(line: str) -> tuple[str, str]:
    parts = line.split(";")
    if len(parts) != 2:
        raise ValueError("expected exactly one ';' separating the formula pair")
    return parts[0].strip(), parts[1].strip()


def _run_corpus(ns, out: io.StringIO, stdin, evaluate, binary: bool, mode_name: str) -> int:
    override = _parse_universe(ns.universe)
    worst = HOLDS
    text_lines = []
    records = []
    for lineno, line in _corpus_lines(ns, stdin):
        try:
            if binary:
                a_text, b_text = _split_pair(line)
                outcome = evaluate(a_text, b_text, override)
            else:
                outcome = evaluate(line, override)
            worst = max(worst, outcome.code)
            summary = outcome.summary
            if outcome.extra:
                summary += "; " + "; ".join(outcome.extra)
            text_lines.append(f"{lineno}: {summary}")
            records.append(
                {"line": lineno, "input": line, "result": outcome.result, "witness": outcome.witness}
            )
        except LimitError as e:
            worst = max(worst, LIMIT_ERROR)
            text_lines.append(f"{lineno}: error: {e}")
            records.append({"line": lineno, "input": line, "error": str(e)})
        except (LogicError, ValueError) as e:
            worst = max(worst, INPUT_ERROR)
            text_lines.append(f"{lineno}: error: {e}")
            records.append({"line": lineno, "input": line, "error": str(e)})
    if ns.json:
        env = _envelope(ns.command, mode_name, None, records, None)
        out.write(json.dumps(env, ensure_ascii=False) + "\n")
    else:
        for line in text_lines:
            out.write(line + "\n")
    return worst


def _emit(ns, out: io.StringIO, outcome: _Outcome, mode_name: str) -> int:
    if ns.json:
        env = _envelope(ns.command, mode_name, outcome.universe, outcome.result, outcome.witness)
        out.write(json.dumps(env, ensure_ascii=False) + "\n")
    else:
        out.write(outcome.text() + "\n")
    return outcome.code


def _cmd_classify(ns, out, stdin) -> int:
    if ns.corpus:
        return _run_corpus(
            ns, out, stdin,
            lambda text, override: _classify_one(text, _mode(ns), override),
            binary=False, mode_name=_mode(ns).value,
        )
    outcome = _classify_one(ns.formula, _mode(ns), _parse_universe(ns.universe))
    return _emit(ns, out, outcome, _mode(ns).value)


def _binary_command(ns, out, stdin, one, mode_name: str) -> int:
    if ns.corpus:
        return _run_corpus(ns, out, stdin, one, binary=True, mode_name=mode_name)
    outcome = one(ns.first, ns.second, _parse_universe(ns.universe))
    return _emit(ns, out, outcome, mode_name)


def _cmd_table(ns, out, stdin) -> int:
    f = parse(ns.formula)
    u = _pick_universe(_parse_universe(ns.universe), f)
    t = truth_table(f, u, _mode(ns))
    if ns.json:
        env = _envelope(
            ns.command, _mode(ns).value, u, {"rows": t.rows, "bits_hex": t.bits_hex()}, None
        )
        out.write(json.dumps(env, ensure_ascii=False) + "\n")
    else:
        out.write(t.render_text() + "\n")
    return HOLDS


def _cmd_audit(ns, out, stdin) -> int:
    a, b = parse(ns.first), parse(ns.second)
    u = _pick_universe(_parse_universe(ns.universe), a, b)
    reports = audit_paradoxes(a, b, u)
    if ns.json:
        payload = [
            {
                "schema": r.schema,
                "formula": render(r.formula),
                "material_tautology": r.material_tautology,
                "relational_tautology": r.relational_tautology,
                "relational_status": r.relational_status,
                "relational_witness": _witness_json(r.relational_witness),
            }
            for r in reports
        ]
        env = _envelope(ns.command, "both", u, payload, None)
        out.write(json.dumps(env, ensure_ascii=False) + "\n")
    else:
        for r in reports:
            out.write(f"{r.schema} {render(r.formula)}\n")
            out.write(f"  material: {'tautology' if r.material_tautology else 'not a tautology'}\n")
            out.write(f"  relational: {r.relational_status}\n")
    return HOLDS


def _class_bits(cls: int, rows: int) -> str:
    return "".join("1" if (cls >> row) & 1 else "0" for row in range(rows))


def _cmd_lattice(ns, out, stdin) -> int:
    if ns.dot:
        if ns.json:
            raise ValueError("--dot and --json are mutually exclusive")
        rows = 1 << ns.n
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for lower, upper in hasse_edges(ns.n):
            lines.append(f'  "{_class_bits(lower, rows)}" -> "{_class_bits(upper, rows)}";')
        lines.append("}")
        out.write("\n".join(lines) + "\n")
        return HOLDS
    report = verify_lattice(ns.n)
    if ns.json:
        payload = {
            "universe_size": report.universe_size,
            "class_count": report.class_count,
            "failures": [[name, list(classes)] for name, classes in report.failures],
        }
        env = _envelope(ns.command, "relational", None, payload, None)
        out.write(json.dumps(env, ensure_ascii=False) + "\n")
    else:
        out.write(f"classes: {report.class_count}\n")
        out.write(f"failures: {len(report.failures)}\n")
        for name, classes in report.failures:
            out.write(f"  {name}: {classes}\n")
    return HOLDS if report.ok else FAILS


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="logicrel",
        description="Propositional logic with material and relational implication semantics.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, with_mode=True, with_corpus=True):
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")
        sp.add_argument("--universe", metavar="LETTERS", help="comma-separated letters fixing the universe")
        if with_mode:
            sp.add_argument("--mode", choices=["material", "relational"], default="relational")
        if with_corpus:
            sp.add_argument("--corpus", metavar="FILE", help="batch input, one query per line ('-' for stdin)")

    sp = sub.add_parser("classify", help="tautology / contradiction / contingent")
    sp.add_argument("formula", nargs="?")
    common(sp)

    for name, help_text in [
        ("implies", "does the implication relation hold (three-way criteria report)"),
        ("equiv", "are the two formulas logically equivalent"),
        ("entails", "does every model of the first satisfy the second"),
        ("relate", "disjoint / joint / inclusion classification"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("first", nargs="?")
        sp.add_argument("second", nargs="?")
        common(sp, with_mode=name in ("equiv", "entails"))

    sp = sub.add_parser("table", help="full truth table")
    sp.add_argument("formula")
    common(sp, with_corpus=False)

    sp = sub.add_parser("audit", help="judge the classic paradox schemas under both modes")
    sp.add_argument("first", nargs="?", default="p")
    sp.add_argument("second", nargs="?", default="q")
    common(sp, with_mode=False, with_corpus=False)

    sp = sub.add_parser("lattice", help="verify the bounded-lattice laws over truth-table classes")
    sp.add_argument("n", type=int)
    sp.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT (n <= 2)")
    sp.add_argument("--json", action="store_true", help="emit a JSON envelope instead of text")

    return top


def _require_operands(ns) -> None:
    needed = ["formula"] if hasattr(ns, "formula") else ["first", "second"]
    if getattr(ns, "corpus", None):
        if any(getattr(ns, name) is not None for name in needed):
            raise ValueError("give either inline formulas or --corpus, not both")
        return
    missing = [name for name in needed if getattr(ns, name) is None]
    if missing:
        raise ValueError(f"missing operand(s): {', '.join(missing)}")


def run(argv: list[str], stdin: Optional[TextIO] = None) -> tuple[int, str, str]:
    """Dispatch one invocation; returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(argv)
    except SystemExit as e:
        return (e.code or 0, out.getvalue(), err.getvalue())

    try:
        if ns.command in ("classify", "implies", "equiv", "entails", "relate"):
            _require_operands(ns)
        if ns.command == "classify":
            code = _cmd_classify(ns, out, stdin)
        elif ns.command == "implies":
            code = _binary_command(ns, out, stdin, _implies_one, "relational")
        elif ns.command == "equiv":
            code = _binary_command(
                ns, out, stdin,
                lambda a, b, o: _equiv_one(a, b, _mode(ns), o), _mode(ns).value,
            )
        elif ns.command == "entails":
            code = _binary_command(
                ns, out, stdin,
                lambda a, b, o: _entails_one(a, b, _mode(ns), o), _mode(ns).value,
            )
        elif ns.command == "relate":
            code = _binary_command(ns, out, stdin, _relate_one, "relational")
        elif ns.command == "table":
            code = _cmd_table(ns, out, stdin)
        elif ns.command == "audit":
            code = _cmd_audit(ns, out, stdin)
        elif ns.command == "lattice":
            code = _cmd_lattice(ns, out, stdin)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {ns.command!r}")
    except ParseError as e:
        err.write(f"parse error: {e}\n")
        return INPUT_ERROR, out.getvalue(), err.getvalue()
    except UniverseMismatch as e:
        err.write(f"universe error: {e}\n")
        return INPUT_ERROR, out.getvalue(), err.getvalue()
    except LimitError as e:
        err.write(f"limit error: {e}\n")
        return LIMIT_ERROR, out.getvalue(), err.getvalue()
    except (ValueError, OSError) as e:
        err.write(f"input error: {e}\n")
        return INPUT_ERROR, out.getvalue(), err.getvalue()

    return code, out.getvalue(), err.getvalue()


def main() -> None:
    code, out, err = run(sys.argv[1:], sys.stdin)
    sys.stdout.write(out)
    sys.stderr.write(err)
    sys.exit(code)
