"""Reference answers for the benchmark, written without the logicrel package.

Formula text is compiled by an iterative shunting-yard parser into a postfix
program, and tables are computed as big-int bit vectors from letter patterns
built here by shift-doubling: bit i of a table is the value at row i, and row
i makes letter k true iff bit k of i is set.  Relational implication is
eliminated during the same bottom-up pass: once both operands have their
(already implication-free) tables, the implication becomes the all-true
table when antecedent & consequent equals the antecedent, else all-false.

Nothing here recurses, so the deep inputs that exceed Python's recursion
limit in the program still get reference answers.

expected_run() answers the argv forms the workloads emit with the exit code
and stdout the CLI contract prescribes for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_GLYPHS = {
    "~": "~", "¬": "~",
    "&": "&", "∧": "&",
    "|": "|", "∨": "|",
    "→": ">",
    "T": "T", "⊤": "T",
    "F": "F", "⊥": "F",
    "(": "(", ")": ")",
}
# Binding strength and associativity of the binary connectives.
_PREC = {"&": 3, "|": 2, ">": 1}
_RIGHT_ASSOC = {">"}
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class Program:
    """Postfix code of one formula: letter names or connective symbols."""

    code: tuple[str, ...]
    letters: tuple[str, ...]  # first-occurrence order in the text


def _tokens(text: str):
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch == "-" and text.startswith("->", pos):
            yield ">"
            pos += 2
        elif ch in _GLYPHS and not (ch in "TF" and pos + 1 < n and text[pos + 1] in _WORD_CHARS):
            yield _GLYPHS[ch]
            pos += 1
        elif "a" <= ch <= "z":
            end = pos + 1
            while end < n and text[end] in _WORD_CHARS:
                end += 1
            yield text[pos:end]
            pos = end
        else:
            raise ValueError(f"reference tokenizer: unexpected {ch!r} at {pos}")


def compile_formula(text: str) -> Program:
    """Shunting-yard over the grammar ~ > & > | > ->, with -> right-associative."""
    out: list[str] = []
    ops: list[str] = []
    seen: dict[str, None] = {}
    expect_operand = True
    for tok in _tokens(text):
        if expect_operand:
            if tok in ("~", "("):
                ops.append(tok)
            elif tok in ("T", "F"):
                out.append(tok)
                expect_operand = False
            elif tok[0].islower():
                seen.setdefault(tok)
                out.append(tok)
                expect_operand = False
            else:
                raise ValueError(f"reference parser: operand expected, got {tok!r}")
        elif tok in _PREC:
            prec = _PREC[tok]
            while ops and ops[-1] != "(":
                top = ops[-1]
                top_prec = 4 if top == "~" else _PREC[top]
                if top_prec > prec or (top_prec == prec and tok not in _RIGHT_ASSOC):
                    out.append(ops.pop())
                else:
                    break
            ops.append(tok)
            expect_operand = True
        elif tok == ")":
            while ops and ops[-1] != "(":
                out.append(ops.pop())
            if not ops:
                raise ValueError("reference parser: unbalanced ')'")
            ops.pop()
        else:
            raise ValueError(f"reference parser: connective expected, got {tok!r}")
    if expect_operand:
        raise ValueError("reference parser: formula ends early")
    while ops:
        op = ops.pop()
        if op == "(":
            raise ValueError("reference parser: unbalanced '('")
        out.append(op)
    return Program(tuple(out), tuple(seen))


def letter_patterns(n: int) -> list[int]:
    """Pattern of letter k over 2^n rows: blocks of 2^k ones from row 2^k, period 2^(k+1)."""
    rows = 1 << n
    patterns = []
    for k in range(n):
        period = 1 << (k + 1)
        pattern = ((1 << (1 << k)) - 1) << (1 << k)
        while period < rows:
            pattern |= pattern << period
            period <<= 1
        patterns.append(pattern)
    return patterns


class Tables:
    """Evaluates programs over one universe, sharing the letter patterns."""

    def __init__(self, universe: tuple[str, ...]):
        self.universe = universe
        self.mask = (1 << (1 << len(universe))) - 1
        self._pattern = dict(zip(universe, letter_patterns(len(universe))))

    def bits(self, program: Program, relational: bool) -> int:
        mask = self.mask
        stack: list[int] = []
        for op in program.code:
            if op == "T":
                stack.append(mask)
            elif op == "F":
                stack.append(0)
            elif op == "~":
                stack.append(mask ^ stack.pop())
            elif op in ("&", "|", ">"):
                b = stack.pop()
                a = stack.pop()
                if op == "&":
                    stack.append(a & b)
                elif op == "|":
                    stack.append(a | b)
                elif relational:
                    stack.append(mask if a & b == a else 0)
                else:
                    stack.append((mask ^ a) | b)
            else:
                stack.append(self._pattern[op])
        (result,) = stack
        return result


# --- expected CLI answers -------------------------------------------------------

HOLDS, FAILS = 0, 1


def _lowest_row(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _assignment(universe: tuple[str, ...], row: int) -> dict[str, bool]:
    return {name: bool((row >> k) & 1) for k, name in enumerate(universe)}


def _assignment_text(a: dict[str, bool]) -> str:
    return " ".join(f"{k}={'true' if v else 'false'}" for k, v in a.items())


@dataclass
class _Answer:
    code: int
    summary: str
    extra: list[str]
    result: object
    witness: object
    universe: tuple[str, ...]


def _universe(forced: tuple[str, ...] | None, *programs: Program) -> tuple[str, ...]:
    if forced is not None:
        return forced
    seen: dict[str, None] = {}
    for p in programs:
        for name in p.letters:
            seen.setdefault(name)
    return tuple(seen)


def _classify(text: str, relational: bool, forced) -> _Answer:
    p = compile_formula(text)
    u = _universe(forced, p)
    tables = Tables(u)
    t = tables.bits(p, relational)
    if t == tables.mask:
        return _Answer(HOLDS, "tautology", [], {"label": "tautology"}, None, u)
    if t == 0:
        return _Answer(FAILS, "contradiction", [], {"label": "contradiction"}, None, u)
    low_true = _assignment(u, _lowest_row(t))
    low_false = _assignment(u, _lowest_row(tables.mask & ~t))
    return _Answer(
        FAILS,
        "contingent",
        [f"true at: {_assignment_text(low_true)}", f"false at: {_assignment_text(low_false)}"],
        {"label": "contingent", "lowest_true": low_true, "lowest_false": low_false},
        None,
        u,
    )


def _pair_tables(a_text: str, b_text: str, relational: bool, forced):
    a, b = compile_formula(a_text), compile_formula(b_text)
    u = _universe(forced, a, b)
    tables = Tables(u)
    return u, tables.mask, tables.bits(a, relational), tables.bits(b, relational)


def _verdict(u, refuting: int) -> _Answer:
    if refuting == 0:
        return _Answer(HOLDS, "holds", [], {"holds": True}, None, u)
    w = _assignment(u, _lowest_row(refuting))
    return _Answer(FAILS, "fails", [f"witness: {_assignment_text(w)}"], {"holds": False}, w, u)


def _equiv(a_text, b_text, relational, forced) -> _Answer:
    u, _, ta, tb = _pair_tables(a_text, b_text, relational, forced)
    return _verdict(u, ta ^ tb)


def _entails(a_text, b_text, relational, forced) -> _Answer:
    u, _, ta, tb = _pair_tables(a_text, b_text, relational, forced)
    return _verdict(u, ta & ~tb)


def _implies(a_text, b_text, forced) -> _Answer:
    # All three criteria (a & b = a, a & ~b unsatisfiable, ~a | b valid) reduce
    # to "no row has a true and b false"; that row is also the witness.
    u, _, ta, tb = _pair_tables(a_text, b_text, True, forced)
    refuting = ta & ~tb
    holds = refuting == 0
    flag = "true" if holds else "false"
    extra = [f"and_absorb: {flag}", f"conj_bottom: {flag}", f"disj_top: {flag}"]
    witness = None
    if not holds:
        witness = _assignment(u, _lowest_row(refuting))
        extra.append(f"witness: {_assignment_text(witness)}")
    criteria = {"and_absorb": holds, "conj_bottom": holds, "disj_top": holds, "agree": True}
    return _Answer(
        HOLDS if holds else FAILS,
        "holds" if holds else "fails",
        extra,
        {"holds": holds, "criteria": criteria},
        witness,
        u,
    )


def _relate(a_text, b_text, forced) -> _Answer:
    u, mask, ta, tb = _pair_tables(a_text, b_text, True, forced)
    meet = ta & tb
    flags = []
    if ta == 0:
        flags.append("first_is_bottom")
    if ta == mask:
        flags.append("first_is_top")
    if tb == 0:
        flags.append("second_is_bottom")
    if tb == mask:
        flags.append("second_is_top")
    flags.sort()
    if ta == tb:
        kind = "equivalent"
    elif meet == ta:
        kind = "inclusion_forward"
    elif meet == tb:
        kind = "inclusion_backward"
    elif meet == 0:
        kind = "disjoint"
    else:
        kind = "joint"
    extra = [f"degenerate: {' '.join(flags)}"] if flags else []
    return _Answer(HOLDS, kind, extra, {"kind": kind, "degenerate": flags}, None, u)


def _envelope(command, mode, universe, result, witness, version) -> str:
    env = {
        "command": command,
        "mode": mode,
        "universe": list(universe),
        "result": result,
        "witness": witness,
        "version": version,
    }
    return json.dumps(env, ensure_ascii=False) + "\n"


def _split_argv(argv: list[str]):
    command, rest = argv[0], argv[1:]
    flags: dict[str, object] = {"json": False, "mode": "relational", "universe": None, "corpus": None}
    operands = []
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--json":
            flags["json"] = True
            i += 1
        elif arg in ("--mode", "--universe", "--corpus"):
            flags[arg[2:]] = rest[i + 1]
            i += 2
        else:
            operands.append(arg)
            i += 1
    if flags["universe"] is not None:
        flags["universe"] = tuple(name.strip() for name in flags["universe"].split(","))
    return command, flags, operands


def expected_run(argv: list[str], stdin_text: str | None, version: str) -> tuple[int, str]:
    """Exit code and stdout of `logicrel <argv>` for the forms the workloads emit."""
    command, flags, operands = _split_argv(argv)
    relational = flags["mode"] == "relational"
    forced = flags["universe"]
    mode = flags["mode"] if command in ("classify", "equiv", "entails", "table") else "relational"

    if command == "table":
        if not flags["json"]:
            raise ValueError("reference answers `table` only with --json")
        p = compile_formula(operands[0])
        u = _universe(forced, p)
        bits = Tables(u).bits(p, relational)
        rows = 1 << len(u)
        result = {"rows": rows, "bits_hex": format(bits, f"0{max(1, (rows + 3) // 4)}x")}
        return HOLDS, _envelope(command, mode, u, result, None, version)

    def answer(args: list[str]) -> _Answer:
        if command == "classify":
            return _classify(args[0], relational, forced)
        if command == "equiv":
            return _equiv(args[0], args[1], relational, forced)
        if command == "entails":
            return _entails(args[0], args[1], relational, forced)
        if command == "implies":
            return _implies(args[0], args[1], forced)
        if command == "relate":
            return _relate(args[0], args[1], forced)
        raise ValueError(f"reference does not answer {command!r}")

    if flags["corpus"] is None:
        a = answer(operands)
        if flags["json"]:
            return a.code, _envelope(command, mode, a.universe, a.result, a.witness, version)
        return a.code, "\n".join([a.summary, *a.extra]) + "\n"

    if flags["corpus"] != "-" or stdin_text is None:
        raise ValueError("reference answers corpora only from stdin")
    worst = HOLDS
    lines, records = [], []
    for lineno, raw in enumerate(stdin_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        args = [line] if command == "classify" else [part.strip() for part in line.split(";")]
        a = answer(args)
        worst = max(worst, a.code)
        summary = a.summary + ("; " + "; ".join(a.extra) if a.extra else "")
        lines.append(f"{lineno}: {summary}\n")
        records.append({"line": lineno, "input": line, "result": a.result, "witness": a.witness})
    if flags["json"]:
        return worst, _envelope(command, mode, (), records, None, version)
    return worst, "".join(lines)
