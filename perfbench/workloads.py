"""Seeded inputs for the three workloads, built with stdlib `random` only.

A workload is a fixed pool of queries that the benchmark cycles through, a
small warm-up set with the same command forms, and (for long-input) a set of
deep probes.  The program sees only the generated argv and stdin text; the
same workload name and seed always give byte-identical inputs.

Per-query cost is held steady across seeds on purpose, because runs made with
different seeds are compared with each other: the command order is fixed, and the
seed changes only formula content, not its size or letter multiset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    stdin: str | None = None
    weight: int = 1  # answers in one run(): corpus lines, else 1


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]  # cycled in order
    warmup: tuple[Query, ...]
    deep: tuple[Query, ...] = ()  # inputs nested past Python's recursion limit
    # State run() times at the speed probe's reference speed (speed.py).  The
    # probe's kernel is interpreter-bound; it tracks workloads whose time is
    # bytecode, not one whose time is spent inside single big-int operations.
    scaled: bool = True


# Formula trees are tuples: (letter_name,), ("T",), ("F",), ("~", x), (op, a, b).
_PREC = {"~": 4, "&": 3, "|": 2, ">": 1}
_ASCII = {"~": "~", "&": "&", "|": "|", ">": "->", "T": "T", "F": "F"}
_UNICODE = {"~": "¬", "&": "∧", "|": "∨", ">": "→", "T": "⊤", "F": "⊥"}


def _prec(node) -> int:
    return _PREC.get(node[0], 5) if len(node) > 1 else 5


def render(node, glyph=_ASCII.__getitem__) -> str:
    """Minimal-parentheses text; a nested implication is always parenthesized.

    Recursive, so only for trees of bounded depth (balanced or depth-limited).
    """
    op = node[0]
    if len(node) == 1:
        return glyph(op) if op in ("T", "F") else op
    if op == "~":
        child = render(node[1], glyph)
        return glyph("~") + (f"({child})" if _prec(node[1]) < 4 else child)
    left, right = render(node[1], glyph), render(node[2], glyph)
    p = _PREC[op]
    if _prec(node[1]) < p or (op == ">" and _prec(node[1]) == p):
        left = f"({left})"
    if _prec(node[2]) <= p:
        right = f"({right})"
    return f"{left} {glyph(op)} {right}"


def _mixed_glyph(rng: random.Random):
    """Each connective or constant spelled ASCII or Unicode at random."""
    return lambda sym: (_UNICODE if rng.random() < 0.5 else _ASCII)[sym]


def _argv(command: str, operands, mode: str | None, as_json: bool, universe: str | None = None) -> tuple[str, ...]:
    """CLI arguments; relational is the default mode, so only material is spelled out."""
    argv = [command, *operands]
    if universe is not None:
        argv += ["--universe", universe]
    if mode == "material":
        argv += ["--mode", "material"]
    if as_json:
        argv.append("--json")
    return tuple(argv)


# --- corpus4 ----------------------------------------------------------------

CORPUS_LETTERS = ("p", "q", "r", "s")
# Lines per --corpus batch, i.e. per run() call.  Chosen so that a batch of
# any command takes about 50 ms in logicrel 0.1.0: batch latency then has one
# mode, and its median and tail do not jump between commands.  At 12 ms a
# batch, a single collection or a host hiccup of a few ms set the p99 tail,
# which then spread by 20-40% from run to run; at 50 ms they are diluted and
# the ~600 batches of a 30 s run give a p90 tail.
CORPUS_LINES = {"classify": 224, "implies": 56, "equiv": 120, "entails": 128, "relate": 128}
CORPUS_BATCHES_PER_FORM = 4
# (command, mode flag or None, --json): every command, both modes where it has
# them, text and JSON output.
CORPUS_FORMS = tuple(
    (command, mode, as_json)
    for command, modes in (
        ("classify", ("relational", "material")),
        ("implies", (None,)),
        ("equiv", ("relational", "material")),
        ("entails", ("relational", "material")),
        ("relate", (None,)),
    )
    for mode in modes
    for as_json in (False, True)
)


def _random_formula(rng: random.Random, depth: int, letters) -> tuple:
    """Depth-limited random tree: a quarter of branches stop early; ops uniform."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([(name,) for name in letters] + [("T",), ("F",)])
    op = rng.choice("~&|>")
    if op == "~":
        return ("~", _random_formula(rng, depth - 1, letters))
    return (op, _random_formula(rng, depth - 1, letters), _random_formula(rng, depth - 1, letters))


def _corpus_batches(rng: random.Random, command: str, batches: int, lines: int) -> list[str]:
    """Batches with the same mix of short and long lines.

    Lines are dealt to batches in order of length, so that batch cost hardly
    varies within a run or across seeds.
    """
    pool = []
    for _ in range(batches * lines):
        a = render(_random_formula(rng, 5, CORPUS_LETTERS))
        pool.append(a if command == "classify" else f"{a} ; {render(_random_formula(rng, 5, CORPUS_LETTERS))}")
    ranked = sorted(range(len(pool)), key=lambda k: (len(pool[k]), k))
    dealt = [[f"# {command} batch"] for _ in range(batches)]
    for rank, k in enumerate(ranked):
        dealt[rank % batches].append(pool[k])
    return ["\n".join(batch) + "\n" for batch in dealt]


def corpus4(seed: int) -> Workload:
    rng = random.Random(f"corpus4:{seed}")
    per_form = [
        _corpus_batches(rng, form[0], CORPUS_BATCHES_PER_FORM, CORPUS_LINES[form[0]]) for form in CORPUS_FORMS
    ]
    queries = tuple(
        Query(_argv(form[0], ("--corpus", "-"), *form[1:]), batches[j], CORPUS_LINES[form[0]])
        for j in range(CORPUS_BATCHES_PER_FORM)
        for form, batches in zip(CORPUS_FORMS, per_form)
    )
    warmup = tuple(
        Query(_argv(form[0], ("--corpus", "-"), *form[1:]), _corpus_batches(rng, form[0], 1, 2)[0], 2)
        for form in CORPUS_FORMS
    )
    return Workload("corpus4", queries, warmup)


# --- wide20 -----------------------------------------------------------------

WIDE_LETTERS = tuple(f"x{k}" for k in range(20))
WIDE_UNIVERSE = ",".join(WIDE_LETTERS)
WIDE_ROUNDS = 4
# Each round runs these forms in this order.  In logicrel 0.1.0 implies costs
# about five times the others, so it leads the round, and relate comes second
# so that the half-length untraced pass of a --trace 1 run still reaches it.
# relate runs on the default universe so that universe construction is
# exercised; its operands still cover all 20 letters.
WIDE_FORMS = (
    ("implies", None, False),
    ("relate", None, True),
    ("table", "material", True),
    ("classify", "relational", False),
    ("equiv", "material", False),
    ("table", "relational", True),
    ("classify", "material", True),
    ("equiv", "relational", True),
)


def _tree_over(rng: random.Random, leaves: list) -> tuple:
    """Balanced binary shape over the given leaves in the given order; random ops and negations."""
    if len(leaves) == 1:
        node = leaves[0]
    else:
        cut = len(leaves) // 2
        node = (rng.choice("&|>"), _tree_over(rng, leaves[:cut]), _tree_over(rng, leaves[cut:]))
    return ("~", node) if rng.random() < 0.25 else node


def _wide_formula(rng: random.Random, letters, constants: int) -> str:
    # Every letter occurs exactly once: in logicrel 0.1.0 a table's cost is the
    # sum of per-letter pattern costs, which differ a thousandfold by position.
    leaves = [(name,) for name in letters] + [rng.choice([("T",), ("F",)]) for _ in range(constants)]
    rng.shuffle(leaves)
    return render(_tree_over(rng, leaves))


def _wide_operands(rng: random.Random, command: str) -> list[str]:
    if command in ("table", "classify"):
        return [_wide_formula(rng, WIDE_LETTERS, 10)]
    # The operands split the letters: first the even, second the odd ones.
    return [_wide_formula(rng, WIDE_LETTERS[0::2], 5), _wide_formula(rng, WIDE_LETTERS[1::2], 5)]


def _wide_query(command: str, mode: str | None, as_json: bool, operands) -> Query:
    universe = None if command == "relate" else WIDE_UNIVERSE
    return Query(_argv(command, operands, mode, as_json, universe))


def wide20(seed: int) -> Workload:
    rng = random.Random(f"wide20:{seed}")
    queries = tuple(
        _wide_query(command, mode, as_json, _wide_operands(rng, command))
        for _ in range(WIDE_ROUNDS)
        for command, mode, as_json in WIDE_FORMS
    )
    tiny = {
        "implies": ["x0 & x1", "x0"],
        "table": ["~x0 -> x1"],
        "classify": ["x0 | ~x1"],
        "equiv": ["x0 -> x1", "~x0 | x1"],
        "relate": ["x0", "x0 | x1"],
    }
    warmup = tuple(_wide_query(command, mode, as_json, tiny[command]) for command, mode, as_json in WIDE_FORMS)
    # Nearly all time is in C loops over 128 KiB ints.  In ten runs the
    # probe's scale factor reached 1.46 while wide20's own times spread by
    # 4-5% (interquartile range over median), so scaling added noise here.
    return Workload("wide20", queries, warmup, scaled=False)


# --- long-input -------------------------------------------------------------

LONG_LETTERS = ("p", "q", "r", "s", "t", "u", "v", "w")
# Leaves per operand: about 10k characters for the two operands of a binary
# command, 14k for the one of classify, so that in logicrel 0.1.0 (where
# tokenizing is quadratic) every form but implies costs about the same.
LONG_LEAVES = {"classify": 2500, "binary": 1800}
LONG_ROUNDS = 4
LONG_FORMS = (
    ("classify", "relational", False),
    ("equiv", "material", False),
    ("implies", None, False),
    ("classify", "material", True),
    ("equiv", "relational", True),
    ("relate", None, True),
)
DEEP_NESTING = 1000
FLAT_TERMS = 2000


def _balanced(rng: random.Random, leaves: int) -> tuple:
    if leaves == 1:
        node = (rng.choice(LONG_LETTERS),) if rng.random() < 0.9 else (rng.choice("TF"),)
    else:
        half = leaves // 2
        node = (rng.choice("&|>"), _balanced(rng, half), _balanced(rng, leaves - half))
    return ("~", node) if rng.random() < 0.15 else node


def long_input(seed: int) -> Workload:
    rng = random.Random(f"long-input:{seed}")
    glyph = _mixed_glyph(rng)

    def operands(command: str, scale: int = 1) -> list[str]:
        if command == "classify":
            return [render(_balanced(rng, LONG_LEAVES["classify"] // scale), glyph)]
        return [render(_balanced(rng, LONG_LEAVES["binary"] // scale), glyph) for _ in range(2)]

    queries = tuple(
        Query(_argv(command, operands(command), mode, as_json))
        for _ in range(LONG_ROUNDS)
        for command, mode, as_json in LONG_FORMS
    )
    warmup = tuple(
        Query(_argv(command, operands(command, scale=300), mode, as_json))
        for command, mode, as_json in LONG_FORMS
    )
    nested = "(" * DEEP_NESTING + "p " + glyph("&") + " q" + ")" * DEEP_NESTING
    negations = "".join(glyph("~") for _ in range(DEEP_NESTING)) + "p"
    flat = f" {glyph('&')} ".join(LONG_LETTERS[k % len(LONG_LETTERS)] for k in range(FLAT_TERMS))
    deep = tuple(Query(("classify", text)) for text in (nested, negations, flat))
    return Workload("long-input", queries, warmup, deep)


WORKLOADS = {"corpus4": corpus4, "wide20": wide20, "long-input": long_input}
