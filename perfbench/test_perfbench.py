"""Checks of the benchmark itself: reference, input generator, tracer, output shape.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

import logicrel.cli  # noqa: E402
from logicrel import __version__  # noqa: E402
from logicrel.formula import Bottom, Imp, Letter, Not, Or, Top  # noqa: E402
from logicrel.parser import parse  # noqa: E402
from oracle import oracle_table  # noqa: E402
from reference import Tables, compile_formula, expected_run  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402
from workloads import CORPUS_LETTERS, WORKLOADS, _mixed_glyph, _random_formula, render  # noqa: E402


def _material(f):
    """Rewrite implications as ~a | b, so the oracle's relational check does not apply."""
    if isinstance(f, (Letter, Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(_material(f.child))
    if isinstance(f, Imp):
        return Or(Not(_material(f.antecedent)), _material(f.consequent))
    return type(f)(_material(f.left), _material(f.right))


def _bits(values: list[bool]) -> int:
    return sum(1 << row for row, v in enumerate(values) if v)


@pytest.mark.parametrize("seed", range(300))
def test_reference_tables_match_oracle(seed):
    rng = random.Random(seed)
    glyph = _mixed_glyph(rng) if seed % 2 else None
    tree = _random_formula(rng, 4, CORPUS_LETTERS[: 1 + seed % 4])
    text = render(tree, glyph) if glyph else render(tree)
    program = compile_formula(text)
    f = parse(text)
    names = program.letters
    tables = Tables(names)
    assert tables.bits(program, relational=True) == _bits(oracle_table(f, names))
    assert tables.bits(program, relational=False) == _bits(oracle_table(_material(f), names))


def test_reference_agrees_with_grammar_on_associativity():
    for text, same in [
        ("p -> q -> r", "p -> (q -> r)"),
        ("p & q | r", "(p & q) | r"),
        ("p | q & r", "p | (q & r)"),
        ("~p & q", "(~p) & q"),
        ("¬(p ∧ q) → ⊥", "~(p & q) -> F"),
    ]:
        assert compile_formula(text).code == compile_formula(same).code


def _digest(name: str, seed: int) -> str:
    w = WORKLOADS[name](seed)
    h = hashlib.sha256()
    for q in (*w.queries, *w.warmup, *w.deep):
        h.update(json.dumps([q.argv, q.stdin, q.weight], ensure_ascii=False).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = _digest(name, 7)
    assert _digest(name, 7) == first
    assert _digest(name, 8) != first
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); " \
           f"from test_perfbench import _digest; print(_digest({name!r}, 7))"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "12345"}, cwd=ROOT,
    )
    assert child.stdout.strip() == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_expected_answers_match_cli_on_warmup_queries(name):
    for q in WORKLOADS[name](3).warmup:
        stdin = None if q.stdin is None else io.StringIO(q.stdin)
        got = logicrel.cli.run(list(q.argv), stdin)[:2]
        assert got == expected_run(list(q.argv), q.stdin, __version__), q.argv


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail([float(k) for k in range(9)]) == (100.0, 8.0)
    assert tail([float(k) for k in range(99)]) == (100.0, 98.0)
    assert tail([float(k) for k in range(100)]) == (90.0, 89.0)
    assert tail([float(k) for k in range(1000)]) == (99.0, 989.0)


def test_speed_probe_scales_by_nearby_samples():
    probe = SpeedProbe()
    probe.at = [0.0, 0.1, 0.2, 5.0]
    probe.took = [2 * REFERENCE_KERNEL_S] * 3 + [REFERENCE_KERNEL_S]
    assert probe.scale(0.05, 0.15) == 0.5  # host at half the reference speed
    assert probe.scale(5.0, 5.1) == 1.0
    assert probe.scale(2.0, 2.1) == probe.scale(0.0, 5.0)  # no sample nearby: all of them


def test_speed_probe_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(probe.took) >= 3 and probe.spent == pytest.approx(sum(probe.took))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_restores_originals_and_splits_self_time(tmp_path):
    original = logicrel.cli.parse
    tracer = Tracer()
    tracer.install()
    try:
        assert logicrel.cli.parse is not original
        logicrel.cli.run(["classify", "p -> q"])
    finally:
        tracer.uninstall()
    assert logicrel.cli.parse is original
    summary = tracer.summarize()
    assert summary["cli.run"]["calls"] == 1
    assert summary["parser.parse"]["calls"] == 1
    for stats in summary.values():
        assert 0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    assert summary["parser.parse"]["chars"] == len("p -> q")
    tracer.write(tmp_path / "spans.tsv.gz")
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 1 + len(tracer.start)
    assert rows[1].split("\t")[:2] == ["cli.run", "-1"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus4", "--seed", "1", "--seconds", "1",
         "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["end_to_end"] if trace == "0" else declared["per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in section} == {k: v["unit"] for k, v in result["metrics"].items()}
