"""Acceptance suite: one test per release criterion, zero tolerance throughout.

Each criterion prints a single PASS/FAIL line (visible with `pytest -s`).
The random sweeps are fully seeded, so every run checks the same corpus.
"""

import random
import time
from contextlib import contextmanager

from logicrel.equivalence import entails, equivalent, is_tautology
from logicrel.formula import Imp, Letter, Universe
from logicrel.parser import SyntaxStyle, parse, render
from logicrel.relation import audit_paradoxes, criteria_report, verify_lattice
from logicrel.semantics import (
    Interpretation,
    Mode,
    eval_relational,
    gen_random_formula,
    truth_table,
)

from cli_cases import CASES, run_case
from oracle import assignments, oracle_eval
from strategies import gen_imp_free

P, Q = Letter("p"), Letter("q")
U2 = Universe(("p", "q"))
U3 = Universe(("p", "q", "r"))
U4 = Universe(("p", "q", "r", "s"))


@contextmanager
def criterion(number: int, name: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_paradox_suite():
    with criterion(1, "paradox schemas flip from material tautology to relational failure"):
        t0 = time.monotonic()
        reports = audit_paradoxes(P, Q, U2)
        assert [r.schema for r in reports] == ["P1", "P2", "P3"]
        for r in reports:
            assert r.material_tautology is True
            assert r.relational_tautology is False
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_criteria_agree_on_10k_random_pairs():
    with criterion(2, "three-way criteria agree on 10,000 random pairs"):
        t0 = time.monotonic()
        for i in range(10_000):
            a = gen_random_formula(5, U4, seed=2 * i)
            b = gen_random_formula(5, U4, seed=2 * i + 1)
            r = criteria_report(a, b, U4)
            assert r.and_absorb == r.conj_bottom == r.disj_top, (a, b)
            assert r.agree
        assert time.monotonic() - t0 < 30.0


def test_criterion_3_entailment_correspondence_on_10k_pairs():
    with criterion(3, "material entailment equals relational arrow tautology"):
        rng = random.Random(303)
        for _ in range(10_000):
            a = gen_imp_free(rng, 4, ("p", "q", "r"))
            b = gen_imp_free(rng, 4, ("p", "q", "r"))
            lhs = entails(a, b, Mode.MATERIAL, U3).holds
            rhs = is_tautology(Imp(a, b), Mode.RELATIONAL, U3).holds
            assert lhs == rhs, (a, b)


def test_criterion_4_lattice_verification():
    with criterion(4, "truth-table classes form a bounded lattice (n=2 and n=3)"):
        t0 = time.monotonic()
        two = verify_lattice(2)
        assert two.class_count == 16
        assert two.failures == ()
        three = verify_lattice(3)
        assert three.class_count == 256
        assert three.failures == ()
        assert time.monotonic() - t0 < 60.0


def test_criterion_5_replacement_vs_inference_asymmetry():
    with criterion(5, "replacement rule is one-directional relationally"):
        fwd = entails(parse("p -> q"), parse("~p | q"), Mode.RELATIONAL, U2)
        assert fwd.holds
        bwd = entails(parse("~p | q"), parse("p -> q"), Mode.RELATIONAL, U2)
        assert not bwd.holds
        assert bwd.witness.as_dict() == {"p": False, "q": False}
        rel_eq = equivalent(parse("p -> q"), parse("~p | q"), Mode.RELATIONAL, U2)
        assert not rel_eq.holds
        mat_eq = equivalent(parse("p -> q"), parse("~p | q"), Mode.MATERIAL, U2)
        assert mat_eq.holds


def test_criterion_6_independent_oracle_agreement_on_10k_formulas():
    with criterion(6, "brute-force oracle agrees with the relational evaluator"):
        names = ("p", "q", "r")
        mismatches = 0
        for i in range(10_000):
            f = gen_random_formula(4, U3, seed=i)
            for row, env in enumerate(assignments(names)):
                want = oracle_eval(f, env, names)
                got = eval_relational(f, Interpretation.from_index(U3, row))
                if want != got:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_7_parser_roundtrip_on_10k_formulas():
    with criterion(7, "parse-render identity in both syntax styles"):
        for i in range(10_000):
            f = gen_random_formula(5, U3, seed=i)
            assert parse(render(f, SyntaxStyle.ASCII)) == f
            assert parse(render(f, SyntaxStyle.UNICODE)) == f


def test_criterion_8_modes_agree_on_implication_free_formulas():
    with criterion(8, "material and relational tables match without implications"):
        rng = random.Random(808)
        for _ in range(10_000):
            f = gen_imp_free(rng, 4, ("p", "q", "r"))
            mat = truth_table(f, U3, Mode.MATERIAL)
            rel = truth_table(f, U3, Mode.RELATIONAL)
            assert mat.bits == rel.bits


def test_criterion_9_cli_contract_is_bit_exact():
    with criterion(9, "CLI golden outputs and exit codes"):
        for case in CASES:
            code, out, err = run_case(case)
            assert code == case.code, case.name
            assert err == case.stderr, case.name
            assert out == case.stdout_file.read_text(encoding="utf-8"), case.name
