"""The public value types behave as the frozen dataclasses they replaced, and the CLI starts without dataclasses.

The repr strings below are the text the frozen dataclasses printed.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, is_dataclass
from pathlib import Path

import pytest

from logicrel import (
    CriteriaReport,
    Interpretation,
    LatticeReport,
    ParadoxReport,
    RelationClass,
    RelationKind,
    TruthTable,
    Universe,
    Verdict,
    audit_paradoxes,
    classify_relation,
    criteria_report,
    parse,
    verify_lattice,
)

SRC = Path(__file__).resolve().parent.parent / "src"

U = Universe(("p", "q"))
I = Interpretation(U, (True, False))
U_TEXT = "Universe(letters=('p', 'q'))"
I_TEXT = f"Interpretation(universe={U_TEXT}, values=(True, False))"

# Per type: a maker of one value (called twice, so the two are equal but not
# the same object), a different value of the same type, and the value's repr.
VALUES = [
    pytest.param(lambda: Universe(("p", "q")), lambda: Universe(("q", "p")), U_TEXT, id="Universe"),
    pytest.param(lambda: Interpretation(Universe(("p", "q")), (True, False)),
                 lambda: Interpretation(U, (False, False)), I_TEXT, id="Interpretation"),
    pytest.param(lambda: TruthTable(Universe(("p", "q")), 13), lambda: TruthTable(U, 12),
                 f"TruthTable(universe={U_TEXT}, bits=13)", id="TruthTable"),
    pytest.param(lambda: Verdict(False, Interpretation(U, (True, False))), lambda: Verdict(True),
                 f"Verdict(holds=False, witness={I_TEXT})", id="Verdict"),
    pytest.param(lambda: criteria_report(parse("p"), parse("q")),
                 lambda: criteria_report(parse("p & q"), parse("p")),
                 f"CriteriaReport(and_absorb=False, conj_bottom=False, disj_top=False, agree=True, "
                 f"witness={I_TEXT})", id="CriteriaReport"),
    pytest.param(lambda: classify_relation(parse("p"), parse("T")),
                 lambda: RelationClass(RelationKind.INCLUSION_FORWARD),
                 "RelationClass(kind=<RelationKind.INCLUSION_FORWARD: 'inclusion_forward'>, "
                 "degenerate=frozenset({'second_is_top'}))", id="RelationClass"),
    pytest.param(lambda: audit_paradoxes(parse("p"), parse("q"))[0],
                 lambda: audit_paradoxes(parse("p"), parse("q"))[1],
                 "ParadoxReport(schema='P1', formula=Imp(antecedent=Not(child=Letter(name='p')), "
                 "consequent=Imp(antecedent=Letter(name='p'), consequent=Letter(name='q'))), "
                 "material_tautology=True, relational_tautology=False, relational_status='contradiction', "
                 f"relational_witness=Interpretation(universe={U_TEXT}, values=(False, False)))",
                 id="ParadoxReport"),
    pytest.param(lambda: verify_lattice(1), lambda: LatticeReport(2, 16, (("meet", (1, 2)),)),
                 "LatticeReport(universe_size=1, class_count=4, failures=())", id="LatticeReport"),
]


@pytest.mark.parametrize("make, make_other, text", VALUES)
def test_value_type_keeps_the_frozen_dataclass_behaviour(make, make_other, text):
    value, same, other = make(), make(), make_other()
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls.__match_args__)
    assert repr(value) == text
    assert same is not value and same == value and not same != value
    assert hash(same) == hash(value) == hash(fields)
    assert other != value and not other == value
    # Another class, a subclass with the same fields included, is never equal.
    twin = object.__new__(type("Twin", (cls,), {}))
    twin.__dict__.update(vars(value))
    assert twin.__match_args__ == cls.__match_args__ and repr(twin) == "Twin" + text[len(cls.__name__):]
    for stranger in (twin, fields):
        assert value.__eq__(stranger) is NotImplemented and value != stranger and not value == stranger
    for name in cls.__match_args__:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    for duplicate in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy):
        assert duplicate(value) == value and repr(duplicate(value)) == text
    match value:
        case cls(first):
            assert first is fields[0]
        case _:
            raise AssertionError("positional pattern did not bind")
    assert not is_dataclass(value)


def test_a_universe_duplicates_with_its_position_index_cached():
    u = Universe(("p", "q", "r"))
    assert u.position("r") == 2  # caches the name -> position index
    for duplicate in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy):
        d = duplicate(u)
        assert d == u and hash(d) == hash(u)
        assert d.position("q") == 1 and "r" in d and "s" not in d and list(d) == ["p", "q", "r"]


def test_keyword_construction_and_defaults():
    assert Verdict(True) == Verdict(holds=True) == Verdict(True, None) == Verdict(witness=None, holds=True)
    assert Verdict(True).witness is None and Verdict(False, I).witness is I
    assert RelationClass(RelationKind.JOINT).degenerate == frozenset()
    assert RelationClass(kind=RelationKind.JOINT, degenerate=frozenset({"x"})).degenerate == {"x"}
    assert CriteriaReport(True, True, True, True).witness is None
    assert CriteriaReport(True, True, True, True, witness=I) == CriteriaReport(True, True, True, True, I)
    assert TruthTable(universe=U, bits=3) == TruthTable(U, 3)
    assert Interpretation(values=(True, False), universe=U) == I
    assert LatticeReport(universe_size=1, class_count=4, failures=()) == verify_lattice(1)
    report = audit_paradoxes(parse("p"), parse("q"))[2]
    assert ParadoxReport(**{name: getattr(report, name) for name in ParadoxReport.__match_args__}) == report
    for build in (lambda: Verdict(), lambda: Verdict(True, None, None), lambda: Verdict(True, holds=True),
                  lambda: RelationClass(), lambda: RelationClass(RelationKind.JOINT, kind=RelationKind.JOINT),
                  lambda: LatticeReport(1, 4), lambda: LatticeReport(1, 4, (), ()),
                  lambda: CriteriaReport(True, True, True, True, bogus=1), lambda: TruthTable(U)):
        with pytest.raises(TypeError):
            build()


def test_positional_match_binds_every_field_in_order():
    match Verdict(False, I), TruthTable(U, 13), verify_lattice(1):
        case (Verdict(False, Interpretation(Universe(letters), values)),
              TruthTable(universe, bits), LatticeReport(size, count, failures)):
            assert (letters, values, universe, bits) == (("p", "q"), (True, False), U, 13)
            assert (size, count, failures) == (1, 4, ())
        case _:
            raise AssertionError("positional patterns did not bind")


def test_constructors_refuse_values_that_do_not_fit_the_universe():
    with pytest.raises(ValueError, match=r"^1 values for 2 letters$"):
        Interpretation(U, (True,))
    for bits in (-1, 16):
        with pytest.raises(ValueError, match=r"^bit vector out of range for universe size$"):
            TruthTable(U, bits)


# -S: no .pth file of the host's site-packages runs first and loads them itself.
STARTUP = """
import sys
from logicrel.cli import run
assert run(["classify", "p"])[0] == 1
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
from dataclasses import FrozenInstanceError
from logicrel import Letter, Verdict
for value, name in ((Letter("p"), "name"), (Verdict(True), "holds")):
    try:
        setattr(value, name, None)
    except FrozenInstanceError:
        print("refused", name)
"""


def test_the_cli_starts_without_importing_dataclasses_or_inspect():
    proc = subprocess.run([sys.executable, "-S", "-c", STARTUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\nrefused name\nrefused holds\n"
