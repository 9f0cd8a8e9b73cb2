"""The contracts of invgen's record types, and what importing them costs."""

import os
import subprocess
import sys

import pytest

import invgen
from invgen.cfg import Edge
from invgen.engine import CertResult, EngineOptions
from invgen.formula import parse_statement
from invgen.lp import Constraint, LpProblem, lp_feasible_strict, lp_solve
from invgen.numeric import Rat
from invgen.smt import SAT, SmtModel, SmtResult

from oracles import negated


def test_certification_result_is_true_only_when_verified():
    assert CertResult(True)
    assert not CertResult(False, 0, 1, SmtModel({}, {}))
    assert not CertResult(False, None, 0)


@pytest.mark.parametrize("record, field", [
    (Constraint((("x", Rat(1)),), Rat(2)), "rhs"),
    (Edge("a", None, "b"), "target"),
    (SmtModel({}, {}), "reals"),
    (SmtResult(SAT, SmtModel({}, {})), "status"),
    (EngineOptions(), "local_opt"),
])
def test_value_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_constraint_keeps_its_integer_form_and_compares_by_value():
    row = Constraint((("x", Rat(1, 2)), ("y", Rat(-1, 3))), Rat(5, 4))
    assert row.ints == ({"x": 6, "y": -4}, 15, 12)
    assert row.ints is row.ints
    # test_lp's equality pairs are found by comparing a row with its negation
    twin = Constraint((("x", Rat(1, 2)), ("y", Rat(-1, 3))), Rat(5, 4))
    assert row == twin
    assert negated(negated(row)) == row != negated(row)
    assert row != Constraint(row.coeffs, row.rhs, True)


def test_an_atom_is_its_own_lp_row():
    # parsed atoms, a strict one among them, enter LPs as they are
    atoms = parse_statement("x < 1 & x >= 0").children
    assert [(a.coeffs, a.rhs, a.strict) for a in atoms] == \
        [((("x", 1),), 1, True), ((("x", -1),), 0, False)]
    assert atoms[0] == Constraint((("x", Rat(1)),), Rat(1), True)
    assert atoms[0].ints is atoms[0].ints
    feas = lp_feasible_strict(atoms)
    assert feas.feasible and 0 <= feas.witness["x"] < 1
    assert not lp_feasible_strict(parse_statement("x < 1 & x >= 1").children).feasible
    # any other solve reads the strict row as its closure
    res = lp_solve(LpProblem(["x"], {"x": Rat(1)}, []).extend(atoms))
    assert res.value == 1
    with pytest.raises(AttributeError):
        atoms[0].rhs = Rat(2)


def test_importing_every_layer_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(os.path.abspath(invgen.__file__)))
    code = ("import sys\n"
            "for layer in 'numeric lp formula smt cfg engine cli'.split():\n"
            "    __import__('invgen.' + layer)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
