"""The contracts of invgen's record types, and what importing them costs."""

import os
import subprocess
import sys

import pytest

import invgen
from invgen.cfg import Edge
from invgen.engine import CertResult, EngineOptions
from invgen.lp import Constraint
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
