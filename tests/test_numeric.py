import pytest
from hypothesis import given, strategies as st

from invgen.numeric import (
    NEG_INF, POS_INF, ExtRat, Rat, as_rat, ext,
)

from oracles import parse_ext

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=97)


def as_ext(q):
    return ExtRat(0, Rat(q.numerator, q.denominator))


def test_total_order_basics():
    assert NEG_INF < ext(0) and ext(0) > NEG_INF
    assert POS_INF == POS_INF and not POS_INF < POS_INF and not POS_INF > POS_INF
    assert ext(Rat(7, 2)) > ext(Rat(10, 3))
    assert NEG_INF < ext(-10**9) < ext(0) < ext(10**9) < POS_INF


@given(st.lists(rationals, min_size=2, max_size=6))
def test_order_is_total_and_transitive(values):
    items = [NEG_INF, POS_INF] + [as_ext(q) for q in values]
    for a in items:
        for b in items:
            assert [a < b, a == b, a > b].count(True) == 1  # trichotomy
            assert (a < b) == (b > a)  # antisymmetry
            for c in items:
                if a <= b and b <= c:
                    assert a <= c


@given(rationals)
def test_parse_print_round_trip(q):
    r = Rat(q.numerator, q.denominator)
    assert as_rat(str(ext(r))) == r


def test_literal_forms():
    assert as_rat("1.25") == Rat(5, 4)
    assert as_rat("-0.5") == Rat(-1, 2)
    assert as_rat("7") == Rat(7)
    assert str(parse_ext("inf")) == "inf"
    assert str(parse_ext("-inf")) == "-inf"
    assert str(parse_ext("-7/2")) == "-7/2"


def test_as_rat_returns_a_rat_as_it_is():
    q = Rat(-7, 2)
    assert as_rat(q) is q
    assert as_rat(3) == Rat(3) and type(as_rat(3)) is Rat
    assert as_rat("5/4") == Rat(5, 4)
    with pytest.raises(TypeError):
        as_rat(0.5)  # a float is not exact


def test_lowest_terms():
    assert str(ext(Rat(21, 6))) == "7/2"
    assert str(ext(Rat(-4, 8))) == "-1/2"
    assert str(ext(Rat(10, 5))) == "2"


def test_hash_of_equal_values():
    assert len({ext(1), ext(1), POS_INF, POS_INF}) == 2
