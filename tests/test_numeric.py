from hypothesis import given, strategies as st

from invgen.numeric import (
    NEG_INF, POS_INF, ExtRat, Rat, as_rat, ext, ext_add, ext_cmp, parse_rat, rat_str,
)

from oracles import parse_ext

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=97)


def as_ext(q):
    return ExtRat.finite(Rat(q.numerator, q.denominator))


def test_mixed_infinities_resolve_low():
    assert ext_add(NEG_INF, POS_INF) == NEG_INF
    assert ext_add(POS_INF, NEG_INF) == NEG_INF
    assert ext_add(POS_INF, POS_INF) == POS_INF
    assert ext_add(NEG_INF, NEG_INF) == NEG_INF
    assert ext_add(POS_INF, ext(5)) == POS_INF
    assert ext_add(NEG_INF, ext(5)) == NEG_INF


def test_exact_addition():
    assert ext_add(ext(Rat(1, 3)), ext(Rat(1, 6))) == ext(Rat(1, 2))
    assert ext_add(ext(0), ext(Rat(7, 2))) == ext(Rat(7, 2))


def test_total_order_basics():
    assert ext_cmp(NEG_INF, ext(0)) < 0
    assert ext_cmp(POS_INF, POS_INF) == 0
    assert ext_cmp(ext(Rat(7, 2)), ext(Rat(10, 3))) > 0
    assert NEG_INF < ext(-10**9) < ext(0) < ext(10**9) < POS_INF


@given(rationals, rationals)
def test_addition_round_trips(a, b):
    total = ext_add(as_ext(a), as_ext(b))
    assert ext_add(total, as_ext(-b)) == as_ext(a)


@given(st.lists(rationals, min_size=2, max_size=6))
def test_order_is_total_and_transitive(values):
    items = [NEG_INF, POS_INF] + [as_ext(q) for q in values]
    for a in items:
        for b in items:
            assert ext_cmp(a, b) == -ext_cmp(b, a)
            for c in items:
                if a <= b and b <= c:
                    assert a <= c


@given(rationals)
def test_parse_print_round_trip(q):
    r = Rat(q.numerator, q.denominator)
    assert parse_rat(rat_str(r)) == r


def test_literal_forms():
    assert parse_rat("1.25") == Rat(5, 4)
    assert parse_rat("5/4") == Rat(5, 4)
    assert parse_rat("-0.5") == Rat(-1, 2)
    assert parse_rat("7") == Rat(7)
    assert str(parse_ext("inf")) == "inf"
    assert str(parse_ext("-inf")) == "-inf"
    assert str(parse_ext("-7/2")) == "-7/2"


def test_as_rat_returns_a_rat_as_it_is():
    q = Rat(-7, 2)
    assert as_rat(q) is q
    assert as_rat(3) == Rat(3) and type(as_rat(3)) is Rat
    assert as_rat("5/4") == Rat(5, 4)


def test_lowest_terms():
    assert rat_str(Rat(21, 6)) == "7/2"
    assert rat_str(Rat(-4, 8)) == "-1/2"
    assert rat_str(Rat(10, 5)) == "2"


def test_negation_and_hash():
    assert -POS_INF == NEG_INF
    assert -ext(Rat(3, 4)) == ext(Rat(-3, 4))
    assert len({ext(1), ext(1), POS_INF, POS_INF}) == 2
