import random

import pytest

from invgen.formula import (
    And, Atom, FormulaError, Or, ParseError, UNSAT_PROBLEM, build_psi,
    enumerate_path_choices, eval_formula, format_statement, formula_vars,
    parse_linexpr, parse_statement, select_path, selectors_of,
)
from invgen.numeric import NEG_INF, POS_INF, Rat, ext

from generators import random_state, random_statement
from oracles import check_selector_invariant, nonstrict_relaxation

RUNNING_BODY = ("x1 <= 1000 & x2' = -x1 & "
                "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")


def atoms_as_strings(formula):
    from invgen.formula import atoms_of
    return [str(a) for a in atoms_of(formula)]


def test_equality_desugars_to_two_atoms():
    f = parse_statement("x1' = 0")
    assert atoms_as_strings(f) == ["x1' <= 0", "-x1' <= 0"]


def test_disequality_desugars_to_strict_disjunction():
    f = parse_statement("x != 0")
    assert isinstance(f, Or)
    assert str(f.left) == "x < 0"
    assert str(f.right) == "-x < 0"  # 0 < x, normalized
    assert selectors_of(f) == [0]


def test_running_example_shape():
    f = parse_statement(RUNNING_BODY)
    assert isinstance(f, And)
    assert selectors_of(f) == [0]
    assert formula_vars(f) == ["x1", "x2'", "x1'"]


def test_relations_and_precedence():
    f = parse_statement("x >= 1 | x > 2 & x <= 3")
    # & binds tighter than |
    assert isinstance(f, Or)
    assert isinstance(f.right, And)
    assert str(f.left) == "-x <= -1"
    assert str(f.right.children[0]) == "-x < -2"


def test_rational_coefficients():
    f = parse_statement("1/2 * x + 0.25 <= 2")
    atom = f
    assert isinstance(atom, Atom)
    assert atom.lin.coeffs["x"] == Rat(1, 2)
    assert atom.bound == Rat(7, 4)


def test_negation_rejected():
    with pytest.raises(ParseError):
        parse_statement("!(x <= 0)")
    with pytest.raises(ParseError):
        parse_statement("x ~ 0")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_statement("x <= ")
    assert err.value.line == 1 and err.value.column >= 5
    with pytest.raises(ParseError):
        parse_statement("x * y <= 1")  # nonlinear
    with pytest.raises(ParseError):
        parse_statement("x <= 1 <= 2")  # chained relation
    with pytest.raises(ParseError):
        parse_statement("$v <= 1")  # reserved namespace


def test_select_path_on_running_example():
    f = parse_statement(RUNNING_BODY)
    right = select_path(f, {0: 1})
    assert "x1' + x1 <= 1" in atoms_as_strings(right)
    left = select_path(f, {0: 0})
    assert "x2' <= -1" in atoms_as_strings(left)
    with pytest.raises(FormulaError):
        select_path(f, {})


def test_select_path_identity_on_sequential():
    f = parse_statement("x <= 1 & y' = x")
    assert atoms_as_strings(select_path(f, {})) == atoms_as_strings(f)


def test_select_path_eliminates_all_disjunctions():
    f = parse_statement("(a <= 0 | a >= 1) & (b <= 0 | b >= 1) & (c <= 0 | c >= 1)")
    assert len(selectors_of(f)) == 3
    for mask in range(8):
        choice = {s: (mask >> i) & 1 for i, s in enumerate(selectors_of(f))}
        assert selectors_of(select_path(f, choice)) == []
    assert len(enumerate_path_choices(f)) == 8


def test_relaxation():
    assert str(nonstrict_relaxation(parse_statement("x < 0"))) == "x <= 0"
    f = parse_statement("x < 0 & y <= 1 & (x < 1 | y < 2)")
    relaxed = nonstrict_relaxation(f)
    assert all(a.rel == "<=" for a in _all_atoms(relaxed))
    again = nonstrict_relaxation(relaxed)
    assert format_statement(again) == format_statement(relaxed)


def _all_atoms(f):
    from invgen.formula import iter_nodes
    return [n for n in iter_nodes(f) if isinstance(n, Atom)]


def test_selector_labels_are_preorder_and_distinct():
    rng = random.Random(5)
    for _ in range(50):
        f = random_statement(rng, ["x", "y"], max_selectors=6)
        check_selector_invariant(f)
        labels = selectors_of(f)
        assert labels == sorted(labels)


def test_parser_round_trip_semantics():
    rng = random.Random(23)
    for _ in range(60):
        f = random_statement(rng, ["x", "y", "x'"], max_selectors=5)
        g = parse_statement(format_statement(f))
        for _ in range(12):
            env = random_state(rng, ["x", "y", "x'"])
            assert eval_formula(f, env) == eval_formula(g, env)


def test_path_semantics_matches_plain_disjunction():
    rng = random.Random(29)
    for _ in range(40):
        f = random_statement(rng, ["x", "y"], max_selectors=4)
        paths = enumerate_path_choices(f)
        for _ in range(10):
            env = random_state(rng, ["x", "y"])
            plain = eval_formula(f, env)
            by_paths = any(eval_formula(select_path(f, p), env) for p in paths)
            assert plain == by_paths


def test_build_psi_structure():
    f = parse_statement(RUNNING_BODY)
    rows = [parse_linexpr("x1"), parse_linexpr("-x1")]
    psi = build_psi(f, [ext(0), ext(0)], rows, 0, ext(0))
    assert psi.objective_var == "$v"
    assert "$v" in psi.real_vars
    # two source rows, the body, the two v-definition atoms, the strict bound
    assert len(psi.skeleton.children) == 6
    assert psi.skeleton.children[-1].rel == "<"


def test_build_psi_drops_infinite_rows_and_bound():
    f = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    psi = build_psi(f, [POS_INF], rows, 0, NEG_INF)
    # no source row and no bound clause: just body plus v-definition
    assert len(psi.skeleton.children) == 3


def test_build_psi_corner_cases():
    f = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    assert build_psi(f, [NEG_INF], rows, 0, ext(0)) is UNSAT_PROBLEM
    with pytest.raises(FormulaError):
        build_psi(f, [ext(0)], rows, 0, POS_INF)
    with pytest.raises(FormulaError):
        build_psi(f, [ext(0), ext(0)], rows, 0, ext(0))  # wrong arity


def test_linexpr_printer_round_trip():
    for text in ("x1", "-x1", "x1 + x2", "2*x1 - 3/2*x2", "x1 - 1"):
        e = parse_linexpr(text)
        assert parse_linexpr(str(e)) == e
