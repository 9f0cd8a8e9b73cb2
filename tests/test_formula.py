import random

import pytest

from invgen.formula import (
    FALSE_ATOM, TRUE, And, Atom, FormulaError, Or, ParseError, UNSAT_PROBLEM, atoms_of,
    build_psi, eliminate_equalities, enumerate_path_choices, formula_size, formula_vars,
    label_selectors, map_atoms, parse_linexpr, parse_statement, select_path, selectors_of,
)
from invgen.numeric import NEG_INF, POS_INF, Rat, ext
from invgen.smt import _walk

from generators import random_shared_statement, random_state, random_statement
from oracles import (
    check_selector_invariant, eval_formula, format_statement, nonstrict_relaxation,
)

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
    # two source rows, the body as it is, and x1' > 0 as one strict atom
    assert psi.skeleton.children == (
        Atom(rows[0], "<=", 0), Atom(rows[1], "<=", 0), f,
        Atom(parse_linexpr("-x1'"), "<", 0))
    assert psi.skeleton.children[2] is f
    assert psi.real_vars == ("x1", "x2'", "x1'")
    # a presolved post-state row may carry a constant: 2*x1 + 1 > 3
    psi = build_psi(f, [ext(0), ext(0)], rows, 0, ext(3), post=parse_linexpr("2*x1 + 1"))
    assert psi.skeleton.children[-1] == Atom(parse_linexpr("-2*x1"), "<", -2)
    assert psi.real_vars == ("x1", "x2'", "x1'")
    # a constant one is still one strict atom: 5 > 3 holds
    psi = build_psi(f, [POS_INF, POS_INF], rows, 0, ext(3), post=parse_linexpr("5"))
    assert psi.skeleton.children == (f, Atom(parse_linexpr("0"), "<", 2))


def test_build_psi_drops_infinite_rows_and_bound():
    f = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    psi = build_psi(f, [POS_INF], rows, 0, NEG_INF)
    # no source row and no bound clause: just the body
    assert psi.skeleton.children == (f,)
    assert psi.real_vars == ("x1'", "x1")


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


def _presolve(text, keep):
    return eliminate_equalities(parse_statement(text), set(keep))


def test_eliminate_equalities_solves_a_chain_in_order():
    stmt, defs = _presolve("y1 = 1 & y2 = 2*y1 & x' = x + y2", ["x"])
    assert defs == {"y1": parse_linexpr("1"), "y2": parse_linexpr("2"),
                    "x'": parse_linexpr("x + 2")}
    assert stmt is TRUE
    # the later definition is substituted into the earlier ones too
    stmt, defs = _presolve("x' = x + y2 & y2 = 2*y1 & y1 = 1 & x' <= 5", ["x"])
    assert defs["x'"] == parse_linexpr("x + 2")
    assert atoms_as_strings(stmt) == ["x <= 3"]


def test_eliminate_equalities_contradiction_is_false():
    stmt, defs = _presolve("y = 1 & y = 2", ["x"])
    assert stmt is FALSE_ATOM
    assert defs == {"y": parse_linexpr("1")}
    stmt, _ = _presolve("y = 1 & x' = 3 & (x' <= 2 | x <= 0)", ["x"])
    assert atoms_as_strings(select_path(stmt, {0: 1})) == ["x <= 0"]
    (atom,) = atoms_of(select_path(stmt, {0: 0}))
    assert atom is FALSE_ATOM


def test_eliminate_equalities_keeps_equalities_over_kept_variables():
    f = parse_statement("x = 2*z & x' = x")
    stmt, defs = eliminate_equalities(f, {"x", "z"})
    assert defs == {"x'": parse_linexpr("x")}
    assert [id(a) for a in atoms_of(stmt)] == [id(a) for a in f.children[:2]]


def test_eliminate_equalities_leaves_equalities_inside_disjunctions():
    f = parse_statement("x' = x | x' = x + 1")
    assert eliminate_equalities(f, {"x"}) == (f, {})
    stmt, defs = _presolve("y = 1 & (x' = y | x' = 2)", ["x"])
    assert defs == {"y": parse_linexpr("1")}
    (disjunction,) = stmt.children
    assert isinstance(disjunction, Or) and selectors_of(stmt) == [0]
    assert atoms_as_strings(disjunction.left) == ["x' <= 1", "-x' <= -1"]
    assert atoms_as_strings(disjunction.right) == ["x' <= 2", "-x' <= -2"]


@pytest.mark.filterwarnings("ignore:dropping nodes unreachable")
def test_eliminate_equalities_shrinks_compressed_statements():
    from invgen.cfg import compress, feedback_vertex_set
    from invgen.cli import parse_program, program_to_cfg
    from conftest import corpus_files

    shrunk = 0
    for path in corpus_files():
        with open(path, encoding="utf-8") as handle:
            g, _ = program_to_cfg(parse_program(handle.read()))
        g = compress(g, feedback_vertex_set(g))
        for edge in g.edges:
            stmt, defs = eliminate_equalities(edge.statement, set(g.program_vars))
            assert formula_size(stmt) <= formula_size(edge.statement)
            assert set(selectors_of(stmt)) <= set(selectors_of(edge.statement))
            assert not set(defs) & set(formula_vars(stmt))
            shrunk += formula_size(stmt) < formula_size(edge.statement)
    assert shrunk >= 10


def test_eliminate_equalities_is_exact_on_random_points():
    # phi and phi[defs] agree at every point that satisfies the definitions
    rng = random.Random(61)
    for _ in range(100):
        body = random_statement(rng, ["x", "x'", "w"], max_selectors=3)
        eqs = "w = 2*x - 1 & x' = w + x" if rng.random() < 0.5 else "x' = 3 & w = x'"
        f = And((parse_statement(eqs), body))
        stmt, defs = eliminate_equalities(f, {"x"})
        for _ in range(5):
            env = random_state(rng, ["x", "x'", "w"])
            for v, expr in defs.items():
                env[v] = expr.evaluate(env)
            assert eval_formula(stmt, env) == eval_formula(f, env)


def test_relabelling_is_preorder_on_shared_statements():
    rng = random.Random(67)
    for _ in range(50):
        f = random_shared_statement(rng, ["x", "y"], max_selectors=6)
        again = label_selectors(f, 3)
        assert selectors_of(again) == list(range(3, 3 + len(selectors_of(f))))
        assert formula_size(again) == formula_size(f)
        assert formula_size(map_atoms(f, lambda a: a)) == formula_size(f)


def test_deep_disjunction_chain_is_rebuilt_without_recursion():
    # 5,000 disjuncts nest 4,999 deep: parsing labels them with label_selectors
    text = "y = 1 & (" + " | ".join(f"x' = y + {i}" for i in range(5000)) + ")"
    f = parse_statement(text)
    chain = f.children[-1]
    assert selectors_of(chain) == list(range(4999))
    relabelled = label_selectors(chain, 10)
    assert selectors_of(relabelled)[-1] == 5008
    shifted = map_atoms(chain, lambda a: Atom(a.lin, a.rel, a.bound + 1))
    deepest = shifted
    while isinstance(deepest, Or):
        deepest = deepest.left
    assert atoms_as_strings(deepest) == ["x' - y <= 1", "y - x' <= 1"]
    stmt, defs = eliminate_equalities(f, {"x"})
    assert defs == {"y": parse_linexpr("1")}
    atoms, reached = [], []
    _walk(stmt, {s: 0 for s in range(4999)}, atoms, reached)
    assert [str(a) for a in atoms] == ["x' <= 1", "-x' <= -1"] and not reached
