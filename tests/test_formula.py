import random
from collections import Counter

import pytest

from invgen.cfg import Cfg
from invgen.engine import EngineError, EquationSystem, StratPath, Template, _entry_value
from invgen.formula import (
    FALSE_ATOM, TRUE, And, Atom, FormulaError, LinExpr, Or, ParseError,
    build_psi, eliminate_equalities, formula_size, formula_vars, label_selectors, map_atoms,
    parse_linexpr, parse_statement, paths, selectors_of, walk,
)
from invgen.numeric import NEG_INF, POS_INF, Rat, ext
from invgen.smt import _smt_declarations

from generators import random_shared_statement, random_state, random_statement
from oracles import (
    atoms_of, check_selector_invariant, enumerate_path_choices, eval_formula,
    format_statement, nonstrict_relaxation, ref_add, ref_relation, ref_rename, ref_scale,
    ref_substitute, ref_sub, select_path,
)

RUNNING_BODY = ("x1 <= 1000 & x2' = -x1 & "
                "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")


def atoms_as_strings(formula):
    return [str(a) for a in atoms_of(formula)]


def walked(formula, choice):
    """The atoms ``walk`` forces under ``choice``, as strings, and the
    disjunctions it reaches without a value."""
    atoms, reached = [], []
    walk(formula, choice, atoms, reached)
    return [str(a) for a in atoms], reached


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


def test_parser_reads_deep_parentheses_and_reports_where_input_stops():
    # operators wait on an explicit stack: 5,000 levels of parentheses
    # around a formula or an expression read as none do
    bare = parse_statement("x <= 1 & x' = 2 * x")
    deep = parse_statement("(" * 5000 + "x <= 1 & x' = " + "-(" * 5000 + "2 * x"
                           + ")" * 10000)
    assert atoms_as_strings(deep) == atoms_as_strings(bare)
    assert parse_linexpr("(" * 5000 + "x - 1" + ")" * 5000) == parse_linexpr("x - 1")
    # an open parenthesis is reported where the input stops
    with pytest.raises(ParseError) as err:
        parse_statement("(x <= 1")
    assert (err.value.line, err.value.column) == (1, 8)
    with pytest.raises(ParseError) as err:
        parse_statement("(" * 5000 + "x <= 1")
    assert (err.value.line, err.value.column) == (1, 5007)
    # a parenthesised expression where a formula may stand must be followed
    # by a relation; a formula may not stand inside an expression
    for text, column in (("(x + 1) & y <= 1", 9), ("(x)", 4), ("(x) <= (1 | 2)", 11),
                         ("2 * (x <= 1)", 8), ("(x <= 1) <= 2", 10)):
        with pytest.raises(ParseError) as err:
            parse_statement(text)
        assert (err.value.line, err.value.column) == (1, column), text


def test_walk_on_running_example():
    f = parse_statement(RUNNING_BODY)
    right, reached = walked(f, {0: 1})
    assert "x1' + x1 <= 1" in right and not reached
    left, reached = walked(f, {0: 0})
    assert "x2' <= -1" in left and not reached
    # a missing choice leaves its disjunction reached, not walked
    prefix, reached = walked(f, {})
    assert prefix == ["x1 <= 1000", "x2' + x1 <= 0", "-x1 - x2' <= 0"]
    assert reached == [f.children[-1]]


def test_walk_identity_on_sequential():
    f = parse_statement("x <= 1 & y' = x")
    assert walked(f, {}) == (atoms_as_strings(f), [])


def test_walk_resolves_all_disjunctions():
    f = parse_statement("(a <= 0 | a >= 1) & (b <= 0 | b >= 1) & (c <= 0 | c >= 1)")
    assert len(selectors_of(f)) == 3
    for mask in range(8):
        choice = {s: (mask >> i) & 1 for i, s in enumerate(selectors_of(f))}
        atoms, reached = walked(f, choice)
        assert len(atoms) == 3 and not reached
    assert len(list(paths(f))) == 8


def test_paths_match_reference_walkers():
    # paths is built on walk; the recursive reference walkers are independent
    rng = random.Random(71)
    total = 0
    for k in range(400):
        make = random_shared_statement if k % 2 else random_statement
        f = make(rng, ["x", "y"], max_selectors=5)
        want = Counter(tuple(map(id, atoms_of(select_path(f, p))))
                       for p in enumerate_path_choices(f))
        got = Counter(tuple(map(id, atoms)) for atoms in paths(f))
        assert got == want
        total += len(want)
    assert total > 1000


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
    assert psi.children == (
        Atom(rows[0], "<=", 0), Atom(rows[1], "<=", 0), f,
        Atom(parse_linexpr("-x1'"), "<", 0))
    assert psi.children[2] is f
    assert formula_vars(psi) == ["x1", "x2'", "x1'"]
    # a presolved post-state row may carry a constant: 2*x1 + 1 > 3
    psi = build_psi(f, [ext(0), ext(0)], rows, 0, ext(3), post=parse_linexpr("2*x1 + 1"))
    assert psi.children[-1] == Atom(parse_linexpr("-2*x1"), "<", -2)
    assert formula_vars(psi) == ["x1", "x2'", "x1'"]
    # a constant one is still one strict atom: 5 > 3 holds
    psi = build_psi(f, [POS_INF, POS_INF], rows, 0, ext(3), post=parse_linexpr("5"))
    assert psi.children == (f, Atom(parse_linexpr("0"), "<", 2))


def test_build_psi_drops_infinite_rows_and_bound():
    f = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    psi = build_psi(f, [POS_INF], rows, 0, NEG_INF)
    # no source row and no bound clause: just the body
    assert psi.children == (f,)
    assert formula_vars(psi) == ["x1'", "x1"]


def test_build_psi_corner_cases():
    f = parse_statement("x1' = x1")
    rows = [parse_linexpr("x1")]
    assert build_psi(f, [NEG_INF], rows, 0, ext(0)) is FALSE_ATOM
    with pytest.raises(FormulaError):
        build_psi(f, [ext(0)], rows, 0, POS_INF)
    with pytest.raises(FormulaError):
        build_psi(f, [ext(0), ext(0)], rows, 0, ext(0))  # wrong arity


def test_linexpr_printer_round_trip():
    for text in ("x1", "-x1", "x1 + x2", "2*x1 - 3/2*x2", "x1 - 1"):
        e = parse_linexpr(text)
        assert parse_linexpr(str(e)) == e


KERNEL_VARS = ("a", "b", "c", "d", "e")
KERNEL_COEFFS = (Rat(-2), Rat(-1), Rat(-1, 2), Rat(1, 3), Rat(1), Rat(3, 2), Rat(2))


def random_linexpr(rng, like=None):
    """A random expression over a few variables in random order; with
    ``like``, many of its coefficients are the negations of ``like``'s, so
    that sums cancel."""
    names = rng.sample(KERNEL_VARS, rng.randint(0, 4))
    coeffs = {v: rng.choice(KERNEL_COEFFS) for v in names}
    if like is not None:
        for v, c in like.coeffs.items():
            if rng.random() < 0.6:
                coeffs[v] = -c
    return LinExpr(coeffs, rng.choice((0, 0, Rat(5, 3), Rat(-1))))


def assert_same_expr(got, want):
    """Equal values, the same variable order, and the stored invariant:
    nonzero ``Rat`` coefficients and a ``Rat`` constant."""
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)
    assert all(type(c) is Rat and c != 0 for c in got.coeffs.values())
    assert type(got.const) is Rat


def test_linexpr_kernel_matches_reference_arithmetic():
    rng = random.Random(2212)
    cancelled = Counter()
    for _ in range(600):
        a = random_linexpr(rng)
        b = random_linexpr(rng, like=a)
        for got, want in ((a.add(b), ref_add(a, b)), (a.sub(b), ref_sub(a, b)),
                          (a.sub(a.scale(-1)), ref_sub(a, ref_scale(a, -1)))):
            assert_same_expr(got, want)
            cancelled["sum"] += len(got.coeffs) < len(a.coeffs.keys() | b.coeffs.keys())
        for factor in (0, 1, -1, 2, Rat(-3, 4), Rat(1), Rat(-1)):
            assert_same_expr(a.scale(factor), ref_scale(a, factor))
        # definitions may mention defined variables and cancel each other
        defs = {v: random_linexpr(rng, like=a) for v in rng.sample(KERNEL_VARS, 2)}
        got = a.substitute(defs)
        assert_same_expr(got, ref_substitute(a, defs))
        cancelled["substitute"] += len(got.coeffs) < len(
            {v for v in a.coeffs if v not in defs}.union(*(defs[v].coeffs for v in a.coeffs
                                                           if v in defs)))
        # renaming may merge variables, and merged coefficients may cancel
        mapping = {v: rng.choice(KERNEL_VARS) for v in rng.sample(KERNEL_VARS, 3)}
        got = a.rename(mapping)
        assert_same_expr(got, ref_rename(a, mapping))
        cancelled["rename"] += len(got.coeffs) < len({mapping.get(v, v) for v in a.coeffs})
    assert min(cancelled.values()) >= 10, cancelled
    # a variable that cancels and comes back goes last, as with chained adds
    e = parse_linexpr("y + x + z")
    defs = {"x": parse_linexpr("w - y"), "z": parse_linexpr("y")}
    assert_same_expr(e.substitute(defs), ref_substitute(e, defs))
    assert list(e.substitute(defs).coeffs) == ["w", "y"]
    # merged coefficients that cancel on the way keep their first place
    e = parse_linexpr("x - y + a + w")
    mapping = {"x": "z", "y": "z", "w": "z"}
    assert_same_expr(e.rename(mapping), ref_rename(e, mapping))
    assert list(e.rename(mapping).coeffs) == ["z", "a"]


def test_relations_desugar_like_the_reference():
    rng = random.Random(2213)
    for _ in range(300):
        lhs = random_linexpr(rng)
        rhs = random_linexpr(rng, like=lhs)
        for rel in ("<=", "<", ">=", ">", "=", "!="):
            got = _all_atoms(parse_statement(f"{lhs} {rel} {rhs}"))
            want = ref_relation(lhs, rel, rhs)
            assert [str(x) for x in got] == [str(x) for x in want]
            for x, y in zip(got, want):
                assert x == y and x.lin.const == 0
                assert_same_expr(x.lin, y.lin)
                assert type(x.bound) is Rat


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
    # the deepest leaf is disjunct 0 (every selector 0), the shallowest 4,999
    deepest, shallowest = {s: 0 for s in range(4999)}, {0: 1}
    assert walked(stmt, deepest) == (["x' <= 1", "-x' <= -1"], [])
    assert walked(stmt, shallowest) == (["x' <= 5000", "-x' <= -5000"], [])
    # --local-opt reads an entry's value from its evaluation rows, which walk
    # the presolved statement; an open path is an engine contract violation
    g = Cfg(["st", "a"], "st", [("st", f, "a")], ["x"])
    eq = EquationSystem(g, Template([parse_linexpr("x")]))
    bounds = {("st", 0): POS_INF, ("a", 0): NEG_INF}
    assert _entry_value(eq, ("a", 0), StratPath(0, deepest), bounds, None) == ext(1)
    assert _entry_value(eq, ("a", 0), StratPath(0, shallowest), bounds, None) == ext(5000)
    with pytest.raises(EngineError):
        _entry_value(eq, ("a", 0), StratPath(0, {}), bounds, None)
    # the SMT-LIB2 term nests each disjunction in the one above it

    def leaf(i):
        return f"(and (<= |x'| {i + 1}) (<= (* (- 1) |x'|) (- {i + 1})))"

    text = _smt_declarations(stmt)
    assert text.endswith("(declare-const |x'| Real)\n(assert "
                         + "".join(f"(or (and (not sel!{s}) " for s in range(4999)) + leaf(0)
                         + "".join(f") (and sel!{s} {leaf(4999 - s)}))" for s in range(4998, -1, -1))
                         + ")\n")
    assert text.startswith("(declare-const sel!0 Bool)\n(declare-const sel!1 Bool)\n")
