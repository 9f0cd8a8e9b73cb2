import random
import warnings

import pytest

from invgen.cfg import Cfg, CfgError, compress, feedback_vertex_set, is_valid_cutset
from invgen.formula import (
    And, Atom, LinExpr, formula_size, formula_vars,
    parse_statement, primed, selectors_of,
)
from invgen.numeric import Rat
from invgen.smt import smt_check

from generators import random_cfg, random_state


def g1_cfg():
    edges = [
        ("st", parse_statement("x1' = 0"), "n1"),
        ("n1", parse_statement("x1 <= 1000 & x1' = x1 & x2' = x2"), "n2"),
        ("n2", parse_statement("x2' = -x1 & x1' = x1"), "n3"),
        ("n3", parse_statement("x2 <= -1 & x1' = -2*x1 & x2' = x2"), "n4"),
        ("n4", parse_statement("x1' = x1 & x2' = x2"), "n1"),
        ("n3", parse_statement("x2 >= 0 & x1' = -x1 + 1 & x2' = x2"), "n5"),
        ("n5", parse_statement("x1' = x1 & x2' = x2"), "n1"),
    ]
    return Cfg(["st", "n1", "n2", "n3", "n4", "n5"], "st", edges, ["x1", "x2"])


def relation_holds(statement, pre, post):
    """Exact satisfiability of the statement with pre/post states fixed."""
    parts = [statement]
    for v, q in pre.items():
        lin = LinExpr.var(v)
        parts.extend([Atom(lin, "<=", q), Atom(lin.scale(-1), "<=", -q)])
    for v, q in post.items():
        lin = LinExpr.var(primed(v))
        parts.extend([Atom(lin, "<=", q), Atom(lin.scale(-1), "<=", -q)])
    return smt_check(And(parts)).is_sat


def one_step_reachable(statement, pre):
    parts = [statement]
    for v, q in pre.items():
        lin = LinExpr.var(v)
        parts.extend([Atom(lin, "<=", q), Atom(lin.scale(-1), "<=", -q)])
    return smt_check(And(parts)).is_sat


def simple_paths(g, anchors, u, v):
    """All simple paths u -> v whose interior nodes avoid the anchors."""
    paths = []

    def extend(node, used, acc):
        for e in g.edges:
            if e.source != node:
                continue
            if e.target == v:
                paths.append(acc + [e])
            elif e.target not in anchors and e.target not in used:
                extend(e.target, used | {e.target}, acc + [e])

    extend(u, set(), [])
    return paths


def path_formula(g, path):
    """Conjunction of the statements along a path, chained through fresh
    intermediate state vectors (oracle-side composition).  Selectors are
    re-numbered so distinct disjunctions never share an id."""
    import itertools

    from invgen.formula import map_atoms

    parts = []
    n = len(path)
    fresh = itertools.count()
    for k, e in enumerate(path):
        mapping = {}
        for x in g.program_vars:
            mapping[x] = x if k == 0 else f"$o{k}_{x}"
            mapping[primed(x)] = primed(x) if k == n - 1 else f"$o{k + 1}_{x}"
        for v in formula_vars(e.statement):
            if v not in mapping:
                mapping[v] = f"$aux{k}_{v}"
        parts.append(map_atoms(e.statement, lambda a: a.rename(mapping), fresh))
    return And(parts)


def test_fvs_of_running_example_is_loop_head():
    assert feedback_vertex_set(g1_cfg()) == frozenset({"n1"})


def test_fvs_of_acyclic_graph_is_empty():
    g = Cfg(["a", "b", "c"], "a",
            [("a", parse_statement("x' = x"), "b"),
             ("b", parse_statement("x' = x"), "c")], ["x"])
    assert feedback_vertex_set(g) == frozenset()


def test_fvs_covers_unreachable_cycles():
    g = Cfg(["s", "u", "v"], "s",
            [("u", parse_statement("x' = x"), "v"),
             ("v", parse_statement("x' = x"), "u")], ["x"])
    cut = feedback_vertex_set(g)
    assert is_valid_cutset(g, cut)


def test_fvs_random_graphs_always_valid():
    rng = random.Random(3)
    for _ in range(60):
        g = random_cfg(rng)
        cut = feedback_vertex_set(g)
        assert is_valid_cutset(g, cut)


@pytest.mark.parametrize("nodes, start, edges, program_vars, message", [
    (["a", "a"], "a", [], ["x"], "duplicate node names"),
    (["a"], "b", [], ["x"], "start node 'b' is not declared"),
    (["a"], "a", [("a", None, "b")], ["x"], "'a' -> 'b' uses undeclared nodes"),
    (["a"], "a", [], ["x", "x"], "duplicate program variables"),
])
def test_ill_formed_graph_rejected(nodes, start, edges, program_vars, message):
    # the CLI's program checks catch these first; the library checks its own
    with pytest.raises(CfgError, match=message):
        Cfg(nodes, start, edges, program_vars)


def test_invalid_cutset_rejected():
    g = g1_cfg()
    assert not is_valid_cutset(g, frozenset())
    with pytest.raises(CfgError):
        compress(g, frozenset())
    with pytest.raises(CfgError):
        compress(g, frozenset({"nowhere"}))


def test_compress_running_example_matches_hand_compressed():
    g = compress(g1_cfg(), frozenset({"n1"}))
    assert g.nodes == ["st", "n1"]
    by_pair = {(e.source, e.target): e for e in g.edges}
    assert set(by_pair) == {("st", "n1"), ("n1", "n1")}
    loop = by_pair[("n1", "n1")].statement
    hand = parse_statement(
        "x1 <= 1000 & x2' = -x1 & "
        "((x2' <= -1 & x1' = -2*x1) | (x2' >= 0 & x1' = -x1 + 1))")
    rng = random.Random(9)
    for _ in range(40):
        pre = random_state(rng, ["x1", "x2"])
        post = random_state(rng, ["x1", "x2"])
        assert relation_holds(loop, pre, post) == relation_holds(hand, pre, post)
    # and on points actually related by the loop
    for x1 in (Rat(0), Rat(1), Rat(-2), Rat(1000)):
        pre = {"x1": x1, "x2": Rat(0)}
        post = {"x1": -2 * x1 if -x1 <= -1 else -x1 + 1, "x2": -x1}
        assert relation_holds(loop, pre, post)
        assert relation_holds(hand, pre, post)


def test_compress_identity_on_already_compressed():
    hand = parse_statement("x1 <= 1 & x1' = x1 & x2' = x2")
    g = Cfg(["st", "n1"], "st",
            [("st", parse_statement("x1' = 0 & x2' = 0"), "n1"),
             ("n1", hand, "n1")], ["x1", "x2"])
    c = compress(g, frozenset({"n1"}))
    assert c.nodes == g.nodes
    assert {(e.source, e.target) for e in c.edges} == {("st", "n1"), ("n1", "n1")}
    rng = random.Random(11)
    loop = next(e.statement for e in c.edges if e.source == "n1")
    for _ in range(25):
        pre = random_state(rng, ["x1", "x2"])
        post = random_state(rng, ["x1", "x2"])
        assert relation_holds(loop, pre, post) == relation_holds(hand, pre, post)


def test_compress_two_diamonds_is_union_of_four_compositions():
    d1 = parse_statement("(x <= 0 & x' = x + 1 & y' = y) | (0 <= x & x' = x - 1 & y' = y)")
    d2 = parse_statement("(y <= 0 & y' = y + x & x' = x) | (0 <= y & y' = y - x & x' = x)")
    g = Cfg(["a", "b", "c"], "a", [("a", d1, "b"), ("b", d2, "c")], ["x", "y"])
    c = compress(g, frozenset({"c"}))
    edge = next(e for e in c.edges if (e.source, e.target) == ("a", "c"))
    anchors = {"a", "c"}
    paths = simple_paths(g, anchors, "a", "c")
    assert len(paths) == 1  # one path a->b->c carrying 2x2 composed branches
    oracle = path_formula(g, paths[0])
    rng = random.Random(13)
    hits = 0
    for _ in range(60):
        pre = random_state(rng, ["x", "y"])
        post = random_state(rng, ["x", "y"])
        want = relation_holds(oracle, pre, post)
        assert relation_holds(edge.statement, pre, post) == want
        hits += want
    # pointwise checks on states known to be related (all four compositions)
    for x, y in ((Rat(-1), Rat(-1)), (Rat(-1), Rat(1)), (Rat(1), Rat(-1)), (Rat(1), Rat(1))):
        x1 = x + 1 if x <= 0 else x - 1
        y1 = y + x1 if y <= 0 else y - x1
        assert relation_holds(edge.statement, {"x": x, "y": y}, {"x": x1, "y": y1})


def test_compress_drops_unreachable_nodes_with_warning():
    g = Cfg(["s", "a", "u"], "s",
            [("s", parse_statement("x' = x"), "a"),
             ("u", parse_statement("x' = x"), "u")], ["x"])
    with pytest.warns(UserWarning, match="unreachable"):
        c = compress(g, frozenset({"a", "u"}))
    assert c.nodes == ["s", "a"]


def test_compress_size_stays_linear():
    # a chain of k diamonds has 2^k paths; the compressed formula must stay
    # linear in the sum of the edge formula sizes
    k = 8
    nodes = [f"n{i}" for i in range(k + 1)]
    edges = []
    total = 0
    for i in range(k):
        stmt = parse_statement("(x <= 0 & x' = x + 1) | (0 <= x & x' = x - 1)")
        total += formula_size(stmt)
        edges.append((nodes[i], stmt, nodes[i + 1]))
    g = Cfg(nodes, "n0", edges, ["x"])
    c = compress(g, frozenset({nodes[-1]}))
    edge = next(e for e in c.edges)
    assert formula_size(edge.statement) <= 3 * total
    assert len(selectors_of(edge.statement)) == k


def test_compress_preserves_reachability_on_random_cfgs():
    rng = random.Random(17)
    for _ in range(25):
        g = random_cfg(rng)
        cut = feedback_vertex_set(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = compress(g, cut)
        anchors = set(c.nodes)
        for e in c.edges:
            paths = simple_paths(g, anchors, e.source, e.target)
            for _ in range(6):
                pre = random_state(rng, g.program_vars)
                got = one_step_reachable(e.statement, pre)
                want = any(one_step_reachable(path_formula(g, p), pre) for p in paths)
                assert got == want
